"""Exception and warning types shared across the package.

The deciders ``classify`` and ``classify_trace_zero`` raise none of these
on a sorted list: every such list gets a decision.  The errors mark
malformed input (``InvalidSpectrum``, also for a perturbation that leaves
the float range), a constructor called outside its region, and numerical
breakdown.
"""


class SniepError(Exception):
    """Base class for every error this package raises on purpose."""


class InvalidSpectrum(SniepError, ValueError):
    """Spectrum input is malformed: wrong arity, non-finite, or unparseable."""


class PreconditionViolated(SniepError):
    """A matrix constructor was called outside its validity region.

    ``failed`` lists the names of the conditions that did not hold.
    """

    def __init__(self, message: str, failed=()):
        super().__init__(message)
        self.failed = tuple(failed)


class DegenerateU(SniepError):
    """The scale factor u vanished, so the five-cycle pattern is undefined."""


class NegativeRadicand(SniepError):
    """A square-root argument came out negative; no real matrix exists there."""


class DegenerateLeadingCoefficient(SniepError):
    """The cubic solver was handed a zero leading coefficient."""


class NoConvergence(SniepError):
    """The eigensolver missed its off-diagonal threshold within the sweep
    budget, or an eigenvalue is too large for a float."""


class EmptyGrid(SniepError):
    """Region sampling produced no feasible grid point for any requested t."""


class BoundaryProximityWarning(UserWarning):
    """The spectrum sits within rounding distance of a decision boundary.

    The classification itself still uses exact comparisons; this warning only
    flags that the verdict may flip under perturbations of one part in 1e12.
    """
