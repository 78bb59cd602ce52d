"""The realizability decision procedure.

``classify`` runs a fixed rule list over a descending spectrum: the three
necessary conditions first, then the regions where realizability is known
outright, then the boundary exclusion, and finally the two explicit matrix
patterns.  Spectra surviving every rule are Unknown: undecided by this
toolbox, not proven unrealizable.

``classify_trace_zero`` answers the zero-sum face exactly: with the sum
zero and lam5 >= -lam1, realizability holds precisely when the cube sum,
taken at unit scale, is nonnegative and lam2 + lam5 <= 0.  Off the face it
returns ``classify``'s decision, so it never raises on a sorted list.

``realize`` builds the matrix behind a pattern certificate.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass

from .errors import BoundaryProximityWarning
from .pattern_a import build_pattern_a
from .pattern_b import _unit_g, build_pattern_b
from .spectrum import SortedSpectrum, SymMatrix5, _trace, _unit_scale, _unsorted

BOUNDARY_WARN_TOL = 1e-12
TRACE_ZERO_TOL = 1e-12


class Verdict(enum.Enum):
    REALIZABLE = "realizable"
    NOT_REALIZABLE = "not_realizable"
    UNKNOWN = "unknown"


class Certificate(enum.Enum):
    PATTERN_A = "pattern_a"
    PATTERN_B = "pattern_b"
    DIRECT_SUM = "direct_sum"
    SULEIMANOVA = "suleimanova"
    TWO_POSITIVE = "two_positive"
    TRACE_ZERO = "trace_zero"
    GUO_CLOSURE = "guo_closure"


class Reason(enum.Enum):
    PF_VIOLATED = "perron_violated"
    TRACE_VIOLATED = "trace_violated"
    MN_VIOLATED = "mn_violated"
    NEGATED_PERRON_BOUNDARY = "negated_perron_boundary"
    TRACE_ZERO_VIOLATED = "trace_zero_violated"


@dataclass(frozen=True, slots=True)
class DecisionDetails:
    """The numbers behind a decision, read from the decided spectrum on demand.

    ``e1`` is the spectrum's stored e1, ``u`` and ``r`` its stored five-cycle
    scalars, and ``mn_sum`` is lam1 + lam3 + lam4.  Nothing is computed until
    it is read.  ``classify``'s linear rules read e1 from ``_trace``, with the
    expansion's bits, so it expands e1..e5 and u/v/w/r only for a spectrum
    that reaches the pattern stage; a detail read later expands them then,
    with the same bits.  Two details compare equal when their spectra do.
    """

    spectrum: SortedSpectrum

    @property
    def e1(self) -> float:
        return self.spectrum.elem_syms.e1

    @property
    def r(self) -> float:
        return self.spectrum.uvwr.r

    @property
    def u(self) -> float:
        return self.spectrum.uvwr.u

    @property
    def mn_sum(self) -> float:
        l1, _, l3, l4, _ = self.spectrum.values
        return l1 + l3 + l4

    def to_json_dict(self) -> dict:
        # an overflowed (inf or NaN) value is written as null, so the JSON is valid
        return {name: x if math.isfinite(x) else None for name, x in (
            ("e1", self.e1), ("r", self.r), ("u", self.u), ("mn_sum", self.mn_sum))}


@dataclass(frozen=True, slots=True)
class RealizabilityDecision:
    verdict: Verdict
    certificate: Certificate | None = None
    reason: Reason | None = None
    g: float | None = None
    details: DecisionDetails | None = None

    def __post_init__(self):
        if (self.verdict is Verdict.REALIZABLE) != (self.certificate is not None):
            raise ValueError("realizable verdicts carry a certificate, others none")
        if (self.verdict is Verdict.NOT_REALIZABLE) != (self.reason is not None):
            raise ValueError("not-realizable verdicts carry a reason, others none")

    def to_json_dict(self) -> dict:
        out: dict = {"verdict": self.verdict.value}
        if self.certificate is not None:
            out["certificate"] = self.certificate.value
        if self.reason is not None:
            out["reason"] = self.reason.value
        if self.g is not None:
            out["g"] = self.g
        if self.details is not None:
            out["details"] = self.details.to_json_dict()
        return out


# slot setters, bound once; each gets past the frozen __setattr__
_new = object.__new__
_set_spectrum = DecisionDetails.spectrum.__set__
_set_verdict = RealizabilityDecision.verdict.__set__
_set_certificate = RealizabilityDecision.certificate.__set__
_set_reason = RealizabilityDecision.reason.__set__
_set_g = RealizabilityDecision.g.__set__
_set_details = RealizabilityDecision.details.__set__

# the members that function bodies read, bound once: on CPython 3.11 EnumType
# defines __getattr__, so a read through the class (Verdict.REALIZABLE) costs
# about 100 ns, against under 10 ns for a module global
_REALIZABLE = Verdict.REALIZABLE
_NOT_REALIZABLE = Verdict.NOT_REALIZABLE
_UNKNOWN = Verdict.UNKNOWN
_PATTERN_A = Certificate.PATTERN_A
_PATTERN_B = Certificate.PATTERN_B
_DIRECT_SUM = Certificate.DIRECT_SUM
_SULEIMANOVA = Certificate.SULEIMANOVA
_TWO_POSITIVE = Certificate.TWO_POSITIVE
_TRACE_ZERO = Certificate.TRACE_ZERO
_PF_VIOLATED = Reason.PF_VIOLATED
_TRACE_VIOLATED = Reason.TRACE_VIOLATED
_MN_VIOLATED = Reason.MN_VIOLATED
_NEGATED_PERRON_BOUNDARY = Reason.NEGATED_PERRON_BOUNDARY
_TRACE_ZERO_VIOLATED = Reason.TRACE_ZERO_VIOLATED


def _decided(
    verdict: Verdict,
    certificate: Certificate | None,
    reason: Reason | None,
    det: DecisionDetails,
    g: float | None = None,
) -> RealizabilityDecision:
    """A ``RealizabilityDecision`` built without the frozen-dataclass init.

    Only for the literal (verdict, certificate, reason) combinations in this
    package, each of which passes ``__post_init__``.  Each slot is filled
    by its own setter, bound once at import, in declaration order.
    """
    out = _new(RealizabilityDecision)
    _set_verdict(out, verdict)
    _set_certificate(out, certificate)
    _set_reason(out, reason)
    _set_g(out, g)
    _set_details(out, det)
    return out


def classify(s: SortedSpectrum) -> RealizabilityDecision:
    """Decide realizability of a descending spectrum; first matching rule wins.

    ``s`` must be a ``SortedSpectrum`` (see ``sort_descending``); any other
    value raises ``TypeError``.
    """
    if not isinstance(s, SortedSpectrum):
        raise _unsorted(s)
    l1, l2, l3, l4, l5 = s.values
    det = _new(DecisionDetails)
    _set_spectrum(det, s)

    # lam1 dominates every |lam_i|, which in descending order is these two
    if not (l1 >= 0.0 and l1 >= -l5):
        return _decided(_NOT_REALIZABLE, None, _PF_VIOLATED, det)
    k = 0
    if l1 >= 2.0 ** 1022:  # e1 can overflow: decide every rule at unit scale
        s, k = _unit_scale(s)
        l1, l2, l3, l4, l5 = s.values
    e1 = _trace(l1, l2, l3, l4, l5)
    if not e1 >= 0.0:
        return _decided(_NOT_REALIZABLE, None, _TRACE_VIOLATED, det)
    if not l1 + l3 + l4 >= 0.0:
        return _decided(_NOT_REALIZABLE, None, _MN_VIOLATED, det)
    if l2 <= 0.0:
        return _decided(_REALIZABLE, _SULEIMANOVA, None, det)
    if l3 <= 0.0:
        return _decided(_REALIZABLE, _TWO_POSITIVE, None, det)
    if l3 <= e1:
        return _decided(_REALIZABLE, _DIRECT_SUM, None, det)

    # past here lam3 > e1 >= 0, so the boundary exclusion applies
    if l1 > 0.0 and abs(l5 + l1) <= BOUNDARY_WARN_TOL * l1:
        warnings.warn(
            f"lam5 sits within {BOUNDARY_WARN_TOL:g}*lam1 of -lam1; the verdict "
            "flips across that boundary",
            BoundaryProximityWarning,
            stacklevel=2,
        )
    if l5 == -l1:
        return _decided(_NOT_REALIZABLE, None, _NEGATED_PERRON_BOUNDARY, det)

    # the rules above proved the gates' shared region checks: lam5 > -lam1
    # (lam1 >= -lam5 and lam5 != -lam1), e1 >= 0, and lam3 > e1; so each
    # pattern is decided by the one check its gate adds, at unit scale; with
    # lam5 > -lam1, a list whose lam1 is in [1, 2) is at unit scale already
    if not 1.0 <= l1 < 2.0:
        s, k = _unit_scale(s)
    if s.uvwr.r >= 0.0:
        return _decided(_REALIZABLE, _PATTERN_A, None, det)
    g = _unit_g(s)
    if g is not None:
        g = math.ldexp(g, k)
        return _decided(_REALIZABLE, _PATTERN_B, None, det, g)
    return _decided(_UNKNOWN, None, None, det)


def realize(s: SortedSpectrum, decision: RealizabilityDecision) -> SymMatrix5 | None:
    """The matrix behind a pattern certificate; the others are decision-only."""
    certificate = decision.certificate
    if certificate is _PATTERN_A:
        return build_pattern_a(s)
    if certificate is _PATTERN_B:
        return build_pattern_b(s, decision.g)
    return None


def is_trace_zero(s: SortedSpectrum) -> bool:
    """The sum is zero up to 1e-12 * max|lam_i|."""
    l1, l2, l3, l4, l5 = s.values  # max|lam_i| of descending entries is at an end
    return abs(_trace(l1, l2, l3, l4, l5)) <= TRACE_ZERO_TOL * max(l1, -l5)


def classify_trace_zero(s: SortedSpectrum) -> RealizabilityDecision:
    """Exact decision on the zero-sum face, and ``classify``'s off it.

    On the face (the sum is zero up to 1e-12 * max|lam_i|, and lam5 >= -lam1)
    the list is realizable precisely when the cube sum, taken at unit scale,
    is nonnegative and lam2 + lam5 <= 0.  An unsorted list raises TypeError.
    """
    if not isinstance(s, SortedSpectrum):
        raise _unsorted(s)
    l1, l2, _, _, l5 = s.values
    if l5 < -l1 or not is_trace_zero(s):
        return classify(s)
    det = _new(DecisionDetails)
    _set_spectrum(det, s)
    # fsum: the sign of a sum that cancels must not depend on the Python
    # version (3.12's sum() is compensated, 3.11's is not)
    a, b, c, d, e = _unit_scale(s)[0].values
    cube_sum = math.fsum((a ** 3, b ** 3, c ** 3, d ** 3, e ** 3))
    if cube_sum >= 0.0 and l2 + l5 <= 0.0:
        return _decided(_REALIZABLE, _TRACE_ZERO, None, det)
    return _decided(_NOT_REALIZABLE, None, _TRACE_ZERO_VIOLATED, det)
