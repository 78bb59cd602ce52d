"""The realizability decision procedure.

``classify`` runs a fixed rule list over a descending spectrum: the three
necessary conditions first, then the regions where realizability is known
outright, then the boundary exclusion, and finally the two explicit matrix
patterns.  Spectra surviving every rule are Unknown: undecided by this
toolbox, not proven unrealizable.  The rule list (``_rules``) returns a
plain outcome, from which ``_decided`` alone builds every decision record.

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

# the boundary warning's text, formatted once
_BOUNDARY_MESSAGE = (
    f"lam5 sits within {BOUNDARY_WARN_TOL:g}*lam1 of -lam1; the verdict "
    "flips across that boundary"
)


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
    pair (``_ur``), and ``mn_sum`` is lam1 + lam3 + lam4.  Nothing is
    computed until it is read, and v and w never are.  Two details compare
    equal when their spectra do.
    """

    spectrum: SortedSpectrum

    @property
    def e1(self) -> float:
        return self.spectrum.elem_syms.e1

    @property
    def r(self) -> float:
        return self.spectrum._ur[1]

    @property
    def u(self) -> float:
        return self.spectrum._ur[0]

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

# the members and outcomes that function bodies read, bound once: on CPython
# 3.11 EnumType defines __getattr__, so a read through the class
# (Verdict.REALIZABLE) costs about 100 ns, against under 10 ns for a module
# global; an outcome is a (verdict, certificate, reason) triple
_PATTERN_A = Certificate.PATTERN_A
_PATTERN_B = Certificate.PATTERN_B
_IS_PF_VIOLATED = (Verdict.NOT_REALIZABLE, None, Reason.PF_VIOLATED)
_IS_TRACE_VIOLATED = (Verdict.NOT_REALIZABLE, None, Reason.TRACE_VIOLATED)
_IS_MN_VIOLATED = (Verdict.NOT_REALIZABLE, None, Reason.MN_VIOLATED)
_IS_NEGATED_PERRON_BOUNDARY = (
    Verdict.NOT_REALIZABLE, None, Reason.NEGATED_PERRON_BOUNDARY)
_IS_TRACE_ZERO_VIOLATED = (Verdict.NOT_REALIZABLE, None, Reason.TRACE_ZERO_VIOLATED)
_IS_SULEIMANOVA = (Verdict.REALIZABLE, Certificate.SULEIMANOVA, None)
_IS_TWO_POSITIVE = (Verdict.REALIZABLE, Certificate.TWO_POSITIVE, None)
_IS_DIRECT_SUM = (Verdict.REALIZABLE, Certificate.DIRECT_SUM, None)
_IS_PATTERN_A = (Verdict.REALIZABLE, Certificate.PATTERN_A, None)
_IS_PATTERN_B = (Verdict.REALIZABLE, Certificate.PATTERN_B, None)
_IS_TRACE_ZERO = (Verdict.REALIZABLE, Certificate.TRACE_ZERO, None)
_IS_GUO_CLOSURE = (Verdict.REALIZABLE, Certificate.GUO_CLOSURE, None)
_IS_UNKNOWN = (Verdict.UNKNOWN, None, None)


def _decided(outcome: tuple, s: SortedSpectrum,
             g: float | None = None) -> RealizabilityDecision:
    """The decision of ``outcome`` on ``s``, built past the frozen-dataclass init.

    Only for the outcome triples above, each of which passes ``__post_init__``;
    each slot is filled by its own setter, bound once at import.
    """
    det = _new(DecisionDetails)
    _set_spectrum(det, s)
    verdict, certificate, reason = outcome
    out = _new(RealizabilityDecision)
    _set_verdict(out, verdict)
    _set_certificate(out, certificate)
    _set_reason(out, reason)
    _set_g(out, g)
    _set_details(out, det)
    return out


def _rules(s: SortedSpectrum) -> tuple[tuple, float | None]:
    """The first matching rule's outcome, and pattern_b's g, on a descending
    spectrum; builds no record.  The boundary warning names the caller's caller.
    """
    l1, l2, l3, l4, l5 = s.values

    # lam1 dominates every |lam_i|, which in descending order is these two
    if not (l1 >= 0.0 and l1 >= -l5):
        return _IS_PF_VIOLATED, None
    k = 0
    if l1 >= 2.0 ** 1022:  # e1 can overflow: decide every rule at unit scale
        s, k = _unit_scale(s)
        l1, l2, l3, l4, l5 = s.values
    e1 = _trace(l1, l2, l3, l4, l5)
    if not e1 >= 0.0:
        return _IS_TRACE_VIOLATED, None
    if not l1 + l3 + l4 >= 0.0:
        return _IS_MN_VIOLATED, None
    if l2 <= 0.0:
        return _IS_SULEIMANOVA, None
    if l3 <= 0.0:
        return _IS_TWO_POSITIVE, None
    if l3 <= e1:
        return _IS_DIRECT_SUM, None

    # past here lam3 > e1 >= 0, so the boundary exclusion applies
    if l1 > 0.0 and abs(l5 + l1) <= BOUNDARY_WARN_TOL * l1:
        warnings.warn(_BOUNDARY_MESSAGE, BoundaryProximityWarning, stacklevel=3)
    if l5 == -l1:
        return _IS_NEGATED_PERRON_BOUNDARY, None

    # the rules above proved the gates' shared region checks: lam5 > -lam1
    # (lam1 >= -lam5 and lam5 != -lam1), e1 >= 0, and lam3 > e1; so each
    # pattern is decided by the one check its gate adds, at unit scale; with
    # lam5 > -lam1, a list whose lam1 is in [1, 2) is at unit scale already
    if not 1.0 <= l1 < 2.0:
        s, k = _unit_scale(s)
    if s._ur[1] >= 0.0:  # r; v and w wait for the builder
        return _IS_PATTERN_A, None
    g = _unit_g(s)
    if g is not None:
        return _IS_PATTERN_B, math.ldexp(g, k)
    return _IS_UNKNOWN, None


def classify(s: SortedSpectrum) -> RealizabilityDecision:
    """Decide realizability of a descending spectrum; first matching rule wins.

    ``s`` must be a ``SortedSpectrum`` (see ``sort_descending``); any other
    value raises ``TypeError``.
    """
    if not isinstance(s, SortedSpectrum):
        raise _unsorted(s)
    outcome, g = _rules(s)
    return _decided(outcome, s, g)


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
    # fsum: the sign of a sum that cancels must not depend on the Python
    # version (3.12's sum() is compensated, 3.11's is not)
    a, b, c, d, e = _unit_scale(s)[0].values
    cube_sum = math.fsum((a ** 3, b ** 3, c ** 3, d ** 3, e ** 3))
    if cube_sum >= 0.0 and l2 + l5 <= 0.0:
        return _decided(_IS_TRACE_ZERO, s)
    return _decided(_IS_TRACE_ZERO_VIOLATED, s)
