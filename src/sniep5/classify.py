"""The realizability decision procedure.

``classify`` runs a fixed rule list over a descending spectrum: the three
necessary conditions first, then the regions where realizability is known
outright, then the boundary exclusion, and finally the two explicit matrix
patterns.  Spectra surviving every rule are Unknown: undecided by this
toolbox, not proven unrealizable.

``classify_trace_zero`` answers the zero-sum case exactly: with the sum
zero and lam5 >= -lam1, realizability holds precisely when the cube sum is
nonnegative and lam2 + lam5 <= 0.
"""

from __future__ import annotations

import enum
import warnings
from dataclasses import dataclass

from .errors import BoundaryProximityWarning, NotTraceZero
from .pattern_a import compute_uvwr, pattern_a_conditions
from .pattern_b import pattern_b_conditions
from .spectrum import SortedSpectrum, check_mn, check_pf, check_trace, elem_syms

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


# certificates that come with an explicit matrix from this package; the
# rest lean on published constructions and stay decision-only
CONSTRUCTIVE_CERTIFICATES = (Certificate.PATTERN_A, Certificate.PATTERN_B)


@dataclass(frozen=True)
class DecisionDetails:
    e1: float
    r: float
    u: float
    mn_sum: float

    def to_json_dict(self) -> dict:
        return {"e1": self.e1, "r": self.r, "u": self.u, "mn_sum": self.mn_sum}


@dataclass(frozen=True)
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


def _details(s: SortedSpectrum) -> DecisionDetails:
    sc = compute_uvwr(s)
    return DecisionDetails(
        e1=elem_syms(s).e1, r=sc.r, u=sc.u, mn_sum=s.lam1 + s.lam3 + s.lam4
    )


def classify(s: SortedSpectrum) -> RealizabilityDecision:
    """Decide realizability of a descending spectrum; first matching rule wins."""
    l1, l2, l3, _, l5 = s.values
    det = _details(s)

    if not check_pf(s):
        return RealizabilityDecision(
            Verdict.NOT_REALIZABLE, reason=Reason.PF_VIOLATED, details=det
        )
    if not check_trace(s):
        return RealizabilityDecision(
            Verdict.NOT_REALIZABLE, reason=Reason.TRACE_VIOLATED, details=det
        )
    if not check_mn(s):
        return RealizabilityDecision(
            Verdict.NOT_REALIZABLE, reason=Reason.MN_VIOLATED, details=det
        )
    if l2 <= 0.0:
        return RealizabilityDecision(
            Verdict.REALIZABLE, certificate=Certificate.SULEIMANOVA, details=det
        )
    if l3 <= 0.0:
        return RealizabilityDecision(
            Verdict.REALIZABLE, certificate=Certificate.TWO_POSITIVE, details=det
        )
    if l3 <= det.e1:
        return RealizabilityDecision(
            Verdict.REALIZABLE, certificate=Certificate.DIRECT_SUM, details=det
        )

    # past here lam3 > e1 >= 0, so the boundary exclusion applies
    if l1 > 0.0 and abs(l5 + l1) <= BOUNDARY_WARN_TOL * l1:
        warnings.warn(
            f"lam5 sits within {BOUNDARY_WARN_TOL:g}*lam1 of -lam1; the verdict "
            "flips across that boundary",
            BoundaryProximityWarning,
            stacklevel=2,
        )
    if l5 == -l1:
        return RealizabilityDecision(
            Verdict.NOT_REALIZABLE,
            reason=Reason.NEGATED_PERRON_BOUNDARY,
            details=det,
        )

    report_a = pattern_a_conditions(s)
    if report_a.passed:
        return RealizabilityDecision(
            Verdict.REALIZABLE, certificate=Certificate.PATTERN_A, details=det
        )
    report_b = pattern_b_conditions(s)
    if report_b.passed:
        return RealizabilityDecision(
            Verdict.REALIZABLE,
            certificate=Certificate.PATTERN_B,
            g=report_b.g,
            details=det,
        )
    return RealizabilityDecision(Verdict.UNKNOWN, details=det)


def classify_trace_zero(s: SortedSpectrum) -> RealizabilityDecision:
    """Exact decision for zero-sum spectra with lam5 >= -lam1.

    Realizable precisely when the cube sum is nonnegative and
    lam2 + lam5 <= 0.  Raises :class:`NotTraceZero` when the sum is off
    zero by more than 1e-12 * max|lam_i|.
    """
    l1, l2, _, _, l5 = s.values
    if l5 < -l1:
        raise ValueError("trace-zero characterization needs lam5 >= -lam1")
    e1 = elem_syms(s).e1
    if abs(e1) > TRACE_ZERO_TOL * max(abs(v) for v in s.values):
        raise NotTraceZero(f"sum is {e1}, not zero")
    det = _details(s)
    cube_sum = sum(v ** 3 for v in s.values)
    if cube_sum >= 0.0 and l2 + l5 <= 0.0:
        return RealizabilityDecision(
            Verdict.REALIZABLE, certificate=Certificate.TRACE_ZERO, details=det
        )
    return RealizabilityDecision(
        Verdict.NOT_REALIZABLE, reason=Reason.TRACE_ZERO_VIOLATED, details=det
    )
