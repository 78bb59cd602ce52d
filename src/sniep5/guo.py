"""Perturbations that move the largest entry and one other in lockstep.

``apply_perturbation`` sends (lam1, lam_i) to (lam1 + s, lam_i +/- s) and
re-sorts.  ``decide_perturbed`` exploits that realizability survives such
perturbations on four closed families, for every size s at once:

1. zero-sum realizable spectra, minus sign;
2. spectra ``classify`` certifies as ``suleimanova``, ``two_positive`` or
   ``direct_sum``, either sign;
3. spectra ``classify`` certifies as ``pattern_a``, minus sign;
4. spectra ``classify`` certifies as ``pattern_b``, minus sign.

Families 2-4 are read from one ``classify`` of the original list.  Anything
else falls back to classifying the perturbed list directly.  The closure
verdicts certify existence only; an explicit matrix is attached exactly
when ``classify`` certifies the perturbed list by one of the two patterns.
"""

from __future__ import annotations

import enum
import math
import operator
from dataclasses import dataclass

from .classify import (
    Certificate,
    RealizabilityDecision,
    Verdict,
    _decided,
    classify,
    classify_trace_zero,
    is_trace_zero,
    realize,
)
from .errors import InvalidSpectrum
from .spectrum import SortedSpectrum, SymMatrix5, _checked_sorted


class Sign(enum.Enum):
    PLUS = "plus"
    MINUS = "minus"


@dataclass(frozen=True, slots=True)
class Perturbation:
    """Move lam1 up by s and lam_i (1-based index, 2..5) by +/- s; s is
    finite and positive."""

    i: int
    sign: Sign
    s: float

    def __post_init__(self):
        try:
            i = operator.index(self.i)  # an int or numpy integer, not 2.0
        except TypeError:
            i = None
        if i not in (2, 3, 4, 5):
            raise ValueError(f"index must be one of 2..5, got {self.i}")
        object.__setattr__(self, "i", i)
        sign = self.sign if isinstance(self.sign, Sign) else Sign(self.sign)
        object.__setattr__(self, "sign", sign)
        s = float(self.s)
        if not (math.isfinite(s) and s > 0.0):
            raise ValueError(
                f"perturbation size must be finite and positive, got {s}"
            )
        object.__setattr__(self, "s", s)


class ClosureRule(enum.Enum):
    TRACE_ZERO = "trace_zero_closure"
    KNOWN_REGION = "known_region_closure"
    PATTERN_A = "pattern_a_closure"
    PATTERN_B = "pattern_b_closure"
    DIRECT = "direct"


# the closure rule behind each certificate of the original list; only the
# known-region closure also holds for plus moves
_CLOSURES = {
    Certificate.SULEIMANOVA: ClosureRule.KNOWN_REGION,
    Certificate.TWO_POSITIVE: ClosureRule.KNOWN_REGION,
    Certificate.DIRECT_SUM: ClosureRule.KNOWN_REGION,
    Certificate.PATTERN_A: ClosureRule.PATTERN_A,
    Certificate.PATTERN_B: ClosureRule.PATTERN_B,
}


@dataclass(frozen=True, slots=True)
class PerturbedDecision:
    decision: RealizabilityDecision
    rule: ClosureRule
    perturbed: SortedSpectrum
    matrix: SymMatrix5 | None

    def to_json_dict(self) -> dict:
        out = {"rule": self.rule.value}
        out.update(self.decision.to_json_dict())
        out["perturbed"] = list(self.perturbed.values)
        if self.matrix is not None:
            out["matrix"] = [list(row) for row in self.matrix.entries]
        return out


def apply_perturbation(s: SortedSpectrum, p: Perturbation) -> SortedSpectrum:
    vals = list(s.values)
    vals[0] += p.s
    vals[p.i - 1] += p.s if p.sign is Sign.PLUS else -p.s
    if not all(map(math.isfinite, vals)):
        raise InvalidSpectrum(f"non-finite entry in {tuple(vals)}")
    vals.sort(reverse=True)
    return _checked_sorted(tuple(vals))


def decide_perturbed(s: SortedSpectrum, p: Perturbation) -> PerturbedDecision:
    """Decide realizability of the perturbed spectrum; first rule that fires wins."""
    perturbed = apply_perturbation(s, p)
    minus = p.sign is Sign.MINUS

    if (
        minus
        and s.lam5 >= -s.lam1
        and is_trace_zero(s)
        and classify_trace_zero(s).verdict is Verdict.REALIZABLE
    ):
        rule = ClosureRule.TRACE_ZERO
    else:
        rule = _CLOSURES.get(classify(s).certificate)
        if not minus and rule is not ClosureRule.KNOWN_REGION:
            rule = None

    direct = classify(perturbed)
    matrix = realize(perturbed, direct)
    if rule is None:
        return PerturbedDecision(direct, ClosureRule.DIRECT, perturbed, matrix)
    decision = _decided(
        Verdict.REALIZABLE, Certificate.GUO_CLOSURE, None, direct.details
    )
    return PerturbedDecision(decision, rule, perturbed, matrix)
