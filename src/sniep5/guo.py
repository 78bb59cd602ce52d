"""Perturbations that move the largest entry and one other in lockstep.

``apply_perturbation`` sends (lam1, lam_i) to (lam1 + s, lam_i +/- s) and
re-sorts.  ``decide_perturbed`` exploits that realizability survives such
perturbations on four closed families, for every size s at once:

1. zero-sum realizable spectra, minus sign;
2. spectra realizable with lam3 <= e1, either sign;
3. spectra passing the five-cycle gate, minus sign;
4. spectra passing the two-paths gate with r < 0, minus sign.

Anything else falls back to classifying the perturbed list directly.  The
closure verdicts certify existence only; an explicit matrix is attached
exactly when ``classify`` certifies the perturbed list by one of the two
patterns.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .classify import (
    Certificate,
    RealizabilityDecision,
    Verdict,
    classify,
    classify_trace_zero,
    is_trace_zero,
    realize,
)
from .pattern_a import compute_uvwr, pattern_a_conditions
from .pattern_b import pattern_b_conditions
from .spectrum import SortedSpectrum, SymMatrix5, elem_syms, sort_descending, Spectrum


class Sign(enum.Enum):
    PLUS = "plus"
    MINUS = "minus"


@dataclass(frozen=True)
class Perturbation:
    """Move lam1 up by s and lam_i (1-based index, 2..5) by +/- s."""

    i: int
    sign: Sign
    s: float

    def __post_init__(self):
        if self.i not in (2, 3, 4, 5):
            raise ValueError(f"index must be one of 2..5, got {self.i}")
        sign = self.sign if isinstance(self.sign, Sign) else Sign(self.sign)
        object.__setattr__(self, "sign", sign)
        s = float(self.s)
        if not s > 0.0:
            raise ValueError(f"perturbation size must be positive, got {s}")
        object.__setattr__(self, "s", s)


class ClosureRule(enum.Enum):
    TRACE_ZERO = "trace_zero_closure"
    KNOWN_REGION = "known_region_closure"
    PATTERN_A = "pattern_a_closure"
    PATTERN_B = "pattern_b_closure"
    DIRECT = "direct"


@dataclass(frozen=True)
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
    return sort_descending(Spectrum(tuple(vals)))


def decide_perturbed(s: SortedSpectrum, p: Perturbation) -> PerturbedDecision:
    """Decide realizability of the perturbed spectrum; first rule that fires wins."""
    perturbed = apply_perturbation(s, p)
    minus = p.sign is Sign.MINUS

    rule = None
    if (
        minus
        and s.lam5 >= -s.lam1
        and is_trace_zero(s)
        and classify_trace_zero(s).verdict is Verdict.REALIZABLE
    ):
        rule = ClosureRule.TRACE_ZERO
    if rule is None and s.lam3 <= elem_syms(s).e1:
        if classify(s).verdict is Verdict.REALIZABLE:
            rule = ClosureRule.KNOWN_REGION
    if rule is None and minus and pattern_a_conditions(s).passed:
        rule = ClosureRule.PATTERN_A
    if rule is None and minus:
        if pattern_b_conditions(s).passed and compute_uvwr(s).r < 0.0:
            rule = ClosureRule.PATTERN_B

    direct = classify(perturbed)
    matrix = realize(perturbed, direct)
    if rule is None:
        return PerturbedDecision(direct, ClosureRule.DIRECT, perturbed, matrix)
    decision = RealizabilityDecision(
        Verdict.REALIZABLE,
        certificate=Certificate.GUO_CLOSURE,
        details=direct.details,
    )
    return PerturbedDecision(decision, rule, perturbed, matrix)
