"""Perturbations that move the largest entry and one other in lockstep.

``apply_perturbation`` sends (lam1, lam_i) to (lam1 + s, lam_i +/- s) and
re-sorts.  ``decide_perturbed`` exploits that realizability survives such
perturbations on four closed families, for every size s at once:

1. spectra ``classify_trace_zero`` certifies as ``trace_zero``, minus sign;
2. spectra ``classify`` certifies as ``suleimanova``, ``two_positive`` or
   ``direct_sum``, either sign;
3. spectra ``classify`` certifies as ``pattern_a``, minus sign;
4. spectra ``classify`` certifies as ``pattern_b``, minus sign.

The family is read from one decision of the original list, looked up in one
table, ``_CLOSURES``: ``classify_trace_zero`` for a minus move (it is
``classify`` off the zero-sum face), ``classify`` for a plus move, which
keeps only the known-region row.  Anything else falls back to classifying
the perturbed list directly.  The closure verdicts certify existence only;
an explicit matrix is attached exactly when ``classify`` certifies the
perturbed list by one of the two patterns.
"""

from __future__ import annotations

import enum
import math
import operator
from dataclasses import dataclass

from .classify import (
    _IS_GUO_CLOSURE,
    Certificate,
    RealizabilityDecision,
    _decided,
    _new,
    classify,
    classify_trace_zero,
    realize,
)
from .errors import InvalidSpectrum
from .spectrum import _TEXT, SortedSpectrum, SymMatrix5, _checked_sorted, _unsorted


class Sign(enum.Enum):
    PLUS = "plus"
    MINUS = "minus"


@dataclass(frozen=True, slots=True, init=False)
class Perturbation:
    """Move lam1 up by s and lam_i (1-based index, 2..5) by +/- s; s is
    finite and positive, and not text.  The index is checked first, then the
    sign, then the size; a refused text index or text size is named by its
    repr."""

    i: int
    sign: Sign
    s: float

    def __init__(self, i, sign, s):
        try:
            index = operator.index(i)  # an int or numpy integer, not 2.0
        except TypeError:
            index = None
        if index not in (2, 3, 4, 5):
            shown = repr(i) if isinstance(i, _TEXT) else i
            raise ValueError(f"index must be one of 2..5, got {shown}")
        if not isinstance(sign, Sign):
            sign = Sign(sign)
        if isinstance(s, _TEXT):
            raise ValueError(f"perturbation size {s!r} is text, not a number")
        s = float(s)
        if not (math.isfinite(s) and s > 0.0):
            raise ValueError(
                f"perturbation size must be finite and positive, got {s}"
            )
        _set_i(self, index)
        _set_sign(self, sign)
        _set_s(self, s)


class ClosureRule(enum.Enum):
    TRACE_ZERO = "trace_zero_closure"
    KNOWN_REGION = "known_region_closure"
    PATTERN_A = "pattern_a_closure"
    PATTERN_B = "pattern_b_closure"
    DIRECT = "direct"


# the closure rule behind each certificate of the original list; only the
# known-region closure also holds for plus moves
_CLOSURES = {
    Certificate.TRACE_ZERO: ClosureRule.TRACE_ZERO,
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


# slot setters, bound once; each gets past the frozen __setattr__
_set_i = Perturbation.i.__set__
_set_sign = Perturbation.sign.__set__
_set_s = Perturbation.s.__set__
_set_decision = PerturbedDecision.decision.__set__
_set_rule = PerturbedDecision.rule.__set__
_set_perturbed = PerturbedDecision.perturbed.__set__
_set_matrix = PerturbedDecision.matrix.__set__

# the members that function bodies read, bound once (see classify.py)
_PLUS = Sign.PLUS
_MINUS = Sign.MINUS
_KNOWN_REGION = ClosureRule.KNOWN_REGION
_DIRECT = ClosureRule.DIRECT


def apply_perturbation(s: SortedSpectrum, p: Perturbation) -> SortedSpectrum:
    if not isinstance(s, SortedSpectrum):
        raise _unsorted(s)
    vals = list(s.values)
    i = p.i - 1
    vals[0] += p.s
    vals[i] += p.s if p.sign is _PLUS else -p.s
    # only the two moved entries can overflow: a SortedSpectrum's are finite
    if not (math.isfinite(vals[0]) and math.isfinite(vals[i])):
        raise InvalidSpectrum(f"non-finite entry in {tuple(vals)}")
    vals.sort(reverse=True)
    return _checked_sorted(tuple(vals))


def decide_perturbed(s: SortedSpectrum, p: Perturbation) -> PerturbedDecision:
    """Decide realizability of the perturbed spectrum; the closure rule is
    read from one decision of the original list."""
    perturbed = apply_perturbation(s, p)
    minus = p.sign is _MINUS
    rule = _CLOSURES.get((classify_trace_zero if minus else classify)(s).certificate)
    if not minus and rule is not _KNOWN_REGION:
        rule = None

    direct = classify(perturbed)
    out = _new(PerturbedDecision)
    if rule is None:
        _set_decision(out, direct)
        _set_rule(out, _DIRECT)
    else:
        _set_decision(out, _decided(_IS_GUO_CLOSURE, perturbed))
        _set_rule(out, rule)
    _set_perturbed(out, perturbed)
    _set_matrix(out, realize(perturbed, direct))
    return out
