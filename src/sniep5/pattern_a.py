"""The five-cycle construction: scalar invariants u, v, w, r and the matrix.

For a descending spectrum sigma the four scalars are

    u = -e2 - lam2^2 - lam5^2
    v = -(lam3+lam5)(lam4+lam5)(lam2+lam4)(lam2+lam3)(lam1+lam2)(lam1+lam5)
    w = lam2*lam5*e1 - lam1*lam3*lam4
    r = e3 + e1*(lam2^2 + lam5^2)

When the gate in :func:`pattern_a_conditions` passes, the sparse symmetric
matrix assembled in :func:`pattern_a_entries` is entrywise nonnegative and
has sigma as its spectrum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateU, NegativeRadicand, PreconditionViolated
from .spectrum import (
    ConditionReport,
    SortedSpectrum,
    SymMatrix5,
    elem_syms,
)


@dataclass(frozen=True)
class PatternAScalars:
    u: float
    v: float
    w: float
    r: float


def compute_uvwr(s: SortedSpectrum) -> PatternAScalars:
    """Evaluate the four scalar invariants of a descending spectrum."""
    l1, l2, l3, l4, l5 = s.values
    es = elem_syms(s)
    u = -es.e2 - l2 * l2 - l5 * l5
    v = -(
        (l3 + l5) * (l4 + l5) * (l2 + l4) * (l2 + l3) * (l1 + l2) * (l1 + l5)
    )
    w = l2 * l5 * es.e1 - l1 * l3 * l4
    r = es.e3 + es.e1 * (l2 * l2 + l5 * l5)
    return PatternAScalars(u, v, w, r)


def pattern_a_conditions(s: SortedSpectrum) -> ConditionReport:
    """Gate for the five-cycle construction.

    All four checks are exact floating comparisons; passing them implies
    u > 0, v > 0 and w >= 0, so every square root and division in the
    matrix assembly is well defined and the result is nonnegative.
    """
    l1, _, l3, _, l5 = s.values
    e1 = elem_syms(s).e1
    r = compute_uvwr(s).r
    checks = (
        ("trace_nonnegative", e1 >= 0.0),
        ("min_above_negated_perron", l5 > -l1),
        ("third_exceeds_trace", l3 > e1),
        ("r_nonnegative", r >= 0.0),
    )
    return ConditionReport(checks)


def pattern_a_entries(s: SortedSpectrum, scalars: PatternAScalars | None = None) -> np.ndarray:
    """Assemble the raw matrix entries without the nonnegativity gate.

    Useful for checking the characteristic polynomial on spectra outside
    the validity region; the result is real whenever u > 0 and v >= 0, but
    individual entries may then be negative.
    """
    sc = scalars if scalars is not None else compute_uvwr(s)
    if sc.u == 0.0:
        raise DegenerateU("u = 0: the five-cycle matrix is undefined")
    if sc.u < 0.0 or sc.v < 0.0:
        raise NegativeRadicand(f"complex entries at u={sc.u}, v={sc.v}")
    a13 = math.sqrt(sc.u / 2.0)
    a24 = sc.w / sc.u
    a25 = math.sqrt(sc.v) / sc.u
    a35 = sc.r / sc.u
    m = np.zeros((5, 5))
    m[0, 0] = elem_syms(s).e1
    m[0, 2] = m[2, 0] = a13
    m[0, 4] = m[4, 0] = a13
    m[1, 3] = m[3, 1] = a24
    m[1, 4] = m[4, 1] = a25
    m[2, 3] = m[3, 2] = a25
    m[2, 4] = m[4, 2] = a35
    return m


def build_pattern_a(s: SortedSpectrum) -> SymMatrix5:
    """Construct the realizing five-cycle matrix for a gated spectrum."""
    sc = compute_uvwr(s)
    if sc.u == 0.0:
        raise DegenerateU("u = 0: the five-cycle matrix is undefined")
    report = pattern_a_conditions(s)
    if not report.passed:
        raise PreconditionViolated(
            f"spectrum fails the five-cycle gate: {', '.join(report.failed)}",
            report.failed,
        )
    if not (sc.u > 0.0 and sc.v >= 0.0 and sc.w >= 0.0):
        raise NegativeRadicand(f"gate passed at u={sc.u}, v={sc.v}, w={sc.w}")
    return SymMatrix5(pattern_a_entries(s, sc), provenance="pattern_a")
