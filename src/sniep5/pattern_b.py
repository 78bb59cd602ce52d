"""The two-paths construction: cubic in g, scalars k, l, m, and the matrix.

The free diagonal parameter g must be a root of the cubic

    Q(z) = 2 z^3 - 2 (lam3+lam5) z^2 - (e2 + (lam3-lam5)^2) z
           + e3 + e1 (lam3^2 + lam5^2)

lying in [0, e1/2].  With

    k = g - lam3 - lam5
    l = (g - lam3)(lam5 - g)
    m = -g^2 + e1 g - (e2 + lam3^2 + lam5^2)/2

the sparse symmetric matrix in :func:`pattern_b_entries` realizes the
spectrum whenever the gate in :func:`pattern_b_conditions` passes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import cubic
from .errors import NegativeRadicand, PreconditionViolated
from .spectrum import ConditionReport, SortedSpectrum, SymMatrix5, elem_syms

# slack for deciding whether a computed root sits inside [0, e1/2]; the
# selected g is clamped back into the closed range afterwards
RANGE_SLACK = 1e-12

# a root of Q can carry m slightly past zero; anything this small is noise
M_CLAMP_TOL = 1e-9


@dataclass(frozen=True)
class CubicQ:
    """Coefficients of the diagonal-parameter cubic, leading term first."""

    c3: float
    c2: float
    c1: float
    c0: float

    def __call__(self, z: float) -> float:
        return cubic.evaluate(self.c3, self.c2, self.c1, self.c0, z)

    def residual_bound(self, root: float) -> float:
        return cubic.residual_bound(self.c3, self.c2, self.c1, self.c0, root)


@dataclass(frozen=True)
class PatternBScalars:
    k: float
    l: float
    m: float
    g: float


def q_poly(s: SortedSpectrum) -> CubicQ:
    _, _, l3, _, l5 = s.values
    es = elem_syms(s)
    return CubicQ(
        2.0,
        -2.0 * (l3 + l5),
        -(es.e2 + (l3 - l5) ** 2),
        es.e3 + es.e1 * (l3 * l3 + l5 * l5),
    )


def cubic_real_roots(q: CubicQ) -> tuple[float, ...]:
    """Distinct real roots of the cubic, ascending."""
    return cubic.real_roots(q.c3, q.c2, q.c1, q.c0)


def _admit(s: SortedSpectrum, x: float) -> float | None:
    """x clamped onto [0, e1/2]; None if it lies past the rounding slack."""
    half = 0.5 * elem_syms(s).e1
    slack = RANGE_SLACK * max(1.0, abs(half))
    return min(max(x, 0.0), half) if -slack <= x <= half + slack else None


def find_g(s: SortedSpectrum) -> float | None:
    """The largest real root of Q inside [0, e1/2], or None.

    A computed root within rounding slack of either endpoint is eligible
    and gets clamped onto the closed interval, so the downstream diagonal
    entries g and e1 - 2g never go negative by round-off alone.
    """
    roots = cubic_real_roots(q_poly(s))  # ascending, so the last hit is largest
    hits = [g for g in (_admit(s, root) for root in roots) if g is not None]
    return hits[-1] if hits else None


def compute_klm(s: SortedSpectrum, g: float) -> PatternBScalars:
    """Evaluate the three entry scalars at a given diagonal parameter."""
    _, _, l3, _, l5 = s.values
    es = elem_syms(s)
    k = g - l3 - l5
    l = (g - l3) * (l5 - g)
    m = -g * g + es.e1 * g - 0.5 * (es.e2 + l3 * l3 + l5 * l5)
    return PatternBScalars(k, l, m, g)


def pattern_b_conditions(s: SortedSpectrum) -> ConditionReport:
    """Gate for the two-paths construction.

    Passing implies k > 0, l > 0 and m >= 0 at the selected root, so the
    matrix assembly is well defined and nonnegative.  The report carries
    the selected g whenever one exists.
    """
    l1, _, l3, _, l5 = s.values
    e1 = elem_syms(s).e1
    g = find_g(s)
    checks = (
        ("min_at_least_negated_perron", l5 >= -l1),
        ("trace_nonnegative", e1 >= 0.0),
        ("third_exceeds_trace", l3 > e1),
        ("root_in_range", g is not None),
    )
    return ConditionReport(checks, g=g)


def pattern_b_entries(
    s: SortedSpectrum, g: float, scalars: PatternBScalars | None = None
) -> np.ndarray:
    """Assemble the raw matrix entries without the gate.

    Real only when l >= 0 and m >= 0; entries may still be negative for g
    outside the validity region.
    """
    sc = scalars if scalars is not None else compute_klm(s, g)
    if sc.l < 0.0 or sc.m < 0.0:
        raise NegativeRadicand(f"complex entries at l={sc.l}, m={sc.m}")
    e1 = elem_syms(s).e1
    sl = math.sqrt(sc.l)
    sm = math.sqrt(sc.m)
    mtx = np.zeros((5, 5))
    mtx[0, 0] = g
    mtx[2, 2] = e1 - 2.0 * g
    mtx[3, 3] = g
    mtx[0, 1] = mtx[1, 0] = sl
    mtx[3, 4] = mtx[4, 3] = sl
    mtx[0, 2] = mtx[2, 0] = sm
    mtx[2, 3] = mtx[3, 2] = sm
    mtx[1, 4] = mtx[4, 1] = sc.k
    return mtx


def build_pattern_b(s: SortedSpectrum, g: float) -> SymMatrix5:
    """Construct the realizing two-paths matrix at the diagonal parameter g."""
    l1, _, l3, _, l5 = s.values
    e1 = elem_syms(s).e1
    q = q_poly(s)
    admitted = _admit(s, g)
    checks = (
        ("g_is_a_root", abs(q(g)) <= q.residual_bound(g)),
        ("g_in_range", admitted is not None),
        ("min_at_least_negated_perron", l5 >= -l1),
        ("trace_nonnegative", e1 >= 0.0),
        ("third_exceeds_trace", l3 > e1),
    )
    report = ConditionReport(checks, g=g)
    if not report.passed:
        raise PreconditionViolated(
            f"two-paths gate failed: {', '.join(report.failed)}", report.failed
        )
    g = admitted
    sc = compute_klm(s, g)
    if sc.m < 0.0 and sc.m >= -M_CLAMP_TOL * max(1.0, e1 * e1):
        sc = PatternBScalars(sc.k, sc.l, 0.0, g)
    if sc.l < 0.0 or sc.m < 0.0 or not sc.k > 0.0:
        raise NegativeRadicand(
            f"entry scalars out of range at g={g}: k={sc.k}, l={sc.l}, m={sc.m}"
        )
    return SymMatrix5(pattern_b_entries(s, g, sc), provenance="pattern_b")
