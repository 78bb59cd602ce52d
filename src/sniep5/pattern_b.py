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


def _q_coeffs(s: SortedSpectrum) -> tuple[float, float, float, float]:
    """Q's coefficients c3, c2, c1, c0 as a plain tuple."""
    _, _, l3, _, l5 = s.values
    e1, e2, e3, _, _ = s.elem_syms
    return (
        2.0,
        -2.0 * (l3 + l5),
        -(e2 + (l3 - l5) ** 2),
        e3 + e1 * (l3 * l3 + l5 * l5),
    )


def q_poly(s: SortedSpectrum) -> CubicQ:
    return CubicQ(*_q_coeffs(s))


def _admit(s: SortedSpectrum, roots: tuple[float, ...]) -> float | None:
    """The largest root within rounding slack of [0, e1/2], clamped onto it.

    The roots ascend.  The interval is empty when e1 < 0, and then nothing
    is admitted.
    """
    half = 0.5 * elem_syms(s).e1
    if half < 0.0:
        return None
    slack = RANGE_SLACK * max(1.0, half)
    for x in reversed(roots):
        if -slack <= x <= half + slack:
            return min(max(x, 0.0), half)
    return None


def find_g(s: SortedSpectrum) -> float | None:
    """The largest real root of Q inside [0, e1/2], or None.

    A computed root within rounding slack of either endpoint is eligible
    and gets clamped onto the closed interval, so the downstream diagonal
    entries g and e1 - 2g never go negative by round-off alone.  Q is
    solved only when e1 >= 0.
    """
    if 0.5 * s.elem_syms.e1 < 0.0:
        return None  # the interval is empty, so Q is not solved
    return _admit(s, cubic.real_roots(*_q_coeffs(s)))


def compute_klm(s: SortedSpectrum, g: float) -> PatternBScalars:
    """Evaluate the three entry scalars at a given diagonal parameter."""
    _, _, l3, _, l5 = s.values
    es = elem_syms(s)
    k = g - l3 - l5
    l = (g - l3) * (l5 - g)
    m = -g * g + es.e1 * g - 0.5 * (es.e2 + l3 * l3 + l5 * l5)
    return PatternBScalars(k, l, m, g)


def _region_checks(s: SortedSpectrum) -> tuple[tuple[str, bool], ...]:
    """The gate's checks on the spectrum itself; the builder reuses them."""
    l1, _, l3, _, l5 = s.values
    e1 = elem_syms(s).e1
    return (
        ("min_above_negated_perron", l5 > -l1),
        ("trace_nonnegative", e1 >= 0.0),
        ("third_exceeds_trace", l3 > e1),
    )


def pattern_b_conditions(s: SortedSpectrum) -> ConditionReport:
    """Gate for the two-paths construction.

    Passing implies k > 0, l > 0 and m >= 0 at the selected root, so the
    matrix assembly is well defined and nonnegative.  The report carries
    the selected g whenever one exists.
    """
    g = find_g(s)
    checks = (*_region_checks(s), ("root_in_range", g is not None))
    return ConditionReport(checks, g=g)


def pattern_b_entries(s: SortedSpectrum, g: float) -> tuple[tuple[float, ...], ...]:
    """The five rows of the two-paths matrix, without the gate.

    Real only when l >= 0 and m >= 0, after a slightly negative m is
    clamped to 0; entries may still be negative for g outside the validity
    region.
    """
    sc = compute_klm(s, g)
    e1 = elem_syms(s).e1
    m = 0.0 if -M_CLAMP_TOL * max(1.0, e1 * e1) <= sc.m < 0.0 else sc.m
    if sc.l < 0.0 or m < 0.0:
        raise NegativeRadicand(f"complex entries at l={sc.l}, m={m}")
    sl = math.sqrt(sc.l)
    sm = math.sqrt(m)
    return (
        (g, sl, sm, 0.0, 0.0),
        (sl, 0.0, 0.0, 0.0, sc.k),
        (sm, 0.0, e1 - 2.0 * g, sm, 0.0),
        (0.0, 0.0, sm, g, sl),
        (0.0, sc.k, 0.0, sl, 0.0),
    )


def build_pattern_b(s: SortedSpectrum, g: float) -> SymMatrix5:
    """Construct the realizing two-paths matrix at the diagonal parameter g."""
    q = q_poly(s)
    admitted = _admit(s, (g,))
    checks = (
        ("g_is_a_root", abs(q(g)) <= q.residual_bound(g)),
        ("g_in_range", admitted is not None),
        *_region_checks(s),
    )
    report = ConditionReport(checks, g=g)
    if not report.passed:
        raise PreconditionViolated(
            f"two-paths gate failed: {', '.join(report.failed)}", report.failed
        )
    g = admitted  # clamped onto [0, e1/2]
    rows = pattern_b_entries(s, g)
    k = rows[1][4]
    if not k > 0.0:
        raise NegativeRadicand(f"entry scalar out of range at g={g}: k={k}")
    return SymMatrix5(rows, provenance="pattern_b")
