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
:func:`compute_klm` gives (k, l, m) as a plain tuple.  The gate is the
five-cycle gate's region checks, in its order, then ``root_in_range``; the
builder checks ``g_is_a_root`` and ``g_in_range`` and then the same region
checks, and builds a report only to name the checks a call fails.  A g
whose residual or residual bound overflows is not a root.  ``find_g``, the
gate and the builder work at unit scale, then scale back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import cubic
from .errors import NegativeRadicand
from .spectrum import (
    _REGION_NAMES,
    ConditionReport,
    SortedSpectrum,
    SymMatrix5,
    _built_matrix,
    _region,
    _require,
    _unit_scale,
)

# slack, at unit scale, for deciding whether a computed root sits inside
# [0, e1/2]; the selected g is clamped back into the closed range afterwards
RANGE_SLACK = 1e-12

# a root of Q can carry m slightly past zero; anything this small is noise
M_CLAMP_TOL = 1e-9

_GATE = (*_REGION_NAMES, "root_in_range")
_BUILD = ("g_is_a_root", "g_in_range", *_REGION_NAMES)


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


def _q_coeffs(s: SortedSpectrum) -> tuple[float, float, float, float]:
    """Q's coefficients c3, c2, c1, c0 as a plain tuple; a coefficient that
    overflows comes out inf or nan, as float products give."""
    _, _, l3, _, l5 = s.values
    e1, e2, e3, _, _ = s.elem_syms
    try:
        sq = (l3 - l5) ** 2
    except OverflowError:  # a float power raises where a product gives inf
        sq = math.inf
    return (
        2.0,
        -2.0 * (l3 + l5),
        -(e2 + sq),
        e3 + e1 * (l3 * l3 + l5 * l5),
    )


def q_poly(s: SortedSpectrum) -> CubicQ:
    return CubicQ(*_q_coeffs(s))


def _admit(s: SortedSpectrum, roots: tuple[float, ...]) -> float | None:
    """The largest root within RANGE_SLACK of [0, e1/2], clamped onto it.

    The roots ascend.  The interval is empty when e1 < 0, and then nothing
    is admitted.
    """
    half = 0.5 * s.elem_syms.e1
    if half < 0.0:
        return None
    for x in reversed(roots):
        if -RANGE_SLACK <= x <= half + RANGE_SLACK:
            return min(max(x, 0.0), half)
    return None


def find_g(s: SortedSpectrum) -> float | None:
    """The largest real root of Q inside [0, e1/2], or None.

    A computed root within rounding slack of either endpoint is eligible
    and gets clamped onto the closed interval, so the downstream diagonal
    entries g and e1 - 2g never go negative by round-off alone.  Q is
    solved only when e1 >= 0, and only when :func:`cubic._keeps_sign`
    cannot rule out a root on the slack-widened window that ``_admit``
    reads: where it rules one out, the solve could admit none, so the
    answer is None with the same bits as the solve's.
    """
    unit, k = _unit_scale(s)
    half = 0.5 * unit.elem_syms.e1
    if half < 0.0:
        return None  # the interval is empty, so Q is not solved
    c = _q_coeffs(unit)
    if cubic._keeps_sign(*c, -RANGE_SLACK, half + RANGE_SLACK):
        return None
    g = _admit(unit, cubic.real_roots(*c))
    return g if g is None else math.ldexp(g, k)


def compute_klm(s: SortedSpectrum, g: float) -> tuple[float, float, float]:
    """The three entry scalars (k, l, m) at a given diagonal parameter."""
    _, _, l3, _, l5 = s.values
    e1, e2, _, _, _ = s.elem_syms
    return (
        g - l3 - l5,
        (g - l3) * (l5 - g),
        -g * g + e1 * g - 0.5 * (e2 + l3 * l3 + l5 * l5),
    )


def pattern_b_conditions(s: SortedSpectrum) -> ConditionReport:
    """Gate for the two-paths construction, decided on ``s`` at unit scale.

    Passing implies k > 0, l > 0 and m >= 0 at the selected root, so the
    matrix assembly is well defined and nonnegative.  The report carries
    the selected g whenever one exists.
    """
    g = find_g(s)
    oks = (*_region(_unit_scale(s)[0]), g is not None)
    return ConditionReport(tuple(zip(_GATE, oks)), g=g)


def pattern_b_entries(s: SortedSpectrum, g: float) -> tuple[tuple[float, ...], ...]:
    """The five rows of the two-paths matrix, without the gate.

    Real only when l >= 0 and m >= 0, after a slightly negative m is
    clamped to 0; entries may still be negative for g outside the validity
    region.
    """
    k, l, m = compute_klm(s, g)
    e1 = s.elem_syms.e1
    if -M_CLAMP_TOL * max(1.0, e1 * e1) <= m < 0.0:
        m = 0.0
    if l < 0.0 or m < 0.0:
        raise NegativeRadicand(f"complex entries at l={l}, m={m}")
    sl = math.sqrt(l)
    sm = math.sqrt(m)
    return (
        (g, sl, sm, 0.0, 0.0),
        (sl, 0.0, 0.0, 0.0, k),
        (sm, 0.0, e1 - 2.0 * g, sm, 0.0),
        (0.0, 0.0, sm, g, sl),
        (0.0, k, 0.0, sl, 0.0),
    )


def build_pattern_b(s: SortedSpectrum, g: float) -> SymMatrix5:
    """Construct the realizing two-paths matrix at the diagonal parameter g."""
    unit, k = _unit_scale(s)
    c = _q_coeffs(unit)
    gu = math.ldexp(g, -k)  # a Python float, so the rows are computed in float64
    admitted = _admit(unit, (gu,))
    try:  # a g whose residual or bound overflows is not a root
        is_root = abs(cubic.evaluate(*c, gu)) <= cubic.residual_bound(*c, gu) < math.inf
    except OverflowError:  # the bound's float power raises where a product gives inf
        is_root = False
    _require("two-paths gate failed", _BUILD,
             (is_root, admitted is not None, *_region(unit)))
    rows = pattern_b_entries(unit, admitted)  # admitted is clamped onto [0, e1/2]
    if not rows[1][4] > 0.0:
        raise NegativeRadicand(f"entry scalar out of range at g={g}: k={rows[1][4]}")
    return _built_matrix(rows, "pattern_b", k)
