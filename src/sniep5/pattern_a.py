"""The five-cycle construction: scalar invariants u, v, w, r and the matrix.

For a descending spectrum sigma the four scalars, evaluated once and
stored on it as ``SortedSpectrum.uvwr``, are

    u = -e2 - lam2^2 - lam5^2
    v = -(lam3+lam5)(lam4+lam5)(lam2+lam4)(lam2+lam3)(lam1+lam2)(lam1+lam5)
    w = lam2*lam5*e1 - lam1*lam3*lam4
    r = e3 + e1*(lam2^2 + lam5^2)

When the gate in :func:`pattern_a_conditions` passes, the sparse symmetric
matrix assembled in :func:`pattern_a_entries` is entrywise nonnegative and
has sigma as its spectrum.  Both are taken at unit scale (the entries are
homogeneous of degree 1), where v, of degree 6, cannot overflow.  The
gate and the builder decide the same four bools, the shared region checks
then r >= 0, under one names tuple; the builder builds a report only to
name the checks a failing list fails.
"""

from __future__ import annotations

import math

from .errors import DegenerateU, NegativeRadicand
from .spectrum import (
    _REGION_NAMES,
    ConditionReport,
    PatternAScalars,
    SortedSpectrum,
    SymMatrix5,
    _built_matrix,
    _region,
    _require,
    _unit_scale,
)

_GATE = (*_REGION_NAMES, "r_nonnegative")


def compute_uvwr(s: SortedSpectrum) -> PatternAScalars:
    """The four scalar invariants of a descending spectrum, stored on it."""
    return s.uvwr


def pattern_a_conditions(s: SortedSpectrum) -> ConditionReport:
    """Gate for the five-cycle construction, decided on ``s`` at unit scale.

    The region checks shared with the two-paths gate, then r >= 0.  All
    four are exact floating comparisons; passing them implies u > 0, v > 0
    and w >= 0, so every square root and division in the matrix assembly
    is well defined and the result is nonnegative.
    """
    s = _unit_scale(s)[0]
    return ConditionReport(tuple(zip(_GATE, (*_region(s), s.uvwr.r >= 0.0))))


def pattern_a_entries(s: SortedSpectrum) -> tuple[tuple[float, ...], ...]:
    """The five rows of the five-cycle matrix, without the nonnegativity gate.

    Useful for checking the characteristic polynomial on spectra outside
    the validity region; the result is real whenever u > 0 and v >= 0, but
    individual entries may then be negative.
    """
    sc = s.uvwr
    if sc.u == 0.0:
        raise DegenerateU("u = 0: the five-cycle matrix is undefined")
    if sc.u < 0.0 or sc.v < 0.0:
        raise NegativeRadicand(f"complex entries at u={sc.u}, v={sc.v}")
    a13 = math.sqrt(sc.u / 2.0)
    a24 = sc.w / sc.u
    a25 = math.sqrt(sc.v) / sc.u
    a35 = sc.r / sc.u
    return (
        (s.elem_syms.e1, 0.0, a13, 0.0, a13),
        (0.0, 0.0, 0.0, a24, a25),
        (a13, 0.0, 0.0, a25, a35),
        (0.0, a24, a25, 0.0, 0.0),
        (a13, a25, a35, 0.0, 0.0),
    )


def build_pattern_a(s: SortedSpectrum) -> SymMatrix5:
    """Construct the realizing five-cycle matrix for a gated spectrum."""
    unit, k = _unit_scale(s)
    sc = unit.uvwr
    if sc.u == 0.0:
        raise DegenerateU("u = 0: the five-cycle matrix is undefined")
    _require("spectrum fails the five-cycle gate", _GATE, (*_region(unit), sc.r >= 0.0))
    if not (sc.u > 0.0 and sc.v >= 0.0 and sc.w >= 0.0):
        raise NegativeRadicand(f"gate passed at u={sc.u}, v={sc.v}, w={sc.w}")
    return _built_matrix(pattern_a_entries(unit), "pattern_a", k)
