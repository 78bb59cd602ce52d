"""Core value types and the basic necessary conditions for realizability.

A *spectrum* here is always a list of five real numbers, the candidate
eigenvalues of a symmetric entrywise-nonnegative 5x5 matrix.  This module
holds the plain containers (:class:`Spectrum`, :class:`SortedSpectrum`,
:class:`ElemSyms`, :class:`PatternAScalars`, :class:`SymMatrix5`,
:class:`ConditionReport`), the elementary symmetric polynomials and the
five-cycle scalars u/v/w/r, and the three cheap necessary conditions every
realizable spectrum must satisfy.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidSpectrum

N = 5


@dataclass(frozen=True)
class Spectrum:
    """Five real eigenvalue candidates, in no particular order."""

    values: tuple[float, float, float, float, float]

    def __post_init__(self):
        try:
            vals = tuple(float(v) for v in self.values)
        except (TypeError, ValueError) as exc:
            raise InvalidSpectrum(f"non-numeric entry in {self.values!r}") from exc
        if len(vals) != N:
            raise InvalidSpectrum(f"expected {N} values, got {len(vals)}")
        if not all(math.isfinite(v) for v in vals):
            raise InvalidSpectrum(f"non-finite entry in {vals}")
        object.__setattr__(self, "values", vals)

    @classmethod
    def of(cls, *values) -> "Spectrum":
        return cls(tuple(values))

    def __iter__(self):
        return iter(self.values)

    @cached_property
    def elem_syms(self) -> ElemSyms:
        """e1..e5, expanded on first use and then stored on this value."""
        coeffs = [1.0]
        for lam in sorted(self.values, reverse=True):
            nxt = [0.0] * (len(coeffs) + 1)
            for i, c in enumerate(coeffs):
                nxt[i] += c
                nxt[i + 1] -= c * lam
            coeffs = nxt
        return ElemSyms(-coeffs[1], coeffs[2], -coeffs[3], coeffs[4], -coeffs[5])


@dataclass(frozen=True)
class SortedSpectrum(Spectrum):
    """A spectrum known to be in descending order."""

    def __post_init__(self):
        super().__post_init__()
        v = self.values
        if any(v[i] < v[i + 1] for i in range(N - 1)):
            raise InvalidSpectrum(f"not in descending order: {v}")

    @property
    def lam1(self):
        return self.values[0]

    @property
    def lam2(self):
        return self.values[1]

    @property
    def lam3(self):
        return self.values[2]

    @property
    def lam4(self):
        return self.values[3]

    @property
    def lam5(self):
        return self.values[4]

    @cached_property
    def uvwr(self) -> PatternAScalars:
        """The five-cycle scalars u, v, w, r, evaluated on first use and stored."""
        l1, l2, l3, l4, l5 = self.values
        es = self.elem_syms
        u = -es.e2 - l2 * l2 - l5 * l5
        v = -(
            (l3 + l5) * (l4 + l5) * (l2 + l4) * (l2 + l3) * (l1 + l2) * (l1 + l5)
        )
        w = l2 * l5 * es.e1 - l1 * l3 * l4
        r = es.e3 + es.e1 * (l2 * l2 + l5 * l5)
        return PatternAScalars(u, v, w, r)


@dataclass(frozen=True)
class ElemSyms:
    """The five elementary symmetric polynomials e1..e5 of a spectrum."""

    e1: float
    e2: float
    e3: float
    e4: float
    e5: float

    def as_tuple(self):
        return (self.e1, self.e2, self.e3, self.e4, self.e5)


@dataclass(frozen=True)
class PatternAScalars:
    """The scalars u, v, w, r that drive the five-cycle construction."""

    u: float
    v: float
    w: float
    r: float


def parse_spectrum(text: str) -> Spectrum:
    """Parse a comma-separated 5-tuple such as ``"1000,381,360,-641,-750"``.

    Decimal and scientific notation are accepted; whitespace around the
    separators is ignored.
    """
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != N:
        raise InvalidSpectrum(f"expected {N} comma-separated values, got {len(parts)}")
    try:
        vals = tuple(float(p) for p in parts)
    except ValueError as exc:
        raise InvalidSpectrum(f"could not parse {text!r}: {exc}") from exc
    return Spectrum(vals)


def sort_descending(s: Spectrum) -> SortedSpectrum:
    """Return the spectrum reordered largest first.

    The sort is stable, so entries that compare equal keep their relative
    input order.
    """
    return SortedSpectrum(tuple(sorted(s.values, reverse=True)))


def elem_syms(s: Spectrum) -> ElemSyms:
    """Elementary symmetric polynomials via iterated polynomial multiplication.

    The product prod(z - lam_i) is expanded one linear factor at a time and
    the coefficients are read off with alternating signs.  The entries are
    canonically ordered (descending) before expanding, so the result is
    bit-for-bit independent of the input order; each value computes it once.
    """
    return s.elem_syms


def scale(s: Spectrum, alpha: float) -> Spectrum:
    """Multiply every entry by ``alpha``; requires ``alpha > 0``.

    A positive factor keeps descending order, so a sorted input comes back
    sorted and can go straight into the deciders.
    """
    alpha = float(alpha)
    if not math.isfinite(alpha) or alpha <= 0.0:
        raise InvalidSpectrum(f"scale factor must be positive, got {alpha}")
    return type(s)(tuple(alpha * v for v in s.values))


def check_pf(s: SortedSpectrum) -> bool:
    """Largest entry dominates: lam1 >= |lam_i| for every i.

    Given the descending order this reduces to lam1 >= 0 and lam1 >= -lam5.
    """
    return s.lam1 >= 0.0 and s.lam1 >= -s.lam5


def check_trace(s: Spectrum) -> bool:
    """Nonnegative sum.

    Evaluated as e1 from :func:`elem_syms` so this test can never disagree
    with the e1-based gates used elsewhere in the package.
    """
    return elem_syms(s).e1 >= 0.0


def check_mn(s: SortedSpectrum) -> bool:
    """The partial sum lam1 + lam3 + lam4 is nonnegative."""
    return s.lam1 + s.lam3 + s.lam4 >= 0.0


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of a bundle of named condition checks.

    ``g`` carries the selected in-range cubic root for the two-paths pattern;
    it is ``None`` everywhere else.
    """

    checks: tuple[tuple[str, bool], ...]
    g: float | None = None

    @property
    def passed(self) -> bool:
        return all(ok for _, ok in self.checks)

    @property
    def failed(self) -> tuple[str, ...]:
        return tuple(name for name, ok in self.checks if not ok)

    def __bool__(self) -> bool:
        return self.passed


_PATTERN_PROVENANCE = ("pattern_a", "pattern_b")


@dataclass(frozen=True, eq=False)
class SymMatrix5:
    """A 5x5 exactly-symmetric real matrix with a construction tag.

    ``provenance`` is ``"pattern_a"`` or ``"pattern_b"`` for matrices built
    by the two constructors in this package (those are guaranteed entrywise
    nonnegative) and ``"external"`` for anything read from outside.

    ``entries`` is a private read-only copy, so ``sym_eigenvalues`` can store
    its result on the matrix without it ever going stale.
    """

    entries: np.ndarray
    provenance: str = "external"

    def __post_init__(self):
        arr = np.array(self.entries, dtype=float)
        if arr.shape != (N, N):
            raise ValueError(f"expected a {N}x{N} matrix, got shape {arr.shape}")
        if not np.isfinite(arr).all():
            raise ValueError("matrix has non-finite entries")
        if (arr != arr.T).any():
            raise ValueError("matrix is not exactly symmetric")
        if self.provenance in _PATTERN_PROVENANCE and (arr < 0).any():
            raise ValueError(
                f"{self.provenance} matrices must be entrywise nonnegative"
            )
        arr.flags.writeable = False
        object.__setattr__(self, "entries", arr)

    def __array__(self, dtype=None, copy=None):
        if dtype is not None:
            return np.array(self.entries, dtype=dtype)
        return np.array(self.entries)

    def format_text(self) -> str:
        """Five rows of five space-separated decimals, 17 significant digits."""
        return "\n".join(
            " ".join(f"{x:.17g}" for x in row) for row in self.entries
        )

    def format_json(self) -> str:
        """JSON array-of-arrays with 17 significant digits."""
        rows = ",".join(
            "[" + ",".join(f"{x:.17g}" for x in row) + "]" for row in self.entries
        )
        return "[" + rows + "]"

    @classmethod
    def parse(cls, text: str, provenance: str = "external") -> "SymMatrix5":
        """Read a matrix in either serialized form (text table or JSON)."""
        stripped = text.strip()
        if stripped.startswith("["):
            rows = json.loads(stripped)
        else:
            rows = [
                [float(x) for x in re.split(r"[,\s]+", line.strip()) if x]
                for line in stripped.splitlines()
                if line.strip()
            ]
        # 17 significant digits round-trip doubles exactly, so output from
        # format_text/format_json reconstructs bit-identically
        return cls(np.array(rows, dtype=float), provenance=provenance)
