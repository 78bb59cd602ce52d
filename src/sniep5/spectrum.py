"""Core value types: spectra, their stored invariants, and matrices.

A *spectrum* here is always a list of five real numbers, the candidate
eigenvalues of a symmetric entrywise-nonnegative 5x5 matrix.  This module
holds the plain containers (:class:`Spectrum`, :class:`SortedSpectrum`,
:class:`ElemSyms`, :class:`PatternAScalars`, :class:`SymMatrix5`,
:class:`ConditionReport`), the elementary symmetric polynomials and the
five-cycle scalars u/v/w/r.  It also holds, once, what both pattern modules
share: the region checks (``_region``, named by ``_REGION_NAMES``), the
failure naming of a builder (``_require``), the step to unit scale
(``_unit_scale``, which refuses an unsorted list) and the scale-back of the
built rows (``_built_matrix``).

``Spectrum`` converts, checks and stores its values in one step, in a
hand-written ``__init__``.  It computes e1..e5 (and a sorted one u/v/w/r)
on first read and stores them in its instance dict with
``object.__setattr__``, so it is not slotted.  The expansion is written
out factor by factor, so each e_k comes out bit-identical to the loop
``nxt[i] += c; nxt[i + 1] -= c * lam`` over the descending entries.  ``ElemSyms`` and ``PatternAScalars`` are
``NamedTuple``s and so compare equal to plain tuples.  They are built with
``tuple.__new__(cls, values)``, which gives the same value without the
Python-level ``__new__`` that ``NamedTuple`` generates.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InvalidSpectrum, PreconditionViolated

N = 5

# values that iterate as characters or byte codes, not as five numbers
_TEXT = (str, bytes, bytearray)


class _stored:
    """A method run on first read whose result is stored on the instance
    under the method's name, where every later read finds it.

    The store goes through ``object.__setattr__``, which gets past a frozen
    dataclass and, unlike a write into ``__dict__``, keeps the compact
    instance layout.  ``functools.cached_property`` writes into ``__dict__``
    and takes a lock on every first read before Python 3.12.
    """

    def __init__(self, func):
        self.func = func
        self.name = func.__name__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = self.func(obj)
        object.__setattr__(obj, self.name, value)
        return value


def _expand(a: float, b: float, c: float, d: float, e: float) -> ElemSyms:
    """e1..e5 of a, b, c, d, e (descending) from prod(z - lam), one factor at a time.

    Each step is the loop ``nxt[i] += c; nxt[i + 1] -= c * lam`` written out:
    ``0.0 - x`` is kept because it is not ``-x`` when x is a signed zero, and
    the leading coefficient stays exactly 1.0.
    """
    p1 = 0.0 - a
    q1 = (0.0 - b) + p1
    q2 = 0.0 - p1 * b
    r1 = (0.0 - c) + q1
    r2 = (0.0 - q1 * c) + q2
    r3 = 0.0 - q2 * c
    s1 = (0.0 - d) + r1
    s2 = (0.0 - r1 * d) + r2
    s3 = (0.0 - r2 * d) + r3
    s4 = 0.0 - r3 * d
    return tuple.__new__(ElemSyms, (
        -((0.0 - e) + s1),
        (0.0 - s1 * e) + s2,
        -((0.0 - s2 * e) + s3),
        (0.0 - s3 * e) + s4,
        -(0.0 - s4 * e),
    ))


@dataclass(frozen=True, init=False)
class Spectrum:
    """Five real eigenvalue candidates, in no particular order."""

    values: tuple[float, float, float, float, float]

    def __init__(self, values):
        if isinstance(values, _TEXT):
            raise InvalidSpectrum(f"values {values!r} are text, not numbers")
        try:
            vals = tuple(map(float, values))
        except (TypeError, ValueError) as exc:
            raise InvalidSpectrum(f"non-numeric entry in {values!r}") from exc
        if len(vals) != N:
            raise InvalidSpectrum(f"expected {N} values, got {len(vals)}")
        if not all(map(math.isfinite, vals)):
            raise InvalidSpectrum(f"non-finite entry in {vals}")
        object.__setattr__(self, "values", vals)

    @classmethod
    def of(cls, *values) -> "Spectrum":
        return cls(tuple(values))

    def __iter__(self):
        return iter(self.values)

    @_stored
    def elem_syms(self) -> ElemSyms:
        """e1..e5 of the entries taken in descending order, stored on first read."""
        return _expand(*sorted(self.values, reverse=True))


@dataclass(frozen=True, init=False)
class SortedSpectrum(Spectrum):
    """A spectrum known to be in descending order."""

    def __init__(self, values):
        Spectrum.__init__(self, values)
        a, b, c, d, e = v = self.values
        if not a >= b >= c >= d >= e:
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

    @_stored
    def elem_syms(self) -> ElemSyms:
        """e1..e5, stored on first read; the entries are already descending."""
        return _expand(*self.values)

    @_stored
    def uvwr(self) -> PatternAScalars:
        """The five-cycle scalars u, v, w, r, stored on first read."""
        l1, l2, l3, l4, l5 = self.values
        e1, e2, e3, _, _ = self.elem_syms
        u = -e2 - l2 * l2 - l5 * l5
        v = -(
            (l3 + l5) * (l4 + l5) * (l2 + l4) * (l2 + l3) * (l1 + l2) * (l1 + l5)
        )
        w = l2 * l5 * e1 - l1 * l3 * l4
        r = e3 + e1 * (l2 * l2 + l5 * l5)
        return tuple.__new__(PatternAScalars, (u, v, w, r))


class ElemSyms(NamedTuple):
    """The five elementary symmetric polynomials e1..e5 of a spectrum."""

    e1: float
    e2: float
    e3: float
    e4: float
    e5: float

    def as_tuple(self):
        return tuple(self)


class PatternAScalars(NamedTuple):
    """The scalars u, v, w, r that drive the five-cycle construction."""

    u: float
    v: float
    w: float
    r: float


def parse_spectrum(text: str) -> Spectrum:
    """Parse a comma-separated 5-tuple such as ``"1000,381,360,-641,-750"``.

    Decimal and scientific notation are accepted; whitespace around the
    separators is ignored.  The parts are converted and checked once, by
    :class:`Spectrum`.
    """
    parts = text.split(",")
    if len(parts) != N:
        raise InvalidSpectrum(f"expected {N} comma-separated values, got {len(parts)}")
    return Spectrum(tuple(parts))


def sort_descending(s: Spectrum) -> SortedSpectrum:
    """Return the spectrum reordered largest first.

    The sort is stable, so entries that compare equal keep their relative
    input order.
    """
    return _checked_sorted(tuple(sorted(s.values, reverse=True)))


def _checked_sorted(values: tuple) -> SortedSpectrum:
    """A ``SortedSpectrum`` of ``values`` without a second validation pass.

    Only for values already known to be five finite floats in descending
    order, such as a checked ``Spectrum``'s values sorted largest first.
    """
    out = object.__new__(SortedSpectrum)
    object.__setattr__(out, "values", values)
    return out


def _unsorted(s) -> TypeError:
    """The error for a list that is not a ``SortedSpectrum``: read in place,
    its first and last entries need not be lam1 and lam5."""
    return TypeError(
        f"expected a SortedSpectrum (see sort_descending), got {type(s).__name__}")


def _unit_scale(s: SortedSpectrum) -> tuple[SortedSpectrum, int]:
    """``s`` times 2**-k with max|lam_i| = max(lam1, -lam5) in [1, 2), and k;
    exact short of underflow.  A list already in [1, 2) comes back as itself.

    ``find_g``, both gates and both builders take their list through here, so
    this one check refuses an unsorted ``Spectrum`` for all of them.
    """
    if not isinstance(s, SortedSpectrum):
        raise _unsorted(s)
    l1, _, _, _, l5 = values = s.values
    if 1.0 <= l1 < 2.0 and l5 > -2.0:
        return s, 0
    k = math.frexp(max(l1, -l5))[1] - 1
    return (_checked_sorted(tuple(math.ldexp(x, -k) for x in values)) if k else s), k


def _built_matrix(rows: tuple, provenance: str, k: int = 0) -> SymMatrix5:
    """A ``SymMatrix5`` of builder rows times 2**k without the generic checks.

    Only for five 5-tuples of Python floats that are exactly symmetric by
    construction, as ``pattern_a_entries`` and ``pattern_b_entries`` write
    them, so the conversion, shape and symmetry checks have nothing to
    find.  The two checks such rows can still fail stay, with the public
    constructor's messages: an overflowed scalar gives a non-finite entry,
    and a negative entry refutes the ``provenance`` tag.
    """
    if k:
        rows = tuple(tuple(math.ldexp(x, k) for x in row) for row in rows)
    r0, r1, r2, r3, r4 = rows
    flat = (*r0, *r1, *r2, *r3, *r4)
    if not all(map(math.isfinite, flat)):
        raise ValueError("matrix has non-finite entries")
    if min(flat) < 0.0:
        raise ValueError(f"{provenance} matrix has a negative entry")
    out = object.__new__(SymMatrix5)
    object.__setattr__(out, "entries", rows)
    object.__setattr__(out, "provenance", provenance)
    return out


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


@dataclass(frozen=True, slots=True)
class ConditionReport:
    """Outcome of a bundle of named condition checks.

    ``g`` carries the selected in-range cubic root for the two-paths pattern;
    it is ``None`` everywhere else.
    """

    checks: tuple[tuple[str, bool], ...]
    g: float | None = None

    @property
    def passed(self) -> bool:
        # a plain loop: all() over a generator costs a frame per call
        for _, ok in self.checks:
            if not ok:
                return False
        return True

    @property
    def failed(self) -> tuple[str, ...]:
        return tuple(name for name, ok in self.checks if not ok)

    def __bool__(self) -> bool:
        return self.passed


# the names of the region checks both pattern gates and both builders share,
# in the order _region gives them
_REGION_NAMES = ("min_above_negated_perron", "trace_nonnegative", "third_exceeds_trace")


def _region(s: SortedSpectrum) -> tuple[bool, bool, bool]:
    """The region checks of ``s``: lam5 > -lam1, e1 >= 0 and lam3 > e1."""
    l1, _, l3, _, l5 = s.values
    e1 = s.elem_syms.e1
    return l5 > -l1, e1 >= 0.0, l3 > e1


def _require(what: str, names: tuple, oks: tuple) -> None:
    """Raise ``PreconditionViolated`` naming each check whose bool in ``oks``
    is False; the ``ConditionReport`` that names them is built only then."""
    if not all(oks):
        failed = ConditionReport(tuple(zip(names, oks))).failed
        raise PreconditionViolated(f"{what}: {', '.join(failed)}", failed)


_PATTERN_PROVENANCE = ("pattern_a", "pattern_b")


def _row(row) -> tuple[float, ...]:
    """The row's entries as floats; a text row such as "11111" is refused."""
    if isinstance(row, _TEXT):
        raise TypeError(f"row {row!r} is text, not numbers")
    return tuple(map(float, row))


@dataclass(frozen=True, eq=False)
class SymMatrix5:
    """A 5x5 exactly-symmetric real matrix with a construction tag.

    ``provenance`` is ``"pattern_a"`` or ``"pattern_b"`` for matrices built
    by the two constructors in this package (those are guaranteed entrywise
    nonnegative) and ``"external"`` for anything read from outside.

    ``entries`` is a tuple of five row tuples of Python floats, read with
    ``float()`` from nested sequences or an ndarray (not from text rows).  It
    cannot change, so ``sym_eigenvalues`` can store its result on the
    matrix without it ever going stale.  ``np.asarray(m)`` is a fresh copy.

    The constructor checks shape, finiteness, exact symmetry and, for the
    two pattern tags, nonnegativity.  The pattern builders go through
    :func:`_built_matrix`, which skips the conversion, shape and symmetry
    checks, since their rows are floats symmetric by construction, and
    keeps finiteness and nonnegativity.
    """

    entries: tuple[tuple[float, ...], ...]
    provenance: str = "external"
    _eigenvalues = None  # no annotation, so no field; sym_eigenvalues stores over it

    def __post_init__(self):
        try:
            rows = tuple(map(_row, self.entries))
        except TypeError as exc:
            raise ValueError(f"matrix entries must be real numbers: {exc}") from None
        if len(rows) != N or any(len(row) != N for row in rows):
            raise ValueError(f"expected {N} rows of {N} entries each")
        if not all(math.isfinite(x) for row in rows for x in row):
            raise ValueError("matrix has non-finite entries")
        if rows != tuple(zip(*rows)):
            raise ValueError("matrix is not exactly symmetric")
        if self.provenance in _PATTERN_PROVENANCE and min(map(min, rows)) < 0.0:
            raise ValueError(f"{self.provenance} matrix has a negative entry")
        object.__setattr__(self, "entries", rows)

    def __array__(self, dtype=None, copy=None):
        return np.array(self.entries, dtype=dtype)

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
    def parse(cls, text: str) -> "SymMatrix5":
        """Read an ``"external"`` matrix in either serialized form (text
        table or JSON); the constructor converts and checks the entries."""
        stripped = text.strip()
        if stripped.startswith("["):
            rows = json.loads(stripped)
        else:
            rows = [
                [x for x in re.split(r"[,\s]+", line.strip()) if x]
                for line in stripped.splitlines()
                if line.strip()
            ]
        # 17 significant digits round-trip doubles exactly, so output from
        # format_text/format_json reconstructs bit-identically
        return cls(rows)
