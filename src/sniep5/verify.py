"""Independent spectral verification.

Two routes that share no code with the matrix constructors: the
characteristic polynomial through the trace recurrence on matrix powers
(numpy's only use here: the products are numpy's, the traces are summed in
Python with numpy's bits), and eigenvalues through a pure-Python cyclic
Jacobi iteration.  The Jacobi kernel is written out over the 15
upper-triangle entries: a :class:`SymMatrix5` is exactly symmetric (its
constructor refuses anything else, and the pattern builders write each
mirrored pair from one value), so the lower triangle holds nothing more.
Its Frobenius norm stays a ``sum()``, so its bits match the looped kernel
kept in the tests on every Python version.  ``verify_spectrum`` compares
Jacobi eigenvalues against a target spectrum, in any order;
``entry_bound_check`` confirms the entries of a symmetric nonnegative
matrix stay inside [0, spectral radius].  Plain input is first made a
:class:`SymMatrix5`, with its checks; that value stores its Jacobi
eigenvalues, so both checks share one Jacobi run and the same bits, and
``verify_spectrum`` fills its report's slots in one step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence
from .spectrum import (SortedSpectrum, Spectrum, SymMatrix5, _checked_sorted,
                       sort_descending)

OFF_NORM_TOL = 1e-13
MAX_SWEEPS = 30
ENTRY_SLACK = 1e-12

# one identity for every char_poly_coeffs call, read-only so none can alter it
_EYE = np.eye(5)
_EYE.flags.writeable = False


def _matrix(m) -> SymMatrix5:
    # plain input gets SymMatrix5's shape, finiteness and symmetry checks
    return m if isinstance(m, SymMatrix5) else SymMatrix5(m)


def char_poly_coeffs(m) -> tuple[float, float, float, float, float, float]:
    """Monic characteristic polynomial of a 5x5 matrix, degree order.

    Computed by the trace recurrence on matrix powers, so it never touches
    an eigendecomposition: with n1 = M and a1 = -tr(n1),

        n_k = M (n_{k-1} + a_{k-1} I),   a_k = -tr(n_k)/k.

    The products stay numpy's, whose bits a Python dot product does not
    reproduce.  M is built from the 25 entries read flat, and the recurrence
    runs in two 5x5 buffers made once per call, ``buf`` for n_{k-1} +
    a_{k-1} I and ``n`` for the product; every step is the same numpy
    operation on the same operands as the expression it replaces.  Each
    trace is summed in Python over the diagonal read back as floats, as
    ``0.0 + d00 + ... + d44``.  That matches numpy's ``trace()`` bit for
    bit; the leading ``0.0`` makes a diagonal of negative zeros sum to
    +0.0, as ``trace()`` does.
    """
    r0, r1, r2, r3, r4 = _matrix(m).entries
    flat = (*r0, *r1, *r2, *r3, *r4)
    a = np.array(flat).reshape(5, 5)
    buf = np.empty((5, 5))
    n = np.empty((5, 5))
    diag = n.diagonal()
    c = -(0.0 + flat[0] + flat[6] + flat[12] + flat[18] + flat[24])
    coeffs = [1.0, c]
    src = a
    for k in range(2, 6):
        # n = a.dot(src + c * I) with numpy's bits; out is passed by
        # position, which numpy parses faster than the keyword
        np.multiply(c, _EYE, buf)
        np.add(src, buf, buf)
        np.dot(a, buf, n)
        d = diag.tolist()
        c = -(0.0 + d[0] + d[1] + d[2] + d[3] + d[4]) / k
        coeffs.append(c)
        src = n
    return tuple(coeffs)


def _jacobi(rows, max_sweeps: int) -> SortedSpectrum:
    """Row-cyclic Jacobi over the upper triangle of ``rows``, held in locals.

    Every caller passes the rows of a :class:`SymMatrix5`, which is exactly
    symmetric, so entry (i, j) lives in one local,
    ``a{min(i,j)}{max(i,j)}``.  A sweep is the ten rotations (0, 1), (0, 2),
    ..., (3, 4) written out in that order, each skipped when its pivot is
    0.0 and each mixing the three other rows.  Mirrored zeros of opposite
    sign also pass the symmetry check; they move no result bit, because a
    zero's sign can only change the sign of another zero, and a zero is
    never a pivot.

    Each rotation picks its tangent's sign by a branch, ``-1 / (sqrt(1 +
    theta^2) - theta)`` for theta < 0, which rounds as the negated
    ``1 / (|theta| + sqrt(1 + theta^2))`` does, and forms ``t * apq`` once
    for both diagonal updates.

    ``fro`` stays a ``sum()`` over all 25 squares in row-major order, each
    mirrored square written twice, because Python 3.12's ``sum()`` of floats
    is compensated and a ``+`` chain would round differently there.  Only
    when that norm overflows or falls under 1/2 are the rows swept at a
    power-of-two scale, so every matrix with a norm in [0.5, inf) keeps
    its bits.
    """
    sqrt = math.sqrt
    (
        (a00, a01, a02, a03, a04),
        (_, a11, a12, a13, a14),
        (_, _, a22, a23, a24),
        (_, _, _, a33, a34),
        (_, _, _, _, a44),
    ) = rows
    s01, s02, s03, s04 = a01 * a01, a02 * a02, a03 * a03, a04 * a04
    s12, s13, s14 = a12 * a12, a13 * a13, a14 * a14
    s23, s24, s34 = a23 * a23, a24 * a24, a34 * a34
    fro = sqrt(sum((
        a00 * a00, s01, s02, s03, s04,
        s01, a11 * a11, s12, s13, s14,
        s02, s12, a22 * a22, s23, s24,
        s03, s13, s23, a33 * a33, s34,
        s04, s14, s24, s34, a44 * a44,
    )))
    if not 0.5 <= fro < math.inf:
        big = max(abs(x) for row in rows for x in row)
        if big != 0.0:
            # the threshold below would pass the unrotated diagonal: an
            # overflowed norm makes it infinite, and under a norm of 1/2
            # its absolute floor, 1e-13 * (1 + fro), dwarfs the entries.
            # Sweep the rows scaled by 2^-k, which brings the largest
            # |entry| into [0.5, 1), so the norm lands in [0.5, 5) and this
            # branch is not taken again, and rounds only entries that land
            # below 2^-1022, far under the eigenvalues' rounding; then
            # scale back.  The zero matrix is its own diagonal.
            k = math.frexp(big)[1]
            scaled = [[math.ldexp(x, -k) for x in row] for row in rows]
            eigs = _jacobi(scaled, max_sweeps).values
            try:
                return SortedSpectrum(tuple(math.ldexp(x, k) for x in eigs))
            except OverflowError:
                raise NoConvergence(
                    f"an eigenvalue, {max(eigs[0], -eigs[4])!r} * 2**{k}, "
                    "overflows a float"
                ) from None
    thresh = OFF_NORM_TOL * (1.0 + fro)
    for sweep in range(max_sweeps + 1):
        off = (
            a01 * a01 + a02 * a02 + a03 * a03 + a04 * a04
            + a12 * a12 + a13 * a13 + a14 * a14
            + a23 * a23 + a24 * a24
            + a34 * a34
        )
        if sqrt(2.0 * off) <= thresh:
            diag = tuple(sorted((a00, a11, a22, a33, a44), reverse=True))
            if math.isfinite(a00 + a11 + a22 + a33 + a44):  # no inf, no nan
                return _checked_sorted(diag)
            return SortedSpectrum(diag)
        if sweep == max_sweeps:
            raise NoConvergence(
                f"off-diagonal norm {sqrt(2.0 * off):.3e} above "
                f"{thresh:.3e} after {max_sweeps} sweeps"
            )
        if a01 != 0.0:
            theta = 0.5 * (a11 - a00) / a01
            if theta < 0.0:
                t = -1.0 / (sqrt(1.0 + theta * theta) - theta)
            else:
                t = 1.0 / (theta + sqrt(1.0 + theta * theta))
            c = 1.0 / sqrt(1.0 + t * t)
            s = t * c
            ta = t * a01
            a00, a11 = a00 - ta, a11 + ta
            a01 = 0.0
            a02, a12 = c * a02 - s * a12, s * a02 + c * a12
            a03, a13 = c * a03 - s * a13, s * a03 + c * a13
            a04, a14 = c * a04 - s * a14, s * a04 + c * a14
        if a02 != 0.0:
            theta = 0.5 * (a22 - a00) / a02
            if theta < 0.0:
                t = -1.0 / (sqrt(1.0 + theta * theta) - theta)
            else:
                t = 1.0 / (theta + sqrt(1.0 + theta * theta))
            c = 1.0 / sqrt(1.0 + t * t)
            s = t * c
            ta = t * a02
            a00, a22 = a00 - ta, a22 + ta
            a02 = 0.0
            a01, a12 = c * a01 - s * a12, s * a01 + c * a12
            a03, a23 = c * a03 - s * a23, s * a03 + c * a23
            a04, a24 = c * a04 - s * a24, s * a04 + c * a24
        if a03 != 0.0:
            theta = 0.5 * (a33 - a00) / a03
            if theta < 0.0:
                t = -1.0 / (sqrt(1.0 + theta * theta) - theta)
            else:
                t = 1.0 / (theta + sqrt(1.0 + theta * theta))
            c = 1.0 / sqrt(1.0 + t * t)
            s = t * c
            ta = t * a03
            a00, a33 = a00 - ta, a33 + ta
            a03 = 0.0
            a01, a13 = c * a01 - s * a13, s * a01 + c * a13
            a02, a23 = c * a02 - s * a23, s * a02 + c * a23
            a04, a34 = c * a04 - s * a34, s * a04 + c * a34
        if a04 != 0.0:
            theta = 0.5 * (a44 - a00) / a04
            if theta < 0.0:
                t = -1.0 / (sqrt(1.0 + theta * theta) - theta)
            else:
                t = 1.0 / (theta + sqrt(1.0 + theta * theta))
            c = 1.0 / sqrt(1.0 + t * t)
            s = t * c
            ta = t * a04
            a00, a44 = a00 - ta, a44 + ta
            a04 = 0.0
            a01, a14 = c * a01 - s * a14, s * a01 + c * a14
            a02, a24 = c * a02 - s * a24, s * a02 + c * a24
            a03, a34 = c * a03 - s * a34, s * a03 + c * a34
        if a12 != 0.0:
            theta = 0.5 * (a22 - a11) / a12
            if theta < 0.0:
                t = -1.0 / (sqrt(1.0 + theta * theta) - theta)
            else:
                t = 1.0 / (theta + sqrt(1.0 + theta * theta))
            c = 1.0 / sqrt(1.0 + t * t)
            s = t * c
            ta = t * a12
            a11, a22 = a11 - ta, a22 + ta
            a12 = 0.0
            a01, a02 = c * a01 - s * a02, s * a01 + c * a02
            a13, a23 = c * a13 - s * a23, s * a13 + c * a23
            a14, a24 = c * a14 - s * a24, s * a14 + c * a24
        if a13 != 0.0:
            theta = 0.5 * (a33 - a11) / a13
            if theta < 0.0:
                t = -1.0 / (sqrt(1.0 + theta * theta) - theta)
            else:
                t = 1.0 / (theta + sqrt(1.0 + theta * theta))
            c = 1.0 / sqrt(1.0 + t * t)
            s = t * c
            ta = t * a13
            a11, a33 = a11 - ta, a33 + ta
            a13 = 0.0
            a01, a03 = c * a01 - s * a03, s * a01 + c * a03
            a12, a23 = c * a12 - s * a23, s * a12 + c * a23
            a14, a34 = c * a14 - s * a34, s * a14 + c * a34
        if a14 != 0.0:
            theta = 0.5 * (a44 - a11) / a14
            if theta < 0.0:
                t = -1.0 / (sqrt(1.0 + theta * theta) - theta)
            else:
                t = 1.0 / (theta + sqrt(1.0 + theta * theta))
            c = 1.0 / sqrt(1.0 + t * t)
            s = t * c
            ta = t * a14
            a11, a44 = a11 - ta, a44 + ta
            a14 = 0.0
            a01, a04 = c * a01 - s * a04, s * a01 + c * a04
            a12, a24 = c * a12 - s * a24, s * a12 + c * a24
            a13, a34 = c * a13 - s * a34, s * a13 + c * a34
        if a23 != 0.0:
            theta = 0.5 * (a33 - a22) / a23
            if theta < 0.0:
                t = -1.0 / (sqrt(1.0 + theta * theta) - theta)
            else:
                t = 1.0 / (theta + sqrt(1.0 + theta * theta))
            c = 1.0 / sqrt(1.0 + t * t)
            s = t * c
            ta = t * a23
            a22, a33 = a22 - ta, a33 + ta
            a23 = 0.0
            a02, a03 = c * a02 - s * a03, s * a02 + c * a03
            a12, a13 = c * a12 - s * a13, s * a12 + c * a13
            a24, a34 = c * a24 - s * a34, s * a24 + c * a34
        if a24 != 0.0:
            theta = 0.5 * (a44 - a22) / a24
            if theta < 0.0:
                t = -1.0 / (sqrt(1.0 + theta * theta) - theta)
            else:
                t = 1.0 / (theta + sqrt(1.0 + theta * theta))
            c = 1.0 / sqrt(1.0 + t * t)
            s = t * c
            ta = t * a24
            a22, a44 = a22 - ta, a44 + ta
            a24 = 0.0
            a02, a04 = c * a02 - s * a04, s * a02 + c * a04
            a12, a14 = c * a12 - s * a14, s * a12 + c * a14
            a23, a34 = c * a23 - s * a34, s * a23 + c * a34
        if a34 != 0.0:
            theta = 0.5 * (a44 - a33) / a34
            if theta < 0.0:
                t = -1.0 / (sqrt(1.0 + theta * theta) - theta)
            else:
                t = 1.0 / (theta + sqrt(1.0 + theta * theta))
            c = 1.0 / sqrt(1.0 + t * t)
            s = t * c
            ta = t * a34
            a33, a44 = a33 - ta, a44 + ta
            a34 = 0.0
            a03, a04 = c * a03 - s * a04, s * a03 + c * a04
            a13, a14 = c * a13 - s * a14, s * a13 + c * a14
            a23, a24 = c * a23 - s * a24, s * a23 + c * a24

    raise AssertionError("unreachable")


def sym_eigenvalues(m) -> SortedSpectrum:
    """Eigenvalues of an exactly-symmetric 5x5 matrix, descending.

    Row-cyclic Jacobi sweeps with no rotation thresholding; converged once
    the off-diagonal Frobenius norm drops below 1e-13 * (1 + ||M||_F).  A
    matrix whose norm overflows or falls under 1/2 is swept scaled by a
    power of two that brings its largest entry into [0.5, 1), so that
    floor stays relative to the matrix at every scale.
    Raises :class:`NoConvergence` if ``MAX_SWEEPS`` sweeps do not converge.

    A :class:`SymMatrix5` cannot change, so its eigenvalues are computed
    once, stored on the matrix with ``object.__setattr__``, which keeps the
    compact instance layout, and returned from there on every later call.
    """
    m = _matrix(m)
    stored = m._eigenvalues
    if stored is None:
        stored = _jacobi(m.entries, MAX_SWEEPS)
        object.__setattr__(m, "_eigenvalues", stored)
    return stored


@dataclass(frozen=True, slots=True)
class VerificationReport:
    passed: bool
    max_deviation: float
    eigenvalues: tuple[float, float, float, float, float]
    target: tuple[float, float, float, float, float]
    rel_tol: float

    def to_json_dict(self) -> dict:
        dev = self.max_deviation
        return {
            "pass": self.passed,
            "max_deviation": dev if math.isfinite(dev) else None,  # inf is not JSON
            "eigenvalues": list(self.eigenvalues),
            "target": list(self.target),
        }


# slot setters, bound once; each gets past the frozen __setattr__
_set_passed = VerificationReport.passed.__set__
_set_max_deviation = VerificationReport.max_deviation.__set__
_set_eigenvalues = VerificationReport.eigenvalues.__set__
_set_target = VerificationReport.target.__set__
_set_rel_tol = VerificationReport.rel_tol.__set__


def verify_spectrum(m, s: Spectrum, rel_tol: float = 1e-9) -> VerificationReport:
    """Compare the eigenvalues of ``m`` against the target spectrum.

    A target that is not a :class:`SortedSpectrum` is sorted largest first,
    so its entries may come in any order.  Passes when every pairwise
    deviation stays within ``rel_tol * max|lam_i|`` of the target, a bound
    relative at every scale, so a tiny target is not passed by any tiny
    matrix.  ``rel_tol`` must be finite and positive: an infinite tolerance
    would pass any matrix.
    """
    if not (math.isfinite(rel_tol) and rel_tol > 0.0):
        raise ValueError(f"rel_tol must be finite and positive, got {rel_tol}")
    if not isinstance(s, SortedSpectrum):
        s = sort_descending(s)  # eigenvalues are a multiset
    eigs = sym_eigenvalues(m).values
    t1, t2, t3, t4, t5 = target = s.values
    x1, x2, x3, x4, x5 = eigs
    dev = max(abs(x1 - t1), abs(x2 - t2), abs(x3 - t3), abs(x4 - t4),
              abs(x5 - t5))
    # max|lam_i| of the sorted target sits at one of its ends
    bound = rel_tol * max(abs(t1), abs(t5))
    out = object.__new__(VerificationReport)
    _set_passed(out, dev <= bound)
    _set_max_deviation(out, dev)
    _set_eigenvalues(out, eigs)
    _set_target(out, target)
    _set_rel_tol(out, rel_tol)
    return out


def entry_bound_check(m) -> bool:
    """Entries of a symmetric nonnegative matrix lie in [0, spectral radius].

    Checked with slack ``1e-12 * (1 + rho)`` on both sides.
    """
    m = _matrix(m)
    vals = sym_eigenvalues(m).values
    rho = max(vals[0], -vals[4])  # the descending ends hold the largest |x|
    slack = ENTRY_SLACK * (1.0 + rho)
    r0, r1, r2, r3, r4 = m.entries
    flat = (*r0, *r1, *r2, *r3, *r4)
    return -slack <= min(flat) and max(flat) <= rho + slack
