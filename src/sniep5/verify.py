"""Independent spectral verification.

Two routes that share no code with the matrix constructors: the
characteristic polynomial through the trace recurrence on matrix powers
(numpy's only use here), and eigenvalues through a pure-Python cyclic
Jacobi iteration.  ``verify_spectrum`` compares Jacobi eigenvalues against
a target spectrum; ``entry_bound_check`` confirms the entries of a
symmetric nonnegative matrix stay inside [0, spectral radius].  Plain input
is first made a :class:`SymMatrix5`, with its checks; that value stores its
Jacobi eigenvalues, so both checks share one Jacobi run and the same bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence
from .spectrum import SortedSpectrum, SymMatrix5

OFF_NORM_TOL = 1e-13
MAX_SWEEPS = 30
ENTRY_SLACK = 1e-12


def _matrix(m) -> SymMatrix5:
    # plain input gets SymMatrix5's shape, finiteness and symmetry checks
    return m if isinstance(m, SymMatrix5) else SymMatrix5(m)


def char_poly_coeffs(m) -> tuple[float, float, float, float, float, float]:
    """Monic characteristic polynomial of a 5x5 matrix, degree order.

    Computed by the trace recurrence on matrix powers, so it never touches
    an eigendecomposition: with n1 = M and a1 = -tr(n1),

        n_k = M (n_{k-1} + a_{k-1} I),   a_k = -tr(n_k)/k.
    """
    a = np.asarray(_matrix(m))
    eye = np.eye(5)
    coeffs = [1.0]
    n = a
    c = -float(np.trace(n))
    coeffs.append(c)
    for k in range(2, 6):
        n = a @ (n + c * eye)
        c = -float(np.trace(n)) / k
        coeffs.append(c)
    return tuple(coeffs)


# the ten row-cyclic rotations (p, q) with the three rows each one also mixes
_ROTATIONS = tuple(
    (p, q, tuple(i for i in range(5) if i != p and i != q))
    for p in range(4)
    for q in range(p + 1, 5)
)


def _jacobi(rows, max_sweeps: int) -> SortedSpectrum:
    """Cyclic Jacobi on a list copy of ``rows``."""
    sqrt = math.sqrt
    a = [list(r) for r in rows]
    a0, a1, a2, a3, a4 = a
    fro = sqrt(sum(x * x for row in a for x in row))
    thresh = OFF_NORM_TOL * (1.0 + fro)
    for sweep in range(max_sweeps + 1):
        off = (
            a0[1] * a0[1] + a0[2] * a0[2] + a0[3] * a0[3] + a0[4] * a0[4]
            + a1[2] * a1[2] + a1[3] * a1[3] + a1[4] * a1[4]
            + a2[3] * a2[3] + a2[4] * a2[4]
            + a3[4] * a3[4]
        )
        if sqrt(2.0 * off) <= thresh:
            diag = (a0[0], a1[1], a2[2], a3[3], a4[4])
            return SortedSpectrum(tuple(sorted(diag, reverse=True)))
        if sweep == max_sweeps:
            raise NoConvergence(
                f"off-diagonal norm {sqrt(2.0 * off):.3e} above "
                f"{thresh:.3e} after {max_sweeps} sweeps"
            )
        for p, q, others in _ROTATIONS:
            ap = a[p]
            apq = ap[q]
            if apq == 0.0:
                continue
            aq = a[q]
            app = ap[p]
            aqq = aq[q]
            theta = 0.5 * (aqq - app) / apq
            t = 1.0 / (abs(theta) + sqrt(1.0 + theta * theta))
            if theta < 0.0:
                t = -t
            c = 1.0 / sqrt(1.0 + t * t)
            s = t * c
            ap[p] = app - t * apq
            aq[q] = aqq + t * apq
            ap[q] = 0.0
            aq[p] = 0.0
            for i in others:
                ai = a[i]
                aip = ai[p]
                aiq = ai[q]
                v1 = c * aip - s * aiq
                v2 = s * aip + c * aiq
                ai[p] = v1
                ap[i] = v1
                ai[q] = v2
                aq[i] = v2
    raise AssertionError("unreachable")


def sym_eigenvalues(m, max_sweeps: int = MAX_SWEEPS) -> SortedSpectrum:
    """Eigenvalues of an exactly-symmetric 5x5 matrix, descending.

    Row-cyclic Jacobi sweeps with no rotation thresholding; converged once
    the off-diagonal Frobenius norm drops below 1e-13 * (1 + ||M||_F).
    Raises :class:`NoConvergence` if the sweep budget runs out.

    A :class:`SymMatrix5` cannot change, so at the default sweep budget its
    eigenvalues are computed once, stored on the matrix and returned from
    there on every later call.
    """
    m = _matrix(m)
    if max_sweeps != MAX_SWEEPS:
        return _jacobi(m.entries, max_sweeps)
    stored = m.__dict__.get("_eigenvalues")
    if stored is None:
        stored = m.__dict__["_eigenvalues"] = _jacobi(m.entries, max_sweeps)
    return stored


@dataclass(frozen=True)
class VerificationReport:
    passed: bool
    max_deviation: float
    eigenvalues: tuple[float, float, float, float, float]
    target: tuple[float, float, float, float, float]
    rel_tol: float

    def to_json_dict(self) -> dict:
        return {
            "pass": self.passed,
            "max_deviation": self.max_deviation,
            "eigenvalues": list(self.eigenvalues),
            "target": list(self.target),
        }


def verify_spectrum(m, s: SortedSpectrum, rel_tol: float = 1e-9) -> VerificationReport:
    """Compare the eigenvalues of ``m`` against the target spectrum.

    Passes when every pairwise deviation stays within
    ``rel_tol * max(1, |lam1|)`` of the target.
    """
    if not rel_tol > 0.0:
        raise ValueError(f"rel_tol must be positive, got {rel_tol}")
    eigs = sym_eigenvalues(m)
    dev = max(abs(a - b) for a, b in zip(eigs.values, s.values))
    bound = rel_tol * max(1.0, abs(s.lam1))
    return VerificationReport(dev <= bound, dev, eigs.values, s.values, rel_tol)


def entry_bound_check(m) -> bool:
    """Entries of a symmetric nonnegative matrix lie in [0, spectral radius].

    Checked with slack ``1e-12 * (1 + rho)`` on both sides.
    """
    m = _matrix(m)
    rho = max(abs(x) for x in sym_eigenvalues(m).values)
    slack = ENTRY_SLACK * (1.0 + rho)
    return all(-slack <= x <= rho + slack for row in m.entries for x in row)
