"""Shared test helpers: brute-force oracles, region samplers, a byte count,
and the small comparison helpers several suites use.

Everything here is deliberately independent of the package internals it is
used to check. The elementary symmetric oracle enumerates subsets, the
samplers draw from the normalized parameter box by rejection.
"""
import gc
import itertools
import math
import tracemalloc

from sniep5 import (
    Perturbation,
    SortedSpectrum,
    apply_perturbation,
    elem_syms,
)


def esym_bruteforce(values):
    """All five elementary symmetric functions via explicit subset sums."""
    out = []
    for n in range(1, 6):
        out.append(math.fsum(
            math.prod(c) for c in itertools.combinations(values, n)
        ))
    return tuple(out)


def poly_from_roots(values, lead=1.0):
    """Expand lead * prod(z - v) in the order given, highest degree first."""
    coeffs = [float(lead)]
    for v in values:
        nxt = [0.0] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            nxt[i] += c
            nxt[i + 1] -= c * v
        coeffs = nxt
    return coeffs


def assert_ident(lhs, rhs, tol, scale=1.0):
    """Relative identity check scaled by the largest participating term.

    Plain relative error is meaningless when lhs and rhs are tiny residues
    of large cancelling terms, so the caller passes the term magnitude.
    """
    bound = tol * max(1.0, abs(lhs), abs(rhs), scale)
    assert abs(lhs - rhs) <= bound, (lhs, rhs, bound)


def terms_scale(*terms):
    """The largest participating term magnitude, at least 1, for assert_ident."""
    return max(1.0, *(abs(t) for t in terms))


def q_coeffs(q):
    """A ``CubicQ``'s coefficients c3, c2, c1, c0 as a plain tuple."""
    return (q.c3, q.c2, q.c1, q.c0)


def hex_bits(xs):
    """``float.hex`` of each value: tells -0.0 from 0.0, which == does not."""
    return tuple(x.hex() for x in xs)


def draw_box_point(rng, t_lo=0.0, t_hi=0.95, x_pow=1, y_top=1.0):
    """One normalized spectrum (lam1 = 1) from the admissible parameter box.

    x_pow > 1 biases lam2 toward the trace plane, y_top < 1 keeps lam3 in
    the top fraction of its feasible interval; both raise the hit rate of
    the rarer condition sets without leaving the box.
    """
    while True:
        t = rng.uniform(t_lo, t_hi)
        x = t + (1.0 - t) * rng.random() ** x_pow
        lo = t + (x - 1.0) / 2.0
        d = rng.uniform(lo, t)
        ymax = min(x, -x + 2.0 * d + 1.0 - t)
        if ymax <= t:
            continue
        y = rng.uniform(t + (ymax - t) * (1.0 - y_top), ymax)
        vals = (1.0, x, y, d - x - y, t - d - 1.0)
        if not (vals[1] >= vals[2] >= vals[3] >= vals[4]):
            continue
        if vals[4] <= -1.0:
            continue
        s = SortedSpectrum(vals)
        if elem_syms(s).e1 < 0.0:
            continue
        return s


def sample_until(rng, predicate, count, **draw_kw):
    """Collect `count` box points satisfying `predicate`."""
    out = []
    while len(out) < count:
        s = draw_box_point(rng, **draw_kw)
        if predicate(s):
            out.append(s)
    return out


def sample_trace_zero_realizable(rng, count):
    """Centered spectra passing the trace-zero realizability test."""
    out = []
    while len(out) < count:
        lam = sorted(rng.uniform(-1.0, 1.0, 5), reverse=True)
        mean = math.fsum(lam) / 5.0
        lam = tuple(v - mean for v in lam)
        l1, l2, l3, l4, l5 = lam
        if l5 < -l1:
            continue
        if math.fsum(v ** 3 for v in lam) < 0.0:
            continue
        if l2 + l5 > 0.0:
            continue
        out.append(SortedSpectrum(lam))
    return out


def closure_size(s, i, passes, max_halvings=200):
    """Largest tested subtraction size at index i that keeps `passes` true.

    Starts from the smallest positive gap between consecutive entries and
    halves until the perturbed spectrum passes. Returns None if no size in
    the halving sequence works.
    """
    gaps = [a - b for a, b in zip(s.values, s.values[1:]) if a > b]
    size = min(gaps) if gaps else 1.0
    for _ in range(max_halvings):
        p = Perturbation(i=i, sign="minus", s=size)
        if passes(apply_perturbation(s, p)):
            return size
        size /= 2.0
    return None


def bytes_each(build, n=2000):
    """Traced bytes per result of ``build()`` with ``n`` results kept.

    Counted after a few warm-up calls and a full collection, which empties
    the free lists, so each result is a fresh allocation.
    """
    for _ in range(8):
        build()
    kept = [build()] * n
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        for i in range(n):
            kept[i] = build()
        used = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    return used / n
