"""Real-root extraction for cubics with real coefficients.

Closed-form solve of the normalized depressed cubic (trigonometric branch
for three real roots, Cardano for one), followed by a few Newton steps on
the original coefficients to wash out the cancellation the closed forms
suffer from.  Returned roots satisfy

    |p(root)| <= 1e-9 * max|c_i| * max(1, |root|)**3

and roots closer together than ``1e-7 * (1 + |root|)`` are merged.  Neither
bound is homogeneous, so the two-paths layer solves its Q at unit scale.

:func:`_keeps_sign` is a cheap float test in front of the solve: it probes
the cubic at the ends of a window and at its turning points inside it, and
says True only when every probe has one sign and stays above the residual
bound of the whole window, so that no returned root can lie there.  When it
is not sure it says False, and the caller solves.
"""

from __future__ import annotations

import math

from .errors import DegenerateLeadingCoefficient

RESIDUAL_TOL = 1e-9
MERGE_TOL = 1e-7
# Newton steps by which _polish refines each closed-form root
_POLISH_STEPS = 4

# the angle offsets of the trigonometric branch, 2*pi*k/3 for k = 0, 1, 2
_THIRDS = tuple(2.0 * math.pi * k / 3.0 for k in (0, 1, 2))


def _cbrt(x: float) -> float:
    return math.copysign(abs(x) ** (1.0 / 3.0), x)


def evaluate(c3: float, c2: float, c1: float, c0: float, x: float) -> float:
    return ((c3 * x + c2) * x + c1) * x + c0


def residual_bound(c3: float, c2: float, c1: float, c0: float, root: float) -> float:
    """The residual magnitude up to which ``root`` counts as a root."""
    return RESIDUAL_TOL * max(abs(c3), abs(c2), abs(c1), abs(c0)) * max(1.0, abs(root)) ** 3


def _keeps_sign(c3: float, c2: float, c1: float, c0: float,
                lo: float, hi: float) -> bool:
    """True only when the cubic keeps one sign on [lo, hi], with lo <= hi.

    The probes are lo, hi and each root of the derivative
    3*c3*z^2 + 2*c2*z + c1 strictly inside (lo, hi), that is
    (-c2 +- sqrt(c2^2 - 3*c3*c1)) / (3*c3), formed without cancellation.
    Each is evaluated by Horner's rule in the association order of
    :func:`evaluate`.  All of them must have one sign and a magnitude above
    twice the uniform bound ``RESIDUAL_TOL * max|c_i| * M*M*M``, with
    M = max(1, |lo|, |hi|).

    Why that is enough: the cubic is monotone between consecutive probes, so
    its magnitude stays above the bound on all of [lo, hi].  Every root that
    :func:`real_roots` returns has a residual of at most
    :func:`residual_bound` at that root, which is at most the bound inside
    the window; so no returned root lies in [lo, hi].  The factor of two
    covers the rounding of the probes and of the turning points.

    A zero leading coefficient, a NaN or infinite probe or turning point,
    or an infinite bound gives False, which means "solve".
    """
    if c3 == 0.0:
        return False  # real_roots raises for it
    m = max(1.0, abs(lo), abs(hi))
    bound = 2.0 * RESIDUAL_TOL * max(abs(c3), abs(c2), abs(c1), abs(c0)) * (m * m * m)
    f = ((c3 * lo + c2) * lo + c1) * lo + c0
    if not abs(f) > bound:
        return False  # also a NaN probe, and any probe under an infinite bound
    positive = f > 0.0
    f = ((c3 * hi + c2) * hi + c1) * hi + c0
    if not (abs(f) > bound and (f > 0.0) == positive):
        return False
    disc = c2 * c2 - 3.0 * c3 * c1
    if disc < 0.0:
        return True  # no turning point: the cubic is monotone
    # the larger-magnitude turning point first (infinite or NaN when disc
    # overflows), then the other from the product of the two, c1 / (3*c3)
    q = -(c2 + math.copysign(math.sqrt(disc), c2))
    if q == 0.0:
        turns = (0.0,)  # c2 = c1 = 0: one double turning point at 0
    else:
        turns = (q / (3.0 * c3), c1 / q)
    for z in turns:
        if lo < z < hi:
            f = ((c3 * z + c2) * z + c1) * z + c0
            if not (abs(f) > bound and (f > 0.0) == positive):
                return False
        elif not math.isfinite(z):
            return False
    return True


def _polish(c3, c2, c1, c0, x):
    """Newton refinement on the original coefficients; keeps the best iterate.

    Each iterate's residual is evaluated once, by Horner's rule in the
    association order of :func:`evaluate`, and reused for the next step.
    A step that leaves ``x`` unchanged ends the loop: ``x`` is then a fixed
    point, every later step would repeat it, and its residual was already
    weighed, so no later iterate could become the best one.
    """
    d3 = 3.0 * c3
    d2 = 2.0 * c2
    f = ((c3 * x + c2) * x + c1) * x + c0
    best_x, best_f = x, abs(f)
    for _ in range(_POLISH_STEPS):
        df = (d3 * x + d2) * x + c1
        if df == 0.0:
            break
        step = x - f / df
        if step == x:
            break
        x = step
        f = ((c3 * x + c2) * x + c1) * x + c0
        fx = abs(f)
        if fx < best_f:
            best_x, best_f = x, fx
        if fx == 0.0:
            break
    return best_x


def real_roots(c3: float, c2: float, c1: float, c0: float) -> tuple[float, ...]:
    """All distinct real roots of c3*z^3 + c2*z^2 + c1*z + c0, ascending."""
    if c3 == 0.0:
        raise DegenerateLeadingCoefficient("leading cubic coefficient is zero")

    a = c2 / c3
    b = c1 / c3
    c = c0 / c3
    # depressed form t^3 + p t + q with z = t - a/3
    p = b - a * a / 3.0
    q = 2.0 * a**3 / 27.0 - a * b / 3.0 + c
    shift = -a / 3.0
    disc = -4.0 * p**3 - 27.0 * q * q

    if p == 0.0 and q == 0.0:
        raw = [shift]
    elif disc > 0.0:
        # three distinct real roots; p < 0 is guaranteed here
        radius = 2.0 * math.sqrt(-p / 3.0)
        arg = 3.0 * q / (2.0 * p) * math.sqrt(-3.0 / p)
        phi = math.acos(min(1.0, max(-1.0, arg))) / 3.0
        t0, t1, t2 = _THIRDS
        raw = [
            shift + radius * math.cos(phi - t0),
            shift + radius * math.cos(phi - t1),
            shift + radius * math.cos(phi - t2),
        ]
    elif disc == 0.0:
        # repeated root with p != 0: one double root and one simple root
        raw = [shift - 3.0 * q / (2.0 * p), shift + 3.0 * q / p]
    else:
        # disc and this radicand round apart near a double root, where the
        # radicand can land a hair below zero
        s = math.sqrt(max(0.0, q * q / 4.0 + p**3 / 27.0))
        u = _cbrt(-q / 2.0 + s)
        v = _cbrt(-q / 2.0 - s)
        raw = [shift + u + v]
        if abs(u - v) <= MERGE_TOL * (1.0 + abs(u) + abs(v)):
            # rounding can push a double root's discriminant just below
            # zero; the conjugate pair is then real to working precision
            raw.append(shift - (u + v) / 2.0)

    polished = [_polish(c3, c2, c1, c0, x) for x in raw]
    polished.sort()

    merged: list[float] = []
    for x in polished:
        if merged and abs(x - merged[-1]) <= MERGE_TOL * (1.0 + abs(x)):
            # keep whichever of the pair sits closer to the curve
            if abs(evaluate(c3, c2, c1, c0, x)) < abs(
                evaluate(c3, c2, c1, c0, merged[-1])
            ):
                merged[-1] = x
        else:
            merged.append(x)
    return tuple(merged)
