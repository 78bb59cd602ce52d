"""Real-root extraction for cubics with real coefficients.

Closed-form solve of the normalized depressed cubic (trigonometric branch
for three real roots, Cardano for one), followed by a few Newton steps on
the original coefficients to wash out the cancellation the closed forms
suffer from.  Returned roots satisfy

    |p(root)| <= 1e-9 * max|c_i| * max(1, |root|)**3

and roots closer together than ``1e-7 * (1 + |root|)`` are merged.
"""

from __future__ import annotations

import math

from .errors import DegenerateLeadingCoefficient

RESIDUAL_TOL = 1e-9
MERGE_TOL = 1e-7

# the angle offsets of the trigonometric branch, 2*pi*k/3 for k = 0, 1, 2
_THIRDS = tuple(2.0 * math.pi * k / 3.0 for k in (0, 1, 2))


def _cbrt(x: float) -> float:
    return math.copysign(abs(x) ** (1.0 / 3.0), x)


def evaluate(c3: float, c2: float, c1: float, c0: float, x: float) -> float:
    return ((c3 * x + c2) * x + c1) * x + c0


def residual_bound(c3: float, c2: float, c1: float, c0: float, root: float) -> float:
    """The residual magnitude up to which ``root`` counts as a root."""
    return RESIDUAL_TOL * max(abs(c3), abs(c2), abs(c1), abs(c0)) * max(1.0, abs(root)) ** 3


def _polish(c3, c2, c1, c0, x, steps=4):
    """Newton refinement on the original coefficients; keeps the best iterate.

    Each iterate's residual is evaluated once, by Horner's rule in the
    association order of :func:`evaluate`, and reused for the next step.
    """
    d3 = 3.0 * c3
    d2 = 2.0 * c2
    f = ((c3 * x + c2) * x + c1) * x + c0
    best_x, best_f = x, abs(f)
    for _ in range(steps):
        df = (d3 * x + d2) * x + c1
        if df == 0.0:
            break
        x -= f / df
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
