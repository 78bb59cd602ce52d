"""Host speed, read from a fixed reference kernel.

On a shared 2-core host the CPU time of the same op drifts by 20-40% over
minutes, as other tenants load the cores and the clock changes: the p50 of
one certify run read 313 us and another 534 us.  Medians within a run cannot
remove drift that lasts longer than the run.  So after every timed chunk the
harness runs this kernel and scales the chunk's times to a host on which the
kernel takes ``REFERENCE_S``.  Over 10 s windows this cut the spread of
certify's p50 from 14% to 3%.

The kernel does the same kinds of work as sniep5's hot paths: a frozen
dataclass that validates its fields, a sort of five floats, the product
expansion behind ``elem_syms``, sqrt, acos and cos as in the cubic, list
indexing as in the Jacobi sweep, and a 5x5 matrix product and trace as in
``char_poly_coeffs``.  It never calls sniep5, so no change to the program
can move it.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

ROUNDS = 300
# the kernel's CPU time at reference speed; about its median on a 2-core
# Intel Xeon host with Python 3.11 and NumPy 2.4
REFERENCE_S = 0.009

_EYE = np.eye(5)
_M = np.arange(25.0).reshape(5, 5) / 25.0


@dataclass(frozen=True)
class _Values:
    values: tuple

    def __post_init__(self):
        vals = tuple(float(v) for v in self.values)
        if not all(math.isfinite(v) for v in vals):
            raise ValueError(f"non-finite entry in {vals}")
        object.__setattr__(self, "values", vals)


def kernel(rounds: int = ROUNDS) -> float:
    acc = 0.0
    base = [0.9, -0.31, 0.47, -0.76, 0.12]
    for i in range(rounds):
        base[i % 5] += 1e-7
        v = _Values(tuple(sorted(base, reverse=True))).values
        c = [1.0]
        for lam in v:
            nxt = [0.0] * (len(c) + 1)
            for k, x in enumerate(c):
                nxt[k] += x
                nxt[k + 1] -= x * lam
            c = nxt
        p = -c[2] - v[1] * v[1]
        if p > 0.0 and v[2] > -c[1]:
            acc += math.sqrt(p)
        acc += math.cos(math.acos(min(1.0, max(-1.0, c[3]))) / 3.0)
        rows = [[_M[r][s] for s in range(5)] for r in range(5)]
        acc += sum(x * x for row in rows for x in row)
        if i % 4 == 0:
            acc += float(np.trace(_M @ (_M + c[1] * _EYE)))
    return acc


def host_speed() -> float:
    """Host speed now, relative to the reference: above 1 means faster."""
    t0 = time.process_time()
    kernel()
    return REFERENCE_S / (time.process_time() - t0)
