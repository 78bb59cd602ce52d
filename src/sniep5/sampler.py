"""Deterministic grid sweep of the normalized undecided region.

With lam1 fixed at 1, the change of variables

    x = lam2,  y = lam3,  d = lam2 + lam3 + lam4,  t = e1

turns the region of interest (descending, lam5 >= -1, trace t in [0, 1),
lam3 > t) into the box

    x in (t, 1],  d in ((3t - 1)/2, t],  y in (t, min(x, -x + 2d + 1 - t)]

and every grid point in that box maps to a valid spectrum
(1, x, y, d - x - y, t - d - 1).  The top d slice (d = t) puts lam5 on the
boundary -1 exactly, which is how the boundary exclusion shows up on maps.

Rows stream in lexicographic (t, x, d, y) order, each carrying the verdict
of :func:`~sniep5.classify.classify` and the map scalars, so the output CSV
plots directly.  Verdicts come from ``classify``'s rule list: no record is built.
"""

from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple

from .classify import Certificate, RealizabilityDecision, Reason, Verdict, _rules
from .errors import EmptyGrid
from .spectrum import _checked_sorted

CSV_HEADER = "lambda2,lambda3,lambda4,lambda5,e1,u,r,g,verdict,tag"


class RegionSample(NamedTuple):
    """One classified grid point; lam1 is normalized to 1.

    A ``NamedTuple`` whose fields come in CSV column order, so it compares
    equal to the plain tuple of its fields.  The sweep builds each one with
    ``tuple.__new__``, past the Python-level ``__new__`` of the class.
    """

    lambda2: float
    lambda3: float
    lambda4: float
    lambda5: float
    e1: float
    u: float
    r: float
    g: float | None
    verdict: Verdict
    tag: str

    def csv_row(self) -> str:
        nums = [self.lambda2, self.lambda3, self.lambda4, self.lambda5,
                self.e1, self.u, self.r]
        cells = [f"{x:.12g}" for x in nums]
        cells.append("" if self.g is None else f"{self.g:.12g}")
        cells.append(self.verdict.value)
        cells.append(self.tag)
        return ",".join(cells)


# each certificate and reason to its text, and None (an unknown verdict) to
# "": a dict hit costs a fraction of Enum's value property
_TAGS = {None: "", **{m: m.value for m in (*Certificate, *Reason)}}


def decision_tag(decision: RealizabilityDecision) -> str:
    # a decision carries a certificate or a reason, never both, and members
    # are true, so `or` picks whichever is set
    return _TAGS[decision.certificate or decision.reason]


def sample_region(grid_n: int, t_values: Iterable[float]) -> Iterator[RegionSample]:
    """Stream classified samples of the undecided region.

    ``grid_n`` points are taken along each axis of the box for every trace
    value in ``t_values`` (processed ascending).  Raises
    :class:`EmptyGrid` once exhausted if no t produced a feasible point.
    """
    if grid_n < 2:
        raise ValueError(f"grid_n must be at least 2, got {grid_n}")
    ts = sorted(float(t) for t in t_values)
    return _generate(grid_n, ts)


def _generate(n: int, ts: list[float]) -> Iterator[RegionSample]:
    emitted = 0
    for t in ts:
        if not 0.0 <= t < 1.0:
            continue
        lo = (3.0 * t - 1.0) / 2.0
        for j in range(1, n + 1):
            x = t + (1.0 - t) * j / n
            for kk in range(1, n + 1):
                d = lo + (t - lo) * kk / n
                ymax = min(x, -x + 2.0 * d + 1.0 - t)
                if ymax <= t:
                    continue
                lam5 = t - d - 1.0
                for ll in range(1, n + 1):
                    y = t + (ymax - t) * ll / n
                    lam4 = d - x - y
                    # SortedSpectrum's order check; grid values are finite
                    # floats, so _checked_sorted needs no second pass
                    if not 1.0 >= x >= y >= lam4 >= lam5 >= -1.0:
                        continue
                    s = _checked_sorted((1.0, x, y, lam4, lam5))
                    e1 = s.elem_syms.e1
                    if e1 < 0.0:
                        # the region has trace t >= 0; at t = 0 rounding in
                        # the reconstructed sum can land a hair below zero,
                        # and such tuples misrepresent the grid point, so
                        # they are dropped before they are classified
                        continue
                    (verdict, certificate, reason), g = _rules(s)
                    # u and r only: the sweep builds no matrix, so v and w
                    # are never computed
                    u, r = s._ur
                    yield tuple.__new__(RegionSample, (
                        x, y, lam4, lam5, e1, u, r, g,
                        verdict, _TAGS[certificate or reason],
                    ))
                    emitted += 1
    if emitted == 0:
        raise EmptyGrid("no feasible grid point for any requested t")
