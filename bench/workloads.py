"""Seeded inputs and the timed operation of each benchmark workload.

Every workload is a closed loop with one caller: the next operation starts
when the previous one has returned.  ``checked_ops`` is how many timed ops a
run checks, and ``trace_ops`` how many a traced run times and checks.  Inputs are a deterministic function of
the seed, are made outside the timed region, and reach the program as plain
values (float tuples, decimal strings, a grid size).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

import sniep5 as sn

# grid_sweep: the ``sniep5 sample`` path without --verify.  n = 24 gives
# 18,290 rows per sweep, so one run covers several whole sweeps and every
# run sees the same mix of row kinds; the seed sets where timing starts.
GRID_N = 24
GRID_TS = (0.0, 0.1, 0.35)
GRID_PHASE_SPAN = 18_000

# certify: the verifier tolerance of acceptance suites 04 and 05
CERTIFY_REL_TOL = 1e-8

# query_mix: shares of the typed-input stream
ZERO_SUM_SHARE = 0.4
PERTURB_SHARE = 0.1


def direct(_name, fn, *args, **kwargs):
    """Call ``fn``; the traced run passes a recorder of the same shape."""
    return fn(*args, **kwargs)


class GridSweep:
    """Stream ``sample_region(GRID_N, GRID_TS)``; one op is one row."""

    name = "grid_sweep"
    chunk = 2000
    # a timed run checks a whole sweep of rows
    checked_ops = 20_000
    # a traced run times and checks about a whole sweep, so its ratios see
    # every row kind; some 2,000-row stretches hold no row that reaches find_g
    trace_ops = GRID_PHASE_SPAN

    def __init__(self, seed: int):
        self.phase = random.Random(seed).randrange(GRID_PHASE_SPAN)
        self.warmup_ops = 1000 + self.phase
        self._rows = iter(())

    def inputs(self):
        return itertools.repeat(None)

    def op(self, _, call=direct):
        return call("sampler.row", self._next_row)

    def _next_row(self):
        row = next(self._rows, None)
        if row is None:
            # one sweep is exhausted: start the next one
            self._rows = sn.sample_region(GRID_N, GRID_TS)
            row = next(self._rows)
        return row

    def sizes(self) -> dict:
        return {"grid_n": GRID_N, "t_values": list(GRID_TS),
                "phase_rows": self.phase, "chunk_ops": self.chunk}


def draw_box_point(rng, t_lo, t_hi, x_pow, x_top, d_top, y_top):
    """One normalized spectrum (lam1 = 1) by rejection from the parameter box.

    With x = lam2, y = lam3, d = lam2 + lam3 + lam4 and t = e1 the box is
    x in (t, 1], d in ((3t - 1)/2, t], y in (t, min(x, 2d + 1 - t - x)].
    ``x_pow`` > 1 biases lam2 toward the trace plane; ``x_top``, ``d_top`` and
    ``y_top`` below 1 narrow the draw to a corner of the box (lam2 near the
    trace plane, d near its lower end, lam3 near its top).
    """
    while True:
        t = rng.uniform(t_lo, t_hi)
        x = t + (1.0 - t) * (x_top * rng.random()) ** x_pow
        lo = t + (x - 1.0) / 2.0
        d = lo + (t - lo) * d_top * rng.random()
        ymax = min(x, -x + 2.0 * d + 1.0 - t)
        if ymax <= t:
            continue
        y = ymax - (ymax - t) * y_top * rng.random()
        vals = (1.0, x, y, d - x - y, t - d - 1.0)
        if not vals[1] >= vals[2] >= vals[3] >= vals[4] > -1.0:
            continue
        return vals


# Draw boxes per certificate.  pattern_a points are common in the whole box,
# as in suite 04.  Points that classify certifies as pattern_b sit where lam2
# is near the trace plane and d near its lower end, a corner of suite 05's
# box.
_DRAW = {
    sn.Certificate.PATTERN_A: dict(t_lo=0.0, t_hi=0.95, x_pow=1, x_top=1.0,
                                   d_top=1.0, y_top=1.0),
    sn.Certificate.PATTERN_B: dict(t_lo=0.15, t_hi=0.38, x_pow=5, x_top=0.8,
                                   d_top=0.3, y_top=0.3),
}


def _may_be(certificate, vals) -> bool:
    """Cheap pre-filter: lam3 > e1, and r >= 0 for pattern_a, r < 0 for pattern_b.

    Only classify's verdict accepts a draw; this just spares classify calls
    on draws that cannot get the certificate (r < 0 fails the pattern_a gate,
    and classify tries pattern_a first).
    """
    l1, l2, l3, l4, l5 = vals
    e1 = l1 + l2 + l3 + l4 + l5
    e3 = sum(a * b * c for a, b, c in itertools.combinations(vals, 3))
    r = e3 + e1 * (l2 * l2 + l5 * l5)
    return e1 >= 0.0 and l3 > e1 and (r >= 0.0) == (certificate is sn.Certificate.PATTERN_A)


def draw_certified(rng, certificate):
    """Rejection-sample a spectrum that ``classify`` certifies as given."""
    while True:
        vals = draw_box_point(rng, **_DRAW[certificate])
        if (_may_be(certificate, vals)
                and sn.classify(sn.SortedSpectrum(vals)).certificate is certificate):
            return vals


@dataclass(frozen=True)
class Certified:
    decision: sn.RealizabilityDecision
    matrix: sn.SymMatrix5
    report: sn.VerificationReport
    coeffs: tuple
    esyms: sn.ElemSyms
    entry_ok: bool


class Certify:
    """Classify, build, verify, char-poly and entry-bound one spectrum."""

    name = "certify"
    chunk = 1000
    checked_ops = 5 * chunk
    trace_ops = chunk

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.warmup_ops = 200

    def inputs(self):
        while True:
            yield draw_certified(self.rng, sn.Certificate.PATTERN_A)
            yield draw_certified(self.rng, sn.Certificate.PATTERN_B)

    def op(self, vals, call=direct):
        s = call("spectrum.SortedSpectrum", sn.SortedSpectrum, vals)
        decision = call("classify.classify", sn.classify, s)
        if decision.certificate is sn.Certificate.PATTERN_A:
            matrix = call("pattern_a.build_pattern_a", sn.build_pattern_a, s)
        elif decision.certificate is sn.Certificate.PATTERN_B:
            matrix = call("pattern_b.build_pattern_b", sn.build_pattern_b, s,
                          decision.g)
        else:
            raise ValueError(f"no pattern certificate for {vals}")
        report = call("verify.verify_spectrum", sn.verify_spectrum, matrix, s,
                      rel_tol=CERTIFY_REL_TOL)
        coeffs = call("verify.char_poly_coeffs", sn.char_poly_coeffs, matrix)
        esyms = call("spectrum.elem_syms", sn.elem_syms, s)
        entry_ok = call("verify.entry_bound_check", sn.entry_bound_check, matrix)
        return Certified(decision, matrix, report, coeffs, esyms, entry_ok)

    def sizes(self) -> dict:
        return {"mix": "half pattern_a, half pattern_b", "chunk_ops": self.chunk}


def uniform_text(rng) -> str:
    return ",".join(f"{rng.uniform(-1.0, 1.0):.4f}" for _ in range(5))


def zero_sum_text(rng) -> str:
    """Five two-decimal entries in [-1, 1] whose typed sum is exactly 0."""
    while True:
        hundredths = [rng.randint(-100, 100) for _ in range(4)]
        last = -sum(hundredths)
        if -100 <= last <= 100:
            break
    hundredths.append(last)
    rng.shuffle(hundredths)
    return ",".join(f"{h / 100:.2f}" for h in hundredths)


class QueryMix:
    """Typed decimal lists: parse, sort and classify, or decide a perturbation.

    An input is ``(text, perturbation)`` with ``perturbation`` either None or
    ``(i, sign, size_text)``.
    """

    name = "query_mix"
    chunk = 4000
    checked_ops = 10 * chunk
    trace_ops = chunk

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.warmup_ops = 2000

    def inputs(self):
        rng = self.rng
        while True:
            if rng.random() < ZERO_SUM_SHARE:
                text = zero_sum_text(rng)
            else:
                text = uniform_text(rng)
            perturbation = None
            if rng.random() < PERTURB_SHARE:
                perturbation = (rng.randint(2, 5), rng.choice(("plus", "minus")),
                                f"{rng.randint(1, 50) / 100:.2f}")
            yield text, perturbation

    def op(self, inp, call=direct):
        text, perturbation = inp
        parsed = call("spectrum.parse_spectrum", sn.parse_spectrum, text)
        s = call("spectrum.sort_descending", sn.sort_descending, parsed)
        if perturbation is None:
            return call("classify.classify", sn.classify, s)
        i, sign, size = perturbation
        p = sn.Perturbation(i, sn.Sign(sign), float(size))
        return call("guo.decide_perturbed", sn.decide_perturbed, s, p)

    def sizes(self) -> dict:
        return {"zero_sum_share": ZERO_SUM_SHARE, "perturb_share": PERTURB_SHARE,
                "uniform_decimals": 4, "zero_sum_decimals": 2,
                "chunk_ops": self.chunk}


WORKLOADS = {w.name: w for w in (GridSweep, Certify, QueryMix)}
