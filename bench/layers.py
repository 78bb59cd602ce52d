"""The traced run: per-layer timings from timers around the benchmark's calls.

Nothing hooks into the program.  Each workload's op routes its own steps
through a recorder that reads the clock around every call (a span); those
spans add up to the op time.  Functions the program calls inside a step,
such as classify under a grid row, are called once more on the same input
right after the op (a replay); their spans count toward the layer's own
numbers but not toward op time.

Spans read the wall clock, which is finer and cheaper to read than the
process CPU clock the timed loop uses; medians of spans shrug off the rare
span that the host stalls.

Per layer the run reports ``<workload>.<module>.<function>.`` followed by
``calls`` (spans recorded; a replayed layer gets one per op that reaches
it), ``us_p50`` (median span) and ``busy_share`` (the layer's span time over
the workload's op time).  Ratios give their base as the matching ``calls``.
The traced loop also runs untraced first on the same inputs, and the ratio
of the two throughputs is the tracing overhead.
"""

from __future__ import annotations

import io
import itertools
import os
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

import sniep5 as sn
from sniep5 import Certificate, Verdict
from sniep5.cli import run_cli

import checks
import harness
import workloads

SRC = Path(__file__).resolve().parent.parent / "src"

# Layers per workload, and the end-to-end metrics a change to them should
# move.  Every name here is printed by every traced run.
LAYERS = {
    "grid_sweep": [
        "sampler.row", "spectrum.SortedSpectrum", "classify.classify",
        "pattern_a.compute_uvwr", "spectrum.elem_syms",
        "pattern_a.pattern_a_conditions", "pattern_b.pattern_b_conditions",
        "pattern_b.find_g", "cubic.real_roots",
    ],
    "certify": [
        "spectrum.SortedSpectrum", "classify.classify",
        "pattern_a.build_pattern_a", "pattern_b.build_pattern_b",
        "verify.verify_spectrum", "verify.sym_eigenvalues",
        "verify.char_poly_coeffs", "spectrum.elem_syms",
        "verify.entry_bound_check",
    ],
    "query_mix": [
        "spectrum.parse_spectrum", "spectrum.sort_descending",
        "classify.classify", "guo.decide_perturbed",
    ],
}
SHOULD_MOVE = {
    "grid_sweep": "ops_per_s and op_us_p50 on grid_sweep; query_mix little, "
                  "certify about 15%",
    "certify": "ops_per_s and op_us_p99 on certify; no change on grid_sweep "
               "and query_mix",
    "query_mix": "ops_per_s and op_us_p50 on query_mix",
    "setup": "setup_s on every workload (cli.run_cli: query_mix)",
}

IMPORT_RUNS = 5
CLI_CALLS = 300
UNTRACED_SHARE = 0.3

_EARLY_CERTIFICATES = (Certificate.SULEIMANOVA, Certificate.TWO_POSITIVE,
                       Certificate.DIRECT_SUM)
_PATTERNS = (Certificate.PATTERN_A, Certificate.PATTERN_B)


class Spans:
    """Span durations per layer name, and the names that were replays."""

    def __init__(self):
        self.times = defaultdict(list)
        self.replayed = set()
        self.counts = Counter()

    def call(self, name, fn, *args, **kwargs):
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        self.times[name].append(time.perf_counter() - t0)
        return out

    def replay(self, name, fn, *args):
        self.replayed.add(name)
        return self.call(name, fn, *args)

    def count_decision(self, d) -> None:
        self.counts["classify"] += 1
        self.counts["decided"] += d.verdict is not Verdict.UNKNOWN
        # every not_realizable reason of classify is decided before the gates
        self.counts["early"] += (d.verdict is Verdict.NOT_REALIZABLE
                                 or d.certificate in _EARLY_CERTIFICATES)

    def op_time(self) -> float:
        return sum(sum(v) for k, v in self.times.items() if k not in self.replayed)


def _traced_grid(wl, spans):
    def op(x):
        row = wl.op(x, spans.call)
        vals = (1.0, row.lambda2, row.lambda3, row.lambda4, row.lambda5)
        s = spans.replay("spectrum.SortedSpectrum", sn.SortedSpectrum, vals)
        d = spans.replay("classify.classify", sn.classify, s)
        spans.replay("pattern_a.compute_uvwr", sn.compute_uvwr, s)
        spans.replay("spectrum.elem_syms", sn.elem_syms, s)
        spans.count_decision(d)
        if d.verdict is Verdict.UNKNOWN or d.certificate in _PATTERNS:
            spans.replay("pattern_a.pattern_a_conditions", sn.pattern_a_conditions, s)
            if d.certificate is not Certificate.PATTERN_A:
                spans.replay("pattern_b.pattern_b_conditions",
                             sn.pattern_b_conditions, s)
                g = spans.replay("pattern_b.find_g", sn.find_g, s)
                spans.counts["g_found"] += g is not None
                q = sn.q_poly(s)
                spans.replay("cubic.real_roots", sn.real_roots, q.c3, q.c2, q.c1, q.c0)
        return row
    return op


def _traced_certify(wl, spans):
    def op(vals):
        res = wl.op(vals, spans.call)
        spans.replay("verify.sym_eigenvalues", sn.sym_eigenvalues, res.matrix)
        dev = res.report.max_deviation / max(1.0, abs(vals[0]))
        spans.counts["max_rel_deviation"] = max(spans.counts["max_rel_deviation"], dev)
        return res
    return op


def _traced_query(wl, spans):
    def op(inp):
        res = wl.op(inp, spans.call)
        if inp[1] is None:
            spans.count_decision(res)
        return res
    return op


TRACED = {"grid_sweep": _traced_grid, "certify": _traced_certify,
          "query_mix": _traced_query}


def _layer_metrics(name, spans) -> dict:
    out = {}
    total = spans.op_time()
    for layer in LAYERS[name]:
        times = spans.times[layer]
        out[f"{name}.{layer}.calls"] = (len(times), "count")
        out[f"{name}.{layer}.us_p50"] = (statistics.median(times) * 1e6, "us")
        out[f"{name}.{layer}.busy_share"] = (sum(times) / total, "ratio")
    return out


def _ratio_metrics(name, spans) -> dict:
    c = spans.counts
    out = {}
    if name in ("grid_sweep", "query_mix"):
        out[f"{name}.classify.decided_ratio"] = (c["decided"] / c["classify"], "ratio")
        out[f"{name}.classify.early_ratio"] = (c["early"] / c["classify"], "ratio")
    if name == "grid_sweep":
        t = spans.times
        finds = len(t["pattern_b.find_g"])
        out[f"{name}.pattern_b.g_found_ratio"] = (c["g_found"] / finds, "ratio")
        # a row's own work: the row minus the classify, compute_uvwr and
        # SortedSpectrum it makes, estimated from their replays on that row
        own = [r - a - b - c for r, a, b, c in zip(
            t["sampler.row"], t["classify.classify"], t["pattern_a.compute_uvwr"],
            t["spectrum.SortedSpectrum"])]
        out[f"{name}.sampler.row_self.us_p50"] = (statistics.median(own) * 1e6, "us")
        out[f"{name}.sampler.row_self.busy_share"] = (sum(own) / spans.op_time(), "ratio")
    if name == "certify":
        out[f"{name}.verify.max_rel_deviation"] = (c["max_rel_deviation"], "ratio")
    return out


def trace_workload(name, seed, seconds, tally) -> dict:
    """Untraced, then traced, loops over the same seeded inputs."""
    check = checks.CHECKS[name]
    plain = workloads.WORKLOADS[name](seed)
    # the untraced loop sees the same inputs as the traced one, which checks them
    untraced = harness.measure(plain.op, plain.inputs(), plain.chunk,
                               plain.warmup_ops, UNTRACED_SHARE * seconds,
                               check, tally, checked_ops=0)
    wl = workloads.WORKLOADS[name](seed)
    stream = wl.inputs()
    # warm up with the plain op, so spans start with the measured inputs
    harness.warm_up(wl.op, stream, wl.warmup_ops, wl.chunk)
    spans = Spans()
    traced = harness.measure(TRACED[name](wl, spans), stream, wl.chunk, 0,
                             (1.0 - UNTRACED_SHARE) * seconds, check, tally,
                             checked_ops=wl.trace_ops)
    out = _layer_metrics(name, spans)
    out.update(_ratio_metrics(name, spans))
    plain_rate = untraced.at_reference()["ops_per_s"]
    traced_rate = traced.at_reference()["ops_per_s"]
    out[f"{name}.untraced.ops_per_s"] = (plain_rate, "1/s")
    out[f"{name}.traced.ops_per_s"] = (traced_rate, "1/s")
    out[f"{name}.trace_overhead"] = (plain_rate / traced_rate, "ratio")
    return out


def import_times() -> dict:
    """Cumulative import time of sniep5 and numpy in fresh interpreters."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    cmd = [sys.executable, "-X", "importtime", "-c", "import sniep5"]
    samples = defaultdict(list)
    for k in range(IMPORT_RUNS + 1):  # the first run only warms caches
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=60, check=True)
        for line in proc.stderr.splitlines():
            fields = line.split("|")
            if k and len(fields) == 3 and fields[2].strip() in ("sniep5", "numpy"):
                samples[fields[2].strip()].append(int(fields[1]) / 1000.0)
    return {f"import.{pkg}_ms": (statistics.median(samples[pkg]), "ms")
            for pkg in ("sniep5", "numpy")}


def _check_cli(text, result) -> bool:
    """The CLI prints the verdict that classify gives for the same text."""
    if isinstance(result, Exception):
        return False
    code, output = result
    verdict = sn.classify(sn.sort_descending(sn.parse_spectrum(text))).verdict
    return code in (0, 1) and output.startswith(f"verdict: {verdict.value}\n")


def cli_metrics(seed, tally) -> dict:
    """``sniep5 check --spectrum=...`` in-process, on query_mix's strings."""
    texts = [text for text, _ in itertools.islice(
        workloads.QueryMix(seed).inputs(), CLI_CALLS)]

    def op(text):
        buf = io.StringIO()
        # the = form: argparse reads a leading "-0.5,..." as an option
        code = run_cli(["check", f"--spectrum={text}"], out=buf)
        return code, buf.getvalue()

    harness.run_chunk(op, texts[:20])
    results, latencies = harness.run_chunk(op, texts)
    tally.record(_check_cli, texts, results)
    return {"cli.run_cli.calls": (len(latencies), "count"),
            "cli.run_cli.us_p50": (statistics.median(latencies) * 1e6, "us")}


def traced_run(seed, seconds):
    """Trace every workload for a third of ``seconds`` each, then set-up."""
    tally = harness.Tally()
    metrics = {}
    for name in LAYERS:
        metrics.update(trace_workload(name, seed, seconds / len(LAYERS), tally))
    metrics.update(import_times())
    metrics.update(cli_metrics(seed, tally))
    for name, should in SHOULD_MOVE.items():
        print(f"layers of {name} should move: {should}")
    for key, (value, unit) in metrics.items():
        print(f"{key} {value:.6g} {unit}")
    sizes = {"layers": LAYERS, "cli_calls": CLI_CALLS, "import_runs": IMPORT_RUNS}
    return metrics, tally, sizes
