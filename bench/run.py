"""sniep5 benchmark: three closed-loop workloads, end to end and per layer.

Run from the repository root, with no install step:

    python3 bench/run.py --workload grid_sweep --seed 1 --seconds 20 --trace 0

``--trace 0`` times the named workload with tracing off and prints its
end-to-end metrics.  ``--trace 1`` is the separate traced run: it times the
layers of every workload (see layers.py), so one traced run gives the whole
per-layer table.  Human-readable lines come first; the last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.  ``attempted`` counts the ops whose output the run checked: the
first timed ops of the workload, a fixed number of them (``checked_ops`` in
workloads.py), so that it and ``failed`` depend on the seed alone.  Later
timed ops are timed only.  ``correct`` says that the run checked the output
of every op it attempted; ``failed`` counts the ops that raised or whose
answer the checks contradict.  Op times are process CPU time scaled to a reference host
speed (harness.py, reference.py); setup_s is wall-clock time.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

# the program is this checkout's src/, never an installed copy
sys.path.insert(0, str(SRC))
try:
    import sniep5
except ImportError as exc:
    raise SystemExit(f"error: cannot import sniep5 from {SRC}: {exc}")
if Path(sniep5.__file__).resolve().parent != SRC / "sniep5":
    raise SystemExit(f"error: imported sniep5 from {sniep5.__file__}, not {SRC}")

import numpy  # noqa: E402

import checks  # noqa: E402
import harness  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402

# fresh interpreters timed per run for setup_s; one more runs first, untimed,
# so byte-compiled files exist as they do for an installed package
SETUP_RUNS = 9

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_us_p50": "us",
    "op_us_p99": "us",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def measure_setup(workload: str, seed: int) -> float:
    """Median wall time from interpreter start to the first completed op."""
    cmd = [sys.executable, str(BENCH_DIR / "probe.py"), workload, str(seed)]
    times = []
    for k in range(SETUP_RUNS + 1):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            code = proc.wait(timeout=60)
        if line.strip() != "done" or code != 0:
            raise RuntimeError(f"set-up probe failed with exit code {code}")
        if k:
            times.append(elapsed)
    return statistics.median(times)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def host_record(args, sizes) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": _git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "sizes": sizes,
    }


def timed_run(args):
    wl = workloads.WORKLOADS[args.workload](args.seed)
    setup_s = measure_setup(args.workload, args.seed)
    tally = harness.Tally()
    m = harness.measure(wl.op, wl.inputs(), wl.chunk, wl.warmup_ops,
                        args.seconds, checks.CHECKS[args.workload], tally,
                        checked_ops=wl.checked_ops)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = m.at_reference()
    metrics["setup_s"] = setup_s
    metrics["peak_rss_mb"] = peak_kib * 1024 / 1e6
    units = END_TO_END_UNITS
    for name, value in metrics.items():
        print(f"{args.workload} {name} {value:.6g} {units[name]}")
    print(f"{args.workload} ops {tally.attempted} count")
    print(f"{args.workload} failed_ops {tally.failed} count")
    raw = m.raw()
    print(f"  ops_per_s and op_us_p50/p99: medians over {len(m.rates)} chunks "
          f"of {m.chunk} ops ({len(m.rates) * m.chunk} timed samples), at "
          f"reference host speed; as measured: {raw['ops_per_s']:.6g} 1/s, "
          f"p50 {raw['op_us_p50']:.6g} us, p99 {raw['op_us_p99']:.6g} us, "
          f"host speed {raw['host_speed']:.4g}x reference")
    print(f"  setup_s: median of {SETUP_RUNS} fresh interpreters, wall clock")
    sizes = wl.sizes()
    return {k: (v, units[k]) for k, v in metrics.items()}, tally, sizes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # one filter for the whole run, as acceptance test 08 sets it
    warnings.simplefilter("ignore", sniep5.BoundaryProximityWarning)
    if args.trace:
        metrics, tally, sizes = layers.traced_run(args.seed, args.seconds)
    else:
        metrics, tally, sizes = timed_run(args)
    tally.report()
    print("host " + json.dumps(host_record(args, sizes)))
    print(json.dumps({
        "correct": tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
