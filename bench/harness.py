"""The timed loop shared by the timed and the traced runs.

One caller runs ops back to back (a closed loop).  Each op is timed on its
own; inputs are drawn and outputs checked between chunks, outside the timed
region.  A loop checks the outputs of its first ``checked_ops`` ops, a fixed
number per workload, and runs at least that many; so the ops checked, and
the failures among them, depend on the seed alone and not on how many ops
the host gets through in the time given.  Statistics are kept per chunk, so
memory does not grow with the number of ops, and reported as medians over
chunks, which a stray slow stretch on a shared host moves less than a mean.

An op's time is the process CPU time it took.  sniep5 is single-threaded
and does no I/O, so on an idle host this equals its wall-clock latency; on
a shared host it leaves out the time the process waits while other tenants
run, which on a 2-core machine put 1-10 ms stalls into a quarter of the
certify chunks and spread wall-clock p99 by 17% between runs.  Each chunk's
times are then scaled to the reference host speed (see reference.py); the
raw medians and the host speed are kept alongside for the report.
"""

from __future__ import annotations

import itertools
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field

import reference
from checks import failure_kind


@dataclass
class Tally:
    """Checked-op counts, failures by kind and the first failing input."""

    attempted: int = 0
    failed: int = 0
    kinds: Counter = field(default_factory=Counter)
    first_failure: str | None = None

    def record(self, check, inputs, results) -> None:
        for x, y in zip(inputs, results):
            self.attempted += 1
            try:
                ok = check(x, y)
            except Exception as exc:  # a check that raises is a failed op
                ok, y = False, exc
            if not ok:
                self.failed += 1
                self.kinds[failure_kind(y)] += 1
                if self.first_failure is None:
                    self.first_failure = f"input {x!r} gave {y!r}"

    def report(self) -> None:
        if self.failed:
            kinds = ", ".join(f"{k} {n}" for k, n in self.kinds.most_common())
            print(f"failed ops by answer: {kinds}")
            print(f"first failed op: {self.first_failure}")


@dataclass
class Measurement:
    """Per-chunk rate, p50 and p99, with the host speed during the chunk."""

    chunk: int
    rates: list = field(default_factory=list)
    p50s: list = field(default_factory=list)
    p99s: list = field(default_factory=list)
    speeds: list = field(default_factory=list)

    def add(self, latencies, speed) -> None:
        cuts = statistics.quantiles(latencies, n=100, method="inclusive")
        self.rates.append(len(latencies) / sum(latencies))
        self.p50s.append(cuts[49])
        self.p99s.append(cuts[98])
        self.speeds.append(speed)

    def at_reference(self) -> dict:
        """Medians over chunks, each chunk scaled to reference host speed."""
        sp = self.speeds
        return {
            "ops_per_s": statistics.median(r / s for r, s in zip(self.rates, sp)),
            "op_us_p50": statistics.median(p * s for p, s in zip(self.p50s, sp)) * 1e6,
            "op_us_p99": statistics.median(p * s for p, s in zip(self.p99s, sp)) * 1e6,
        }

    def raw(self) -> dict:
        """Medians over chunks as measured, and the median host speed."""
        return {
            "ops_per_s": statistics.median(self.rates),
            "op_us_p50": statistics.median(self.p50s) * 1e6,
            "op_us_p99": statistics.median(self.p99s) * 1e6,
            "host_speed": statistics.median(self.speeds),
        }


def run_chunk(op, inputs, keep=True):
    """Run ``op`` over ``inputs``, one caller, each op timed on its own.

    With ``keep`` false the results are dropped as they come, outside the
    timed region.  Results kept for a chunk are objects the program did not
    free, and their count sets off the collector's youngest generation: in
    a kept certify chunk about 1.2% of ops paid for a collection, which put
    the p99 on the edge between ops with and without one.
    """
    results, latencies = [], []
    clock = time.process_time
    for x in inputs:
        t0 = clock()
        try:
            y = op(x)
        except Exception as exc:  # a raising op is a failed op, not a crash
            y = exc
        latencies.append(clock() - t0)
        if keep:
            results.append(y)
        y = None  # free the result here, not inside the next op's time
    return results, latencies


def warm_up(op, stream, ops, chunk) -> None:
    """Run ``ops`` untimed ops, a chunk at a time so no results pile up."""
    for done in range(0, ops, chunk):
        run_chunk(op, list(itertools.islice(stream, min(chunk, ops - done))),
                  keep=False)


def measure(op, stream, chunk, warmup_ops, seconds, check, tally,
            checked_ops) -> Measurement:
    """Warm up, then time chunks of ops until ``seconds`` have passed.

    At least one chunk runs, and at least ``checked_ops`` ops.  The outputs
    of the first ``checked_ops`` timed ops are checked; later ops are timed
    only.

    Inputs are drawn and outputs checked outside the timed region; neither
    is kept past its chunk, so memory does not grow with the op count.
    """
    warm_up(op, stream, warmup_ops, chunk)
    m = Measurement(chunk)
    end = time.perf_counter() + seconds
    done = 0
    while not m.rates or time.perf_counter() < end or done < checked_ops:
        inputs = list(itertools.islice(stream, chunk))
        n = max(0, min(len(inputs), checked_ops - done))
        results, latencies = run_chunk(op, inputs, keep=n > 0)
        m.add(latencies, reference.host_speed())
        tally.record(check, inputs[:n], results[:n])
        done += len(inputs)
    return m
