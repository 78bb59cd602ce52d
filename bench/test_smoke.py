"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest bench/test_smoke.py

Runs each workload for half a second and one traced run, and checks that
every metric BENCHMARK.json names is printed with its unit, that the ops a
run checks, and the failures among them, do not depend on how long it runs,
and that the checks reject contradicted answers.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import sniep5 as sn  # noqa: E402
from sniep5 import Certificate, Reason, RealizabilityDecision, Verdict  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload, trace, seconds=0.5):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def _assert_metrics(result, wanted):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert 0 <= result["failed"] <= result["attempted"]
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in wanted}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_timed_run_prints_every_end_to_end_metric(workload):
    lines, result = _run(workload, 0)
    _assert_metrics(result, SPEC["end_to_end"])
    assert f"{workload} ops {result['attempted']} count" in lines
    assert f"{workload} failed_ops {result['failed']} count" in lines


def test_checked_ops_do_not_depend_on_run_length():
    _, short = _run("query_mix", 0)
    _, longer = _run("query_mix", 0, seconds=8)
    assert short["attempted"] == longer["attempted"] == workloads.QueryMix.checked_ops
    assert short["failed"] == longer["failed"]


def test_traced_run_prints_every_per_layer_metric():
    lines, result = _run("query_mix", 1)
    _assert_metrics(result, SPEC["per_layer"])
    assert any(line.startswith("layers of grid_sweep should move:") for line in lines)


def test_checks_reject_contradicted_answers():
    typed = ("0.50,-0.50,0.00,0.25,-0.25", None)  # sums to exactly zero
    false_proof = RealizabilityDecision(Verdict.NOT_REALIZABLE,
                                        reason=Reason.TRACE_VIOLATED)
    assert not checks.check_query(typed, false_proof)
    wrong_certificate = RealizabilityDecision(Verdict.REALIZABLE,
                                              certificate=Certificate.SULEIMANOVA)
    assert not checks.check_query(typed, wrong_certificate)

    row = next(sn.sample_region(6, [0.1]))
    assert checks.check_grid(None, row)
    assert not checks.check_grid(None, sn.RegionSample(
        row.lambda2, row.lambda3, row.lambda4, row.lambda5, row.e1, row.u,
        row.r, row.g, Verdict.NOT_REALIZABLE, Reason.TRACE_VIOLATED.value))

    assert not checks.check_certify((1.0,) * 5, ValueError("raised"))
