"""End-to-end command-line behavior: output shapes, exit codes, files."""
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

import sniep5 as sn
from sniep5.cli import run_cli

# grid sweeps legitimately touch the lam5 == -lam1 plane
pytestmark = pytest.mark.filterwarnings(
    "ignore::sniep5.errors.BoundaryProximityWarning")

EX1 = "1000,381,360,-641,-750"
EX2 = "1000,370,367,-637,-750"
UNKNOWN = "1,0.415,0.3565,-0.6815,-0.74"


def run(*argv):
    out = io.StringIO()
    code = run_cli(list(argv), out=out)
    return code, out.getvalue()


def test_check_text_golden():
    code, text = run("check", "--spectrum", EX1)
    assert code == 0
    assert "verdict: realizable" in text
    assert "certificate: pattern_a" in text
    assert "r=306540" in text


def test_python_dash_m_runs_the_cli():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-m", "sniep5", "check", f"--spectrum={EX1}"],
        capture_output=True, text=True, env=env, check=False)
    assert proc.returncode == 0
    assert proc.stdout == run("check", "--spectrum", EX1)[1]


def test_check_accepts_unsorted_input():
    code, text = run("check", "--spectrum", "360,1000,-750,381,-641")
    assert code == 0
    assert "certificate: pattern_a" in text


def test_check_json_with_verification():
    code, text = run("check", "--spectrum", EX2, "--format", "json", "--verify")
    assert code == 0
    payload = json.loads(text)
    assert payload["verdict"] == "realizable"
    assert payload["certificate"] == "pattern_b"
    npt.assert_allclose(payload["g"], 174.23919393152335, rtol=1e-12)
    assert payload["verification"]["pass"] is True


def test_check_unknown_exit_code():
    code, text = run("check", "--spectrum", UNKNOWN)
    assert code == 1
    assert "verdict: unknown" in text


def test_check_rejects_malformed_spectrum():
    code, _ = run("check", "--spectrum", "1,2,3")
    assert code == 2


def test_realize_matrix_round_trip(tmp_path):
    code, text = run("realize", "--spectrum", EX1, "--format", "json")
    assert code == 0
    payload = json.loads(text)
    entries = np.array(payload["matrix"])
    assert entries.shape == (5, 5)
    assert payload["verification"]["pass"] is True
    # the emitted matrix survives a file round trip through the verifier
    path = tmp_path / "matrix.json"
    path.write_text(json.dumps(payload["matrix"]))
    code2, text2 = run("verify", "--spectrum", EX1, "--matrix", str(path))
    assert code2 == 0
    assert "verification: pass" in text2


def test_realize_text_matrix_parses(tmp_path):
    code, text = run("realize", "--spectrum", EX2)
    assert code == 0
    assert "matrix:" in text
    block = text.split("matrix:\n", 1)[1]
    rows = block.splitlines()[:5]
    path = tmp_path / "matrix.txt"
    path.write_text("\n".join(rows) + "\n")
    code2, _ = run("verify", "--spectrum", EX2, "--matrix", str(path))
    assert code2 == 0


def test_realize_notes_decision_only_certificates():
    code, text = run("realize", "--spectrum", "1,-0.1,-0.2,-0.3,-0.35")
    assert code == 0
    assert "certificate: suleimanova" in text
    assert "note:" in text
    assert "matrix:" not in text


def test_realize_unknown_exit_code():
    code, _ = run("realize", "--spectrum", UNKNOWN)
    assert code == 1


def test_qroots_text_marks_selected_root():
    code, text = run("qroots", "--spectrum", EX2)
    assert code == 0
    assert "<- g" in text
    code1, text1 = run("qroots", "--spectrum", EX1)
    assert code1 == 0
    assert "g: none in range" in text1


def test_qroots_json_golden():
    code, text = run("qroots", "--spectrum", EX1, "--format", "json")
    assert code == 0
    payload = json.loads(text)
    assert payload["coefficients"] == [2.0, 780.0, -169279.0, -5139810.0]
    npt.assert_allclose(payload["roots"],
                        [-538.35237219, -27.19321311, 175.5455853], atol=1e-5)
    assert payload["g"] is None


def test_perturb_closure_json():
    code, text = run("perturb", "--spectrum", EX1, "--i", "2",
                     "--sign", "minus", "--s", "10", "--format", "json")
    assert code == 0
    payload = json.loads(text)
    assert payload["rule"] == "pattern_a_closure"
    assert payload["certificate"] == "guo_closure"
    assert payload["perturbed"] == [1010.0, 371.0, 360.0, -641.0, -750.0]
    assert payload["matrix"] is not None


def test_perturb_direct_unknown_exit_code():
    code, _ = run("perturb", "--spectrum", UNKNOWN, "--i", "4",
                  "--sign", "plus", "--s", "1e-6")
    assert code == 1


def test_perturb_rejects_bad_size():
    code, _ = run("perturb", "--spectrum", EX1, "--i", "2",
                  "--sign", "minus", "--s", "-1")
    assert code == 2


def test_sample_csv_deterministic():
    code_a, text_a = run("sample", "--grid", "9", "--t", "0.1", "--t", "0.35")
    code_b, text_b = run("sample", "--grid", "9", "--t", "0.1", "--t", "0.35")
    assert code_a == code_b == 0
    assert text_a == text_b
    lines = text_a.strip().split("\n")
    assert lines[0] == sn.CSV_HEADER
    assert len(lines) > 100


def test_sample_csv_digest():
    # recorded before e1..e5 were stored per spectrum; the bytes must not move
    code, text = run("sample", "--grid", "12", "--t", "0", "--t", "0.1",
                     "--t", "0.35")
    assert code == 0
    assert len(text.splitlines()) == 2218
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "c4c389dca7581e0af6ae8fd771a78f13032fff251b46f537d1440d9e93e5f3ee")


def test_sample_to_file_matches_stdout(tmp_path):
    _, text = run("sample", "--grid", "6", "--t", "0.35")
    path = tmp_path / "sweep.csv"
    code, piped = run("sample", "--grid", "6", "--t", "0.35",
                      "--out", str(path))
    assert code == 0
    assert piped == ""
    assert path.read_text() == text


def test_sample_with_verification():
    code, text = run("sample", "--grid", "8", "--t", "0.35", "--verify")
    assert code == 0
    assert "pattern_a" in text


def test_sample_rejects_small_grid():
    code, _ = run("sample", "--grid", "1", "--t", "0.35")
    assert code == 2


def test_sample_empty_grid_is_usage_error():
    code, _ = run("sample", "--grid", "5", "--t", "1.5")
    assert code == 2


def test_verify_detects_wrong_spectrum(tmp_path):
    mat = sn.build_pattern_a(sn.SortedSpectrum((1000.0, 381.0, 360.0,
                                                -641.0, -750.0)))
    path = tmp_path / "matrix.txt"
    path.write_text(mat.format_text() + "\n")
    code, text = run("verify", "--spectrum", "1000,382,360,-641,-750",
                     "--matrix", str(path))
    assert code == 3
    assert "FAIL" in text


def test_verify_missing_file_is_usage_error(tmp_path):
    code, _ = run("verify", "--spectrum", EX1,
                  "--matrix", str(tmp_path / "absent.txt"))
    assert code == 2


def test_verify_rejects_asymmetric_file(tmp_path):
    rows = [["0"] * 5 for _ in range(5)]
    rows[0][1] = "2"
    path = tmp_path / "bad.txt"
    path.write_text("\n".join(" ".join(r) for r in rows) + "\n")
    code, _ = run("verify", "--spectrum", EX1, "--matrix", str(path))
    assert code == 2


def test_help_exits_cleanly():
    code, _ = run("--help")
    assert code == 0


def test_missing_subcommand_is_usage_error():
    code, _ = run()
    assert code == 2
