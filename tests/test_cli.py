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


def _refuse(constant):
    raise ValueError(f"{constant} is not JSON")


@pytest.mark.filterwarnings("ignore::sniep5.errors.BoundaryProximityWarning")
@pytest.mark.parametrize("spectrum,code,verdict,nulls", [
    ("1e100,0.415e100,0.3565e100,-0.6815e100,-0.74e100", 1, "unknown", []),
    ("1e200,0.415e200,0.3565e200,-0.6815e200,-0.74e200", 1, "unknown",
     ["r", "u"]),
    ("1e308,0.9e308,0.8e308,-0.95e308,-1e308", 0, "not_realizable",
     ["e1", "r", "u", "mn_sum"]),
], ids=["1e100", "1e200", "1e308"])
def test_check_json_is_valid_for_huge_lists(spectrum, code, verdict, nulls):
    # a detail that overflows to inf or NaN is written as null
    got, text = run("check", "--spectrum", spectrum, "--format", "json")
    assert got == code
    payload = json.loads(text, parse_constant=_refuse)
    assert payload["verdict"] == verdict
    assert [k for k, x in payload["details"].items() if x is None] == nulls


@pytest.mark.parametrize("spectrum,message", [
    ("1,2,3", "expected 5 comma-separated values, got 3"),
    ("1,x,3,4,5", "non-numeric entry in ('1', 'x', '3', '4', '5')"),
], ids=["count", "non_numeric"])
def test_check_rejects_malformed_spectrum(capsys, spectrum, message):
    code, text = run("check", "--spectrum", spectrum)
    assert (code, text) == (2, "")
    assert capsys.readouterr().err == f"error: {message}\n"


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


def test_qroots_marks_g_among_the_roots_off_unit_scale():
    # find_g solves Q at unit scale; solved at this list's scale, Q's root
    # lies one ulp from g, which would read as a clamped g
    code, text = run("qroots", "--spectrum", "8.0,3.3530829344247994,"
                     "2.003729119534817,-5.903409204387355,-5.972145140541642")
    assert code == 0
    assert "root: 0.38876312855166711  <- g" in text
    assert "clamped" not in text


def test_qroots_no_g_when_trace_a_hair_below_zero():
    # e1 is about -1e-12, so [0, e1/2] is empty; e1/2 is not a root
    code, text = run("qroots", "--spectrum",
                     "0.8577167397489156,0.6715302078397394,"
                     "-0.13446586418989326,-0.4514760364437743,"
                     "-0.9433050469559874")
    assert code == 0
    assert text.endswith("g: none in range\n")
    assert "clamped" not in text


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


DIRECT_SUM = "1,0.9,0.3,-0.5,-0.6"
# one list per verdict that classify reaches before the pattern gates
PERRON = "1,0,0,-0.5,-1.5"
TRACE = "1,0,-0.5,-0.5,-0.5"
MN = "3,2.9,-1.9,-2,-2"
BOUNDARY = "1,0.9,0.85,-0.95,-1"
SULEIMANOVA = "1,-0.1,-0.2,-0.3,-0.35"
TWO_POSITIVE = "1,0.5,0,-0.7,-0.75"


@pytest.mark.parametrize("argv,exit_code,digest", [
    (("realize", "--spectrum", EX1), 0,
     "0724d3954436ca10cda9e111763f374b4ea952c033552905ba9e418682de6d71"),
    (("realize", "--spectrum", EX1, "--format", "json"), 0,
     "61142e50b99ca9a13c891c69a54c04dd76438ebdd029a19743e5c92d144cefe6"),
    (("realize", "--spectrum", EX2), 0,
     "43b76019403a5f2c7b95f7be1ab0d8c066e7da68bae97d3185cf80b3f2f314ad"),
    (("realize", "--spectrum", EX2, "--format", "json"), 0,
     "16e1347321ac899bd993ed44c4e8f7dab8d9e864f5e539b173e6f60b9cb3ac7c"),
    (("perturb", "--spectrum", EX1, "--i", "2", "--sign", "minus", "--s", "10"),
     0, "38f435bd83326f30fc4fd2a2b19c7fed0619f82e921e7648bf23780cbd8f9262"),
    (("perturb", "--spectrum", EX1, "--i", "2", "--sign", "minus", "--s", "10",
      "--format", "json"), 0,
     "b412bdb2bf575562ebf23f824519036cf1e321eb7404902d3bb22ebb39bfa648"),
    (("check", "--spectrum", EX1, "--verify"), 0,
     "8b3fdb680f12d1e3f2fb8ada81e3511a0021879503f4cfc68f0201b99a39781b"),
    (("check", "--spectrum", EX1, "--verify", "--format", "json"), 0,
     "790ca705ee152ba34b135493d73b0239c13692b070d49624d7f33ffd30c04b03"),
    (("check", "--spectrum", EX2, "--verify"), 0,
     "8746d69f6feb711b30d556ba2542dc7c9b85bbe3d5426d4e5ef9cfa937848e1e"),
    (("check", "--spectrum", EX2, "--verify", "--format", "json"), 0,
     "52cb8015a8b9fd9072060a8e436f2de9d8d968d3703e591ec203f70a08a3bea3"),
    (("realize", "--spectrum", DIRECT_SUM), 0,
     "99b23f55cc552c1dc2f46930ecb569cda607c3de7fd7d4887609d0c41c303dc8"),
    (("realize", "--spectrum", DIRECT_SUM, "--format", "json"), 0,
     "ef9faaa705a543aeb843a83f1c7f56c674b297fb1930c60f9c25d57a0edc1277"),
    (("check", "--spectrum", UNKNOWN), 1,
     "ebd4a2f245c372298fe78d845335865be97271db2c7747bffa9fcadd7aade6da"),
    (("realize", "--spectrum", UNKNOWN), 1,
     "ebd4a2f245c372298fe78d845335865be97271db2c7747bffa9fcadd7aade6da"),
    (("check", "--spectrum", PERRON), 0,
     "534cd57db1f7aa6901eb75fa0a86ae555dd534b1412b7465209d74f21a08b7a5"),
    (("check", "--spectrum", PERRON, "--format", "json"), 0,
     "4c3486e1b0a174947385d3997d02c1a708158e8790360c8f8796418e165f33bc"),
    (("check", "--spectrum", TRACE), 0,
     "524835ad680690ca62f32d15ec6efbf7bd4f57a60caece334c63686e8859b78f"),
    (("check", "--spectrum", TRACE, "--format", "json"), 0,
     "f3af234d312d59155624c4671accf4fb5638d9123f069d343b0c40ad76bd075f"),
    (("check", "--spectrum", MN), 0,
     "d5a0308ed417676020ca77b4af2b695d5388a4dbf699b51c11854cc6eea282d3"),
    (("check", "--spectrum", MN, "--format", "json"), 0,
     "8368c6e4379e11a5fec01544d0e027354b1442cd69808f4d4b46ccf79307a058"),
    (("check", "--spectrum", BOUNDARY), 0,
     "23a1b5d1faee98e93a9a64a39749b62023fbe8fe04e0d365602ccec8232fdf56"),
    (("check", "--spectrum", BOUNDARY, "--format", "json"), 0,
     "dd427cc2ea06774becca728f0c5b6fb43c038cf9ee8db19548d92dd24d070782"),
    (("check", "--spectrum", SULEIMANOVA), 0,
     "349967508068def14ba1b71b6a5d64237b9e6f744f033c556d3744e0f5bc94dd"),
    (("check", "--spectrum", SULEIMANOVA, "--format", "json"), 0,
     "ac150b524e2f76c0cf86531728b807e6ad359b79b81129e436e6a1743d56a176"),
    (("check", "--spectrum", TWO_POSITIVE), 0,
     "4ac964fa35a37b353e9e74059fdd4d71e15f112b7ad13c8503a5bc8d6fb6d4a0"),
    (("check", "--spectrum", TWO_POSITIVE, "--format", "json"), 0,
     "252fcb008e0f612dca6a070824560c78179608a9cfbe764818e1f837301f37c4"),
], ids=["realize-ex1-text", "realize-ex1-json", "realize-ex2-text",
        "realize-ex2-json", "perturb-ex1-text", "perturb-ex1-json",
        "check-verify-ex1-text", "check-verify-ex1-json",
        "check-verify-ex2-text", "check-verify-ex2-json",
        "realize-note-text", "realize-note-json",
        "check-unknown-text", "realize-unknown-text",
        "check-perron-text", "check-perron-json",
        "check-trace-text", "check-trace-json",
        "check-mn-text", "check-mn-json",
        "check-boundary-text", "check-boundary-json",
        "check-suleimanova-text", "check-suleimanova-json",
        "check-two-positive-text", "check-two-positive-json"])
def test_readme_example_digest(argv, exit_code, digest):
    # recorded before every certificate was built through realize; the
    # check/realize cases before the two commands shared one handler; the
    # early-exit check cases before decision details were read on demand
    code, text = run(*argv)
    assert code == exit_code
    assert hashlib.sha256(text.encode()).hexdigest() == digest


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


def test_sample_rejects_small_grid(capsys):
    code, text = run("sample", "--grid", "1", "--t", "0.35")
    assert (code, text) == (2, "")
    assert capsys.readouterr().err == "error: grid_n must be at least 2, got 1\n"


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


def test_verify_fails_a_matrix_whose_norm_overflows(tmp_path):
    big = [[0.0] * 5 for _ in range(5)]
    big[0][1] = big[1][0] = 1e160
    # and a tiny matrix far from a tiny target: the tolerance is relative
    # to max|lam_i|, not to max(1, lam1)
    tiny = [[0.0] * 5 for _ in range(5)]
    tiny[0][0] = 1e-30
    for name, rows, target in [("big", big, "0,0,0,0,0"),
                               ("tiny", tiny, "4e-30,2e-30,1e-30,-3e-30,-4e-30")]:
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(rows))
        code, text = run("verify", "--spectrum", target, "--matrix", str(path))
        assert code == 3, name
        assert "FAIL" in text


@pytest.mark.parametrize("tol", ["inf", "nan"])
def test_verify_refuses_a_non_finite_tolerance(tmp_path, capsys, tol):
    # diag(0, 0, 0, 0, 1) is nowhere near EX1; an infinite tolerance passed it
    rows = [["0"] * 5 for _ in range(5)]
    rows[4][4] = "1"
    path = tmp_path / "diag.txt"
    path.write_text("\n".join(" ".join(r) for r in rows) + "\n")
    code, text = run("verify", "--spectrum", EX1, "--matrix", str(path),
                     "--tol", tol)
    assert (code, text) == (2, "")
    assert capsys.readouterr().err.endswith(
        f"error: argument --tol: must be finite and positive, got {tol}\n")


@pytest.mark.parametrize("argv", [
    ("check", "--spectrum", EX1, "--verify"),
    ("check", "--spectrum", EX2, "--verify", "--format", "json"),
    ("sample", "--grid", "6", "--t", "0.35", "--verify"),
    # no matrix is ever verified here: the tolerance is refused all the same
    ("check", "--spectrum", UNKNOWN, "--verify"),
    ("sample", "--grid", "2", "--t", "0.0", "--verify"),
    ("realize", "--spectrum", UNKNOWN),
])
@pytest.mark.parametrize("tol", ["inf", "nan", "0", "-0.5"])
def test_tolerance_is_refused_at_parse_time(capsys, argv, tol):
    code, text = run(*argv, "--tol", tol)
    assert (code, text) == (2, "")
    assert capsys.readouterr().err.endswith(
        f"error: argument --tol: must be finite and positive, got {tol}\n")


def test_tolerance_that_is_not_a_number_is_refused(capsys):
    code, text = run("check", "--spectrum", EX1, "--verify", "--tol", "tight")
    assert (code, text) == (2, "")
    assert capsys.readouterr().err.endswith(
        "error: argument --tol: not a number: 'tight'\n")


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


def _json_rows(rows):
    return "[" + ",".join("[" + ",".join(row) + "]" for row in rows) + "]"


_ZERO_ROWS = [["0"] * 5 for _ in range(5)]


@pytest.mark.parametrize("payload", [
    pytest.param(_json_rows(_ZERO_ROWS[:4] + [["0"] * 4]), id="ragged_rows"),
    pytest.param(_json_rows([["[0]"] + ["0"] * 4] + _ZERO_ROWS[1:]),
                 id="nested_entry"),
    pytest.param(_json_rows([["null"] + ["0"] * 4] + _ZERO_ROWS[1:]), id="null"),
    pytest.param(_json_rows([["NaN"] + ["0"] * 4] + _ZERO_ROWS[1:]), id="nan"),
    pytest.param(_json_rows([["0"] * 4 for _ in range(4)]), id="four_by_four"),
    pytest.param('["11111","11111","11111","11111","11111"]', id="text_rows"),
    pytest.param("0 0 0 0 0\n0 zero 0 0 0\n" + "0 0 0 0 0\n" * 3,
                 id="word_in_text"),
])
def test_verify_rejects_malformed_matrix_file(tmp_path, capsys, payload):
    path = tmp_path / "bad.txt"
    path.write_text(payload)
    code, text = run("verify", "--spectrum", EX1, "--matrix", str(path))
    err = capsys.readouterr().err.splitlines()
    assert code == 2
    assert text == ""
    assert len(err) == 1 and err[0].startswith("error: ")


def test_help_exits_cleanly():
    code, _ = run("--help")
    assert code == 0


def test_missing_subcommand_is_usage_error():
    code, _ = run()
    assert code == 2
