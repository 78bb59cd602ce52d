"""Deterministic region sweep: grid walk, filters, CSV rows."""
import hashlib
import importlib
import math
import warnings

import pytest

import sniep5 as sn
from sniep5 import Verdict
from sniep5.classify import _rules

EX1 = sn.SortedSpectrum((1000.0, 381.0, 360.0, -641.0, -750.0))


def _collect(grid_n, ts):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", sn.BoundaryProximityWarning)
        return list(sn.sample_region(grid_n, ts))


def _quiet_classify(s):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", sn.BoundaryProximityWarning)
        return sn.classify(s)


def test_grid_validation():
    with pytest.raises(ValueError):
        sn.sample_region(1, [0.2])
    # out-of-range trace values are skipped; nothing left to emit
    with pytest.raises(sn.EmptyGrid):
        _collect(4, [1.5])
    with pytest.raises(sn.EmptyGrid):
        _collect(4, [])


def test_determinism_and_input_order_insensitivity():
    a = [r.csv_row() for r in _collect(8, [0.0, 0.35])]
    b = [r.csv_row() for r in _collect(8, [0.35, 0.0])]
    assert len(a) > 0
    assert a == b


def _recount(n, ts):
    # plain nested re-walk of the documented box, with the trace filter
    # done through exact summation instead of the package route
    count = 0
    for t in sorted(ts):
        if not 0.0 <= t < 1.0:
            continue
        lo = (3.0 * t - 1.0) / 2.0
        for j in range(1, n + 1):
            x = t + (1.0 - t) * j / n
            for k in range(1, n + 1):
                d = lo + (t - lo) * k / n
                ymax = min(x, -x + 2.0 * d + 1.0 - t)
                if ymax <= t:
                    continue
                for l in range(1, n + 1):
                    y = t + (ymax - t) * l / n
                    vals = (1.0, x, y, d - x - y, t - d - 1.0)
                    if any(vals[i] < vals[i + 1] for i in range(4)):
                        continue
                    if vals[4] < -1.0:
                        continue
                    if math.fsum(vals) < 0.0:
                        continue
                    count += 1
    return count


def test_row_count_matches_independent_walk():
    # away from t = 0 the trace filter never activates, so the exact-sum
    # recount and the streamed rows must agree one for one
    assert len(_collect(7, [0.1, 0.35])) == _recount(7, [0.1, 0.35])


def test_rows_stay_in_region():
    for row in _collect(6, [0.35]):
        vals = (1.0, row.lambda2, row.lambda3, row.lambda4, row.lambda5)
        assert all(a >= b for a, b in zip(vals, vals[1:]))
        assert row.lambda5 >= -1.0
        assert row.lambda3 > 0.35 - 1e-12
        assert abs(row.e1 - 0.35) <= 1e-12
        s = sn.SortedSpectrum(vals)
        sc = sn.compute_uvwr(s)
        assert row.u == sc.u and row.r == sc.r


def test_boundary_plane_rows_present_and_flagged():
    rows = [r for r in _collect(5, [0.0]) if r.lambda5 == -1.0]
    assert rows
    for row in rows:
        assert row.verdict is Verdict.NOT_REALIZABLE
        assert row.tag == "negated_perron_boundary"


def test_rows_dropped_for_negative_trace_are_not_classified(monkeypatch):
    calls = []

    def counting(s):
        calls.append(s)
        return _rules(s)

    monkeypatch.setattr("sniep5.sampler._rules", counting)
    rows = _collect(24, [0.0, 0.1, 0.35])
    assert len(calls) == len(rows) == 18_290


def test_sweep_builds_no_decision_record(monkeypatch):
    # _decided builds every decision record; the package exports a function
    # named classify, so look the module up
    def refuse(*args):
        raise AssertionError("the sweep built a decision record")

    monkeypatch.setattr(importlib.import_module("sniep5.classify"), "_decided", refuse)
    with pytest.raises(AssertionError, match="decision record"):
        sn.classify(EX1)
    assert len(_collect(6, [0.1])) > 0


def test_boundary_warnings_name_the_code_that_iterates_the_sweep():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        list(sn.sample_region(24, [0, 0.1, 0.35]))
    assert len(caught) == 1_518
    assert {w.category for w in caught} == {sn.BoundaryProximityWarning}
    assert {w.filename for w in caught} == {__file__}


def test_trace_zero_slice_never_emits_negative_trace():
    for row in _collect(6, [0.0]):
        assert row.e1 >= 0.0


def test_verdict_mix_on_moderate_grid():
    tags = {row.tag for row in _collect(12, [0.35])}
    assert "pattern_a" in tags
    assert "" in tags  # undecided rows keep an empty tag


def test_csv_rows_parse_back():
    rows = _collect(10, [0.35])
    assert sn.CSV_HEADER == "lambda2,lambda3,lambda4,lambda5,e1,u,r,g,verdict,tag"
    for row in rows:
        cells = row.csv_row().split(",")
        assert len(cells) == 10
        for cell, value in zip(cells[:7], (row.lambda2, row.lambda3,
                                           row.lambda4, row.lambda5,
                                           row.e1, row.u, row.r)):
            assert float(cell) == pytest.approx(value, rel=1e-11)
        if row.g is None:
            assert cells[7] == ""
        else:
            assert float(cells[7]) == pytest.approx(row.g, rel=1e-11)
        assert cells[8] == row.verdict.value


def test_region_sample_is_a_tuple_in_csv_column_order():
    assert ",".join(sn.RegionSample._fields) == sn.CSV_HEADER
    rows = _collect(6, [0.1, 0.35])
    for row in rows:
        assert row == tuple(row)
        assert row.csv_row().split(",")[:7] == [f"{x:.12g}" for x in row[:7]]
    assert sn.RegionSample(*rows[0]) == rows[0]


def test_24_grid_row_bits_digest():
    # every float field's float.hex, the verdict value and the tag of every
    # row: the CSV's 12 significant digits cannot see a last-bit change in u
    # or r; recorded before u and r were read apart from v and w
    # each row also agrees with classify on its list, g by float.hex
    h = hashlib.sha256()
    n = 0
    for row in _collect(24, [0.0, 0.1, 0.35]):
        cells = [x.hex() for x in row[:7]]
        cells.append("" if row.g is None else row.g.hex())
        cells.append(row.verdict.value)
        cells.append(row.tag)
        h.update((",".join(cells) + "\n").encode())
        n += 1
        d = _quiet_classify(sn.SortedSpectrum((1.0, *row[:4])))
        assert d.verdict is row.verdict and sn.decision_tag(d) == row.tag
        assert (d.g is None and row.g is None) or d.g.hex() == row.g.hex()
    assert n == 18_290
    assert h.hexdigest() == (
        "80ac939e6bb81d562275a4ada367edbcdae606cea660ea462b98b904f88eefa7")


def test_decision_tag_of_every_member():
    for c in sn.Certificate:
        d = sn.RealizabilityDecision(Verdict.REALIZABLE, certificate=c)
        assert sn.decision_tag(d) == c.value
    for r in sn.Reason:
        d = sn.RealizabilityDecision(Verdict.NOT_REALIZABLE, reason=r)
        assert sn.decision_tag(d) == r.value
    assert sn.decision_tag(sn.RealizabilityDecision(Verdict.UNKNOWN)) == ""


def test_decision_tag():
    assert sn.decision_tag(sn.classify(EX1)) == "pattern_a"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", sn.BoundaryProximityWarning)
        bd = sn.classify(sn.SortedSpectrum((1.0, 0.9, 0.85, -0.95, -1.0)))
    assert sn.decision_tag(bd) == "negated_perron_boundary"
    unk = sn.classify(sn.SortedSpectrum((1.0, 0.415, 0.3565, -0.6815, -0.74)))
    assert sn.decision_tag(unk) == ""


def test_normalized_golden_point_keeps_its_verdict():
    # grid points live on the lam1 = 1 slice; scaling a known spectrum
    # into that slice must not change how it classifies
    d = sn.classify(sn.scale(EX1, 1.0 / EX1.lam1))
    assert d.certificate is sn.Certificate.PATTERN_A
