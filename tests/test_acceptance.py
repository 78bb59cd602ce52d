"""Acceptance sweep for the whole package.

Nine criteria, each recording one checklist line that the terminal-summary
hook in conftest echoes after the run.  Golden numbers here are frozen from
independent derivations exercised in the module suites; region suites
rejection-sample the normalized box and must pass at 100%.
"""
import time
import warnings

import numpy as np
import pytest

import sniep5 as sn
from sniep5 import Certificate, Verdict
from sniep5.pattern_b import compute_klm
import conftest
from support import (
    assert_ident,
    closure_size,
    sample_trace_zero_realizable,
    sample_until,
    terms_scale,
)

EX1 = sn.SortedSpectrum((1000.0, 381.0, 360.0, -641.0, -750.0))
EX2 = sn.SortedSpectrum((1000.0, 370.0, 367.0, -637.0, -750.0))

B_DRAW = dict(t_lo=0.15, t_hi=0.45, x_pow=5, y_top=0.3)

SUITE_N = 10_000
CLOSURE_N = 1_000


def _report(num, name, ok, detail=""):
    line = f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    conftest.acceptance_lines.append(line)


def _gate_a(s):
    return bool(sn.pattern_a_conditions(s))


def _gate_b(s):
    return bool(sn.pattern_b_conditions(s))


def _gate_b_neg_r(s):
    return _gate_b(s) and sn.compute_uvwr(s).r < 0.0


@pytest.fixture(scope="module")
def suite_a():
    rng = np.random.default_rng(20240)
    t0 = time.perf_counter()
    samples = sample_until(rng, _gate_a, SUITE_N)
    built = [(s, sn.build_pattern_a(s)) for s in samples]
    reports = [sn.verify_spectrum(m, s, rel_tol=1e-8) for s, m in built]
    elapsed = time.perf_counter() - t0
    return built, reports, elapsed


@pytest.fixture(scope="module")
def suite_b():
    rng = np.random.default_rng(20241)
    t0 = time.perf_counter()
    samples = sample_until(rng, _gate_b, SUITE_N, **B_DRAW)
    built = [(s, sn.build_pattern_b(s, sn.find_g(s))) for s in samples]
    reports = [sn.verify_spectrum(m, s, rel_tol=1e-8) for s, m in built]
    elapsed = time.perf_counter() - t0
    return built, reports, elapsed


def test_01_first_example_five_cycle():
    es = sn.elem_syms(EX1)
    sc = sn.compute_uvwr(EX1)
    mat = sn.build_pattern_a(EX1)  # warm the path before timing
    t0 = time.perf_counter()
    mat = sn.build_pattern_a(EX1)
    rep = sn.verify_spectrum(mat, EX1, rel_tol=1e-9)
    elapsed = time.perf_counter() - t0

    ok = (
        es.e1 == 350.0
        and sc.r == 306540.0
        and bool(sn.pattern_a_conditions(EX1))
        and bool(np.all(np.asarray(mat) >= 0.0))
        and rep.passed
        and elapsed < 0.010
    )
    _report(1, "first example, five-cycle build", ok,
            f"max dev {rep.max_deviation:.2e}, {elapsed * 1e3:.2f} ms")
    assert es.e1 == 350.0 and sc.r == 306540.0
    assert sn.pattern_a_conditions(EX1).passed
    assert np.all(np.asarray(mat) >= 0.0)
    assert rep.passed
    assert elapsed < 0.010


def test_02_first_example_cubic_roots():
    q = sn.q_poly(EX1)
    roots = sn.real_roots(q.c3, q.c2, q.c1, q.c0)
    g = sn.find_g(EX1)

    coeffs_ok = (q.c3, q.c2, q.c1, q.c0) == (2.0, 780.0, -169279.0, -5139810.0)
    roots_ok = len(roots) == 3 and np.allclose(
        roots, [-538.3523722, -27.19321311, 175.5455853], atol=1e-5)
    ok = coeffs_ok and roots_ok and g is None
    _report(2, "first example, cubic roots and no admissible g", ok,
            "roots " + ", ".join(f"{r:.4f}" for r in roots))
    assert coeffs_ok
    assert roots_ok
    assert g is None


def test_03_second_example_two_paths():
    sc = sn.compute_uvwr(EX2)
    q = sn.q_poly(EX2)
    roots = sn.real_roots(q.c3, q.c2, q.c1, q.c0)
    g = sn.find_g(EX2)
    mat = sn.build_pattern_b(EX2, g)  # warmup
    t0 = time.perf_counter()
    mat = sn.build_pattern_b(EX2, g)
    rep = sn.verify_spectrum(mat, EX2, rel_tol=1e-9)
    elapsed = time.perf_counter() - t0

    coeffs_ok = (q.c3, q.c2, q.c1, q.c0) == (2.0, 766.0, -189010.0, -901830.0)
    roots_ok = len(roots) == 3 and np.allclose(
        roots, [-552.5556695, -4.683524431, 174.2391939], atol=1e-5)
    ok = (
        sc.r == -127980.0
        and coeffs_ok
        and roots_ok
        and g is not None
        and abs(g - 174.2391939) < 1e-5
        and bool(np.all(np.asarray(mat) >= 0.0))
        and rep.passed
        and elapsed < 0.010
    )
    _report(3, "second example, two-paths build", ok,
            f"g {g:.7f}, max dev {rep.max_deviation:.2e}, "
            f"{elapsed * 1e3:.2f} ms")
    assert sc.r == -127980.0
    assert coeffs_ok and roots_ok
    assert abs(g - 174.2391939) < 1e-5
    assert np.all(np.asarray(mat) >= 0.0)
    assert rep.passed
    assert elapsed < 0.010


def test_04_five_cycle_region_suite(suite_a):
    built, reports, elapsed = suite_a
    all_nonneg = all(np.all(np.asarray(m) >= 0.0) for _, m in built)
    all_pass = all(r.passed for r in reports)
    ok = len(built) == SUITE_N and all_nonneg and all_pass and elapsed < 5.0
    worst = max(r.max_deviation for r in reports)
    _report(4, "five-cycle region suite", ok,
            f"{len(built)} built and verified, worst dev {worst:.2e}, "
            f"{elapsed:.2f} s")
    assert len(built) == SUITE_N
    assert all_nonneg and all_pass
    assert elapsed < 5.0


def test_05_two_paths_region_suite(suite_b):
    built, reports, elapsed = suite_b
    all_nonneg = all(np.all(np.asarray(m) >= 0.0) for _, m in built)
    all_pass = all(r.passed for r in reports)
    # the radicand discriminant inequality must hold on every sample
    delta_ok = True
    for s, _ in built:
        es = sn.elem_syms(s)
        delta = es.e1 ** 2 - 2.0 * (es.e2 + s.lam3 ** 2 + s.lam5 ** 2)
        if delta < s.lam2 ** 2 - 1e-12:
            delta_ok = False
            break
    ok = (len(built) == SUITE_N and all_nonneg and all_pass and delta_ok
          and elapsed < 5.0)
    worst = max(r.max_deviation for r in reports)
    _report(5, "two-paths region suite", ok,
            f"{len(built)} built and verified, worst dev {worst:.2e}, "
            f"{elapsed:.2f} s")
    assert len(built) == SUITE_N
    assert all_nonneg and all_pass and delta_ok
    assert elapsed < 5.0


def test_06_coefficient_identity_suite():
    rng = np.random.default_rng(20242)
    checked_a = 0
    while checked_a < SUITE_N:
        vals = tuple(sorted(rng.uniform(-3, 3, 5), reverse=True))
        s = sn.SortedSpectrum(vals)
        sc = sn.compute_uvwr(s)
        u, v, w, r = sc.u, sc.v, sc.w, sc.r
        if not (u > 0.0 and v >= 0.0):
            continue
        e1, e2, e3, e4, e5 = sn.elem_syms(s).as_tuple()
        assert_ident(u ** 3 + 2 * v + r * r + w * w, -u * u * e2, 1e-8,
                     scale=terms_scale(u ** 3, v, r * r, w * w, u * u * e2))
        assert_ident(-r * u * u + 2 * e1 * v + e1 * r * r + e1 * w * w,
                     -u * u * e3, 1e-8,
                     scale=terms_scale(r * u * u, e1 * v, e1 * w * w,
                                       u * u * e3))
        assert_ident(-2 * v * w * r + w * w * u ** 3 + u ** 3 * v + v * v
                     + r * r * w * w, u ** 4 * e4, 1e-8,
                     scale=terms_scale(v * w * r, w * w * u ** 3, u ** 3 * v,
                                       v * v, u ** 4 * e4))
        assert_ident(-2 * e1 * v * w * r + u * u * v * w - u * u * w * w * r
                     + e1 * r * r * w * w + e1 * v * v, u ** 4 * e5, 1e-8,
                     scale=terms_scale(e1 * v * w * r, u * u * v * w,
                                       u * u * w * w * r, e1 * v * v,
                                       u ** 4 * e5))
        checked_a += 1

    for _ in range(SUITE_N):
        vals = tuple(sorted(rng.uniform(-3, 3, 5), reverse=True))
        s = sn.SortedSpectrum(vals)
        e1, e2, e3, e4, e5 = sn.elem_syms(s).as_tuple()
        l3, l5 = s.lam3, s.lam5
        g = rng.uniform(-5.0, 5.0)
        k, l, m = compute_klm(s, g)
        qg = sn.q_poly(s)(g)
        assert_ident(-(k * k) - 2 * l - 2 * m + 2 * g * e1 - 3 * g * g, e2,
                     1e-8, scale=terms_scale(k * k, l, m, g * e1, g * g))
        assert_ident(-2 * g * l + e1 * k * k + 2 * l * e1 + 2 * m * g
                     - g * g * e1 + 2 * g ** 3, qg - e3,
                     1e-8, scale=terms_scale(g * l, e1 * k * k, m * g,
                                             g ** 3, qg, e3))
        assert_ident(4 * g * g * l + 2 * k * k * m - 2 * k * k * g * e1
                     + 3 * k * k * g * g + 2 * m * l - 2 * g * l * e1 + l * l,
                     -(l3 + l5) * qg + e4,
                     1e-8, scale=terms_scale(g * g * l, k * k * m,
                                             k * k * g * e1, m * l, l * l,
                                             (l3 + l5) * qg, e4))
        assert_ident(-2 * l * k * m + 2 * g * l * l - 2 * k * k * m * g
                     + k * k * g * g * e1 - 2 * k * k * g ** 3 - l * l * e1,
                     l3 * l5 * qg - e5,
                     1e-8, scale=terms_scale(l * k * m, g * l * l,
                                             k * k * m * g, k * k * g ** 3,
                                             l * l * e1, l3 * l5 * qg, e5))

    _report(6, "coefficient identity suite", True,
            f"{SUITE_N} five-cycle and {SUITE_N} two-paths samples at 1e-8")


def test_07_perturbation_closure_suites():
    t0 = time.perf_counter()

    # trace-zero closure: arbitrary minus moves keep all three conditions
    rng = np.random.default_rng(20243)
    tz_ok = 0
    for s in sample_trace_zero_realizable(rng, CLOSURE_N):
        i = int(rng.integers(2, 6))
        size = float(rng.uniform(0.01, 1.0))
        out = sn.apply_perturbation(s, sn.Perturbation(i=i, sign="minus", s=size))
        d = sn.classify_trace_zero(out)
        assert d.verdict is Verdict.REALIZABLE, (s.values, i, size)
        tz_ok += 1

    # five-cycle gate persists under small minus moves at every index
    a_ok = 0
    for s in sample_until(rng, _gate_a, CLOSURE_N):
        for i in (2, 3, 4, 5):
            size = closure_size(s, i, _gate_a)
            assert size is not None and size > 0.0, (s.values, i)
            half = sn.Perturbation(i=i, sign="minus", s=size / 2.0)
            assert _gate_a(sn.apply_perturbation(s, half)), (s.values, i)
        a_ok += 1

    # likewise for the two-paths gate restricted to r < 0
    b_ok = 0
    for s in sample_until(rng, _gate_b_neg_r, CLOSURE_N, **B_DRAW):
        for i in (2, 3, 4, 5):
            size = closure_size(s, i, _gate_b_neg_r)
            assert size is not None and size > 0.0, (s.values, i)
            half = sn.Perturbation(i=i, sign="minus", s=size / 2.0)
            assert _gate_b_neg_r(sn.apply_perturbation(s, half)), (s.values, i)
        b_ok += 1

    elapsed = time.perf_counter() - t0
    ok = tz_ok == a_ok == b_ok == CLOSURE_N and elapsed < 30.0
    _report(7, "perturbation closure suites", ok,
            f"3 x {CLOSURE_N} spectra x 4 indices, {elapsed:.2f} s")
    assert tz_ok == a_ok == b_ok == CLOSURE_N
    assert elapsed < 30.0


def test_08_region_grid_soundness():
    t0 = time.perf_counter()
    rows = 0
    tags = {}
    built = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", sn.BoundaryProximityWarning)
        for row in sn.sample_region(50, [0.0, 0.1, 0.35]):
            rows += 1
            tags[row.tag or "unknown"] = tags.get(row.tag or "unknown", 0) + 1
            s = sn.SortedSpectrum((1.0, row.lambda2, row.lambda3,
                                   row.lambda4, row.lambda5))
            if row.verdict is Verdict.REALIZABLE and row.tag in (
                    Certificate.PATTERN_A.value, Certificate.PATTERN_B.value):
                # classify asks each pattern only for its own check; the
                # named gate must pass in full, with the same g
                if row.tag == Certificate.PATTERN_A.value:
                    assert sn.pattern_a_conditions(s), s.values
                    mat = sn.build_pattern_a(s)
                else:
                    report = sn.pattern_b_conditions(s)
                    assert report and report.g.hex() == row.g.hex(), s.values
                    mat = sn.build_pattern_b(s, row.g)
                assert sn.verify_spectrum(mat, s, rel_tol=1e-8).passed, s.values
                built += 1
            elif row.verdict is Verdict.NOT_REALIZABLE:
                e1 = sn.elem_syms(s).e1
                if row.tag == "perron_violated":
                    assert s.lam1 < 0.0 or s.lam1 < -s.lam5
                elif row.tag == "trace_violated":
                    assert e1 < 0.0
                elif row.tag == "mn_violated":
                    assert s.lam1 + s.lam3 + s.lam4 < 0.0
                elif row.tag == "negated_perron_boundary":
                    assert s.lam5 == -s.lam1 and s.lam3 > e1
                else:
                    raise AssertionError(row.tag)
            elif row.verdict is Verdict.UNKNOWN:
                e1 = sn.elem_syms(s).e1
                assert s.lam3 > e1 and s.lam5 > -s.lam1, s.values
                assert not sn.pattern_a_conditions(s), s.values
                assert not sn.pattern_b_conditions(s), s.values
    elapsed = time.perf_counter() - t0
    ok = rows > 100_000 and elapsed < 60.0
    detail = ", ".join(f"{k} {v}" for k, v in sorted(tags.items()))
    _report(8, "region grid soundness", ok,
            f"{rows} rows, {built} verified, {elapsed:.1f} s; {detail}")
    assert rows > 100_000
    assert elapsed < 60.0


def test_09_entry_bound_audit(suite_a, suite_b):
    built_a, _, _ = suite_a
    built_b, _, _ = suite_b
    checked = 0
    for _, m in built_a + built_b:
        assert sn.entry_bound_check(m)
        checked += 1
    ok = checked == 2 * SUITE_N
    _report(9, "entry bound audit", ok,
            f"{checked} matrices inside [0, spectral radius]")
    assert ok
