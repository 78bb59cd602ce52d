"""Five-cycle construction: scalars, admissibility gate, matrix assembly."""
import math

import numpy as np
import numpy.testing as npt
import pytest

import sniep5 as sn
from sniep5.pattern_a import pattern_a_entries
from support import assert_ident, sample_until, terms_scale

EX1 = sn.SortedSpectrum((1000.0, 381.0, 360.0, -641.0, -750.0))
EX2 = sn.SortedSpectrum((1000.0, 370.0, 367.0, -637.0, -750.0))


def test_scalars_golden_first_example():
    sc = sn.compute_uvwr(EX1)
    assert sc.u == 355160.0
    assert sc.w == 130747500.0
    assert sc.r == 306540.0
    npt.assert_allclose(sc.v, 3.608419160385e16, rtol=1e-13)


def test_scalars_golden_second_example():
    sc = sn.compute_uvwr(EX2)
    assert sc.u == 359279.0
    assert sc.w == 136654000.0
    assert sc.r == -127980.0


def test_scalars_zero_tail():
    sc = sn.compute_uvwr(sn.SortedSpectrum((1.0, 0.0, 0.0, 0.0, 0.0)))
    assert (sc.u, sc.v, sc.w, sc.r) == (0.0, 0.0, 0.0, 0.0)


def test_conditions_golden():
    rep = sn.pattern_a_conditions(EX1)
    assert bool(rep) is True
    assert rep.failed == ()

    rep2 = sn.pattern_a_conditions(EX2)
    assert bool(rep2) is False
    assert rep2.failed == ("r_nonnegative",)


def test_conditions_boundary_min_entry():
    s = sn.SortedSpectrum((1.0, 0.9, 0.85, -0.95, -1.0))
    rep = sn.pattern_a_conditions(s)
    assert not rep
    assert "min_above_negated_perron" in rep.failed


def test_scaling_homogeneity():
    rng = np.random.default_rng(31)
    for _ in range(100):
        vals = tuple(sorted(rng.uniform(-3, 3, 5), reverse=True))
        s = sn.SortedSpectrum(vals)
        alpha = rng.uniform(0.1, 10.0)
        base = sn.compute_uvwr(s)
        scaled = sn.compute_uvwr(sn.scale(s, alpha))
        m = max(1.0, max(abs(v) for v in vals)) * max(1.0, alpha)
        assert_ident(scaled.u, alpha ** 2 * base.u, 1e-10, scale=20 * m ** 2)
        assert_ident(scaled.v, alpha ** 6 * base.v, 1e-10, scale=100 * m ** 6)
        assert_ident(scaled.w, alpha ** 3 * base.w, 1e-10, scale=20 * m ** 3)
        assert_ident(scaled.r, alpha ** 3 * base.r, 1e-10, scale=40 * m ** 3)


def test_build_golden_entries():
    mat = sn.build_pattern_a(EX1)
    a = np.asarray(mat)
    assert mat.provenance == "pattern_a"
    assert a[0, 0] == 350.0
    off = math.sqrt(355160.0 / 2.0)
    assert a[0, 2] == off and a[0, 4] == off
    assert a[1, 3] == pytest.approx(130747500.0 / 355160.0, rel=1e-15)
    assert a[1, 4] == a[2, 3] == pytest.approx(
        math.sqrt(3.608419160385e16) / 355160.0, rel=1e-12)
    assert a[2, 4] == pytest.approx(306540.0 / 355160.0, rel=1e-15)
    # the remaining off-diagonal positions stay empty
    for i, j in ((0, 1), (0, 3), (1, 2), (3, 4)):
        assert a[i, j] == 0.0
    assert np.all(np.diag(a)[1:] == 0.0)
    assert np.all(a == a.T)
    assert np.all(a >= 0.0)


def test_build_golden_spectrum():
    mat = sn.build_pattern_a(EX1)
    rep = sn.verify_spectrum(mat, EX1, rel_tol=1e-9)
    assert rep.passed


def test_build_degenerate_u():
    s = sn.SortedSpectrum((1.0, 0.0, 0.0, 0.0, 0.0))
    with pytest.raises(sn.DegenerateU):
        sn.build_pattern_a(s)
    with pytest.raises(sn.DegenerateU):
        pattern_a_entries(s)


def test_build_rejects_failed_gate():
    with pytest.raises(sn.PreconditionViolated) as exc:
        sn.build_pattern_a(EX2)
    assert "r_nonnegative" in exc.value.failed


def test_sampled_region_build_and_verify():
    rng = np.random.default_rng(41)
    for s in sample_until(rng, lambda s: bool(sn.pattern_a_conditions(s)), 300):
        sc = sn.compute_uvwr(s)
        assert sc.u > 0.0 and sc.v > 0.0 and sc.w >= 0.0 and sc.r >= 0.0
        mat = sn.build_pattern_a(s)
        assert sn.verify_spectrum(mat, s, rel_tol=1e-8).passed
        assert sn.entry_bound_check(mat)


def test_characteristic_coefficient_identities():
    rng = np.random.default_rng(53)
    for _ in range(500):
        vals = tuple(sorted(rng.uniform(-3, 3, 5), reverse=True))
        s = sn.SortedSpectrum(vals)
        e1, e2, e3, e4, e5 = sn.elem_syms(s).as_tuple()
        sc = sn.compute_uvwr(s)
        u, v, w, r = sc.u, sc.v, sc.w, sc.r
        assert_ident(u ** 3 + 2 * v + r * r + w * w, -u * u * e2, 1e-9,
                     scale=terms_scale(u ** 3, v, r * r, w * w, u * u * e2))
        assert_ident(-r * u * u + 2 * e1 * v + e1 * r * r + e1 * w * w,
                     -u * u * e3, 1e-9,
                     scale=terms_scale(r * u * u, e1 * v, e1 * w * w, u * u * e3))
        assert_ident(-2 * v * w * r + w * w * u ** 3 + u ** 3 * v + v * v
                     + r * r * w * w, u ** 4 * e4, 1e-9,
                     scale=terms_scale(v * w * r, w * w * u ** 3, u ** 3 * v,
                                       v * v, u ** 4 * e4))
        assert_ident(-2 * e1 * v * w * r + u * u * v * w - u * u * w * w * r
                     + e1 * r * r * w * w + e1 * v * v, u ** 4 * e5, 1e-9,
                     scale=terms_scale(e1 * v * w * r, u * u * v * w,
                                       u * u * w * w * r, e1 * v * v,
                                       u ** 4 * e5))


def test_entries_characteristic_polynomial_matches_targets():
    # the assembled matrix exists whenever the radicands allow it, gate or not
    rng = np.random.default_rng(61)
    done = 0
    while done < 100:
        vals = tuple(sorted(rng.uniform(-3, 3, 5), reverse=True))
        s = sn.SortedSpectrum(vals)
        try:
            entries = pattern_a_entries(s)
        except (sn.DegenerateU, sn.NegativeRadicand):
            continue
        coeffs = sn.char_poly_coeffs(entries)
        es = sn.elem_syms(s).as_tuple()
        m = max(1.0, max(abs(v) for v in vals))
        for k in range(1, 6):
            assert_ident(coeffs[k], (-1.0) ** k * es[k - 1], 1e-8,
                         scale=math.comb(5, k) * m ** k)
        done += 1
