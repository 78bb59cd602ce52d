"""Two-paths construction: cubic, root selection, matrix assembly."""
import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sniep5 as sn
from sniep5.pattern_b import M_CLAMP_TOL, compute_klm, pattern_b_entries
from support import (
    assert_ident,
    draw_box_point,
    q_coeffs,
    sample_until,
    terms_scale,
)

EX1 = sn.SortedSpectrum((1000.0, 381.0, 360.0, -641.0, -750.0))
EX2 = sn.SortedSpectrum((1000.0, 370.0, 367.0, -637.0, -750.0))
EX2_G = 174.23919393152335

# region parameters with a decent hit rate for an admissible root
B_DRAW = dict(t_lo=0.15, t_hi=0.45, x_pow=5, y_top=0.3)

# e1 is about -1e-12: within the rounding slack of 0, yet [0, e1/2] is empty
E1_HAIR_BELOW_ZERO = sn.sort_descending(sn.parse_spectrum(
    "0.8577167397489156,0.6715302078397394,-0.13446586418989326,"
    "-0.4514760364437743,-0.9433050469559874"))

# on the lam5 = -lam1 face, with lam3 a hair above the trace: classify
# proves it unrealizable, and the cubic still has the root g = 0
ON_NEGATED_PERRON_FACE = sn.sort_descending(sn.parse_spectrum(
    "1.0,0.3399191592268039,0.3399191592268033,-0.33991915922680993,-1.0"))

REGION_CHECKS = ("min_above_negated_perron", "trace_nonnegative",
                 "third_exceeds_trace")


def _has_root(s):
    return sn.find_g(s) is not None


def test_q_poly_golden():
    assert q_coeffs(sn.q_poly(EX1)) == (2.0, 780.0, -169279.0, -5139810.0)
    assert q_coeffs(sn.q_poly(EX2)) == (2.0, 766.0, -189010.0, -901830.0)


def test_q_poly_evaluates():
    q = sn.q_poly(EX2)
    assert q(0.0) == -901830.0
    npt.assert_allclose(q(EX2_G), 0.0, atol=q.residual_bound(EX2_G))


def test_cubic_real_roots_golden():
    q1, q2 = sn.q_poly(EX1), sn.q_poly(EX2)
    npt.assert_allclose(sn.real_roots(q1.c3, q1.c2, q1.c1, q1.c0),
                        [-538.35237219, -27.19321311, 175.5455853], atol=1e-5)
    npt.assert_allclose(sn.real_roots(q2.c3, q2.c2, q2.c1, q2.c0),
                        [-552.5556695, -4.683524431, 174.2391939], atol=1e-5)


def test_find_g_golden():
    g = sn.find_g(EX2)
    npt.assert_allclose(g, EX2_G, rtol=1e-12)
    # the in-range root exists for the second example only
    assert sn.find_g(EX1) is None


def test_find_g_skips_the_solve_where_q_keeps_its_sign(monkeypatch):
    def no_solve(*c):
        raise AssertionError("Q was solved")

    monkeypatch.setattr("sniep5.cubic.real_roots", no_solve)
    assert sn.find_g(EX1) is None


def test_find_g_decides_ex1_without_a_solve_at_every_scale(monkeypatch):
    # the sign test runs at unit scale, so its residual bound does not
    # outgrow Q as lam1 grows
    calls = []
    real_roots = sn.cubic.real_roots

    def counted(*c):
        calls.append(c)
        return real_roots(*c)

    monkeypatch.setattr("sniep5.cubic.real_roots", counted)
    for j in range(7):
        s = sn.SortedSpectrum(tuple(x * 10.0 ** j for x in EX1.values))
        assert sn.find_g(s) is None
    assert calls == []


def test_find_g_zero_spectrum():
    s = sn.SortedSpectrum((0.0, 0.0, 0.0, 0.0, 0.0))
    assert sn.find_g(s) == 0.0


def test_find_g_none_when_trace_a_hair_below_zero():
    s = E1_HAIR_BELOW_ZERO
    assert -4e-12 < sn.elem_syms(s).e1 < 0.0
    assert sn.find_g(s) is None
    with pytest.raises(sn.PreconditionViolated) as exc:
        sn.build_pattern_b(s, -4.999889391399392e-13)
    assert "g_in_range" in exc.value.failed


def test_find_g_stays_in_range():
    rng = np.random.default_rng(71)
    for s in sample_until(rng, _has_root, 100, **B_DRAW):
        g = sn.find_g(s)
        assert 0.0 <= g <= sn.elem_syms(s).e1 / 2.0


def test_find_g_picks_largest_admissible_root():
    rng = np.random.default_rng(73)
    for s in sample_until(rng, _has_root, 200, **B_DRAW):
        half = sn.elem_syms(s).e1 / 2.0
        q = sn.q_poly(s)
        inner = [r for r in sn.real_roots(q.c3, q.c2, q.c1, q.c0)
                 if 1e-9 * max(1.0, half) <= r <= half * (1.0 - 1e-9)]
        if inner:
            npt.assert_allclose(sn.find_g(s), max(inner),
                                atol=1e-9 * max(1.0, half))


def _find_g_reference(s):
    """find_g as first written, independent of the module's helpers: the
    list scaled by 2**-k to max|lam_i| in [1, 2), Q's coefficients spelled
    out, every root admitted into a list, then the last (largest) admitted
    one scaled back by 2**k."""
    k = math.frexp(max(s.values[0], -s.values[4]))[1] - 1
    s = sn.SortedSpectrum(tuple(math.ldexp(x, -k) for x in s.values))
    _, _, l3, _, l5 = s.values
    es = sn.elem_syms(s)
    c3, c2, c1, c0 = (
        2.0,
        -2.0 * (l3 + l5),
        -(es.e2 + (l3 - l5) ** 2),
        es.e3 + es.e1 * (l3 * l3 + l5 * l5),
    )
    half = 0.5 * es.e1
    if half < 0.0:
        return None
    slack = 1e-12
    hits = [min(max(x, 0.0), half) for x in sn.real_roots(c3, c2, c1, c0)
            if -slack <= x <= half + slack]
    return math.ldexp(hits[-1], k) if hits else None


def _onto_q_edge(vals, i, at_half):
    """``vals``, sorted, with entry i moved between its neighbours to where
    Q at 0 (or at e1/2) changes sign; unchanged when it changes none."""
    v = sorted(vals, reverse=True)

    def q_edge(x):
        s = sn.SortedSpectrum(tuple(v[:i] + [x] + v[i + 1:]))
        return sn.q_poly(s)(0.5 * sn.elem_syms(s).e1 if at_half else 0.0)

    lo = v[i + 1] if i < 4 else v[i] - 1.0
    hi = v[i - 1] if i > 0 else v[i] + 1.0
    f_lo, f_hi = q_edge(lo), q_edge(hi)
    if not f_lo * f_hi <= 0.0:
        return v
    for _ in range(200):  # bisect down to neighbouring floats
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        f_mid = q_edge(mid)
        if (f_mid < 0.0) == (f_lo < 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    v[i] = lo
    return v


_FLOATS = st.lists(st.floats(-1.0, 1.0), min_size=5, max_size=5)

# the two-paths corner of the region, where Q has roots in [0, e1/2]
_BOX_POINTS = st.integers(0, 2**32 - 1).map(
    lambda seed: list(draw_box_point(np.random.default_rng(seed), **B_DRAW)))

_LISTS = st.one_of(
    _FLOATS,
    st.lists(st.integers(-100, 100).map(lambda h: h / 100), min_size=5, max_size=5),
    st.lists(st.sampled_from((0.0, -0.0, 0.5, -0.5, 1.0, -1.0)),
             min_size=5, max_size=5),
    # e1 < 0
    st.lists(st.floats(-1.0, 0.1), min_size=4, max_size=4).map(
        lambda v: v + [0.2]).filter(lambda v: math.fsum(v) < 0.0),
    _BOX_POINTS,
    # one entry moved to where Q(0) = c0 or Q(e1/2) is zero up to rounding,
    # so a root sits on an edge of the window that find_g admits into
    st.builds(_onto_q_edge, st.one_of(_FLOATS, _BOX_POINTS),
              st.integers(0, 4), st.booleans()),
)


@settings(max_examples=800, deadline=None, derandomize=True)
@given(_LISTS)
# a root of Q at 0 up to rounding, and an e1 within the slack below 0
@example(list(ON_NEGATED_PERRON_FACE.values))
@example(list(E1_HAIR_BELOW_ZERO.values))
# tiny: an absolute slack would admit g = 0.0, while Q's root is 0x1.1a0b7b3270e0bp-853
@example([2.5942205968621644e-257, 2.5942205968621644e-257, 0.0, 0.0, 0.0])
def test_find_g_bit_identical_to_reference(vals):
    s = sn.SortedSpectrum(tuple(sorted(vals, reverse=True)))
    got, want = sn.find_g(s), _find_g_reference(s)
    assert (got is None) == (want is None)
    if got is not None:
        assert got.hex() == want.hex()


def test_compute_klm_golden():
    k, l, m = compute_klm(EX2, EX2_G)
    npt.assert_allclose(k, 557.2391939315232, rtol=1e-12)
    npt.assert_allclose(l, 178157.0920223196, rtol=1e-10)
    npt.assert_allclose(m, 211369.42117412615, rtol=1e-10)
    # direct forms
    assert k == EX2_G - EX2.lam3 - EX2.lam5
    assert l == (EX2_G - EX2.lam3) * (EX2.lam5 - EX2_G)


def test_compute_klm_l_vanishes_at_lambda3():
    _, l, _ = compute_klm(EX2, EX2.lam3)
    assert l == 0.0


def test_conditions_golden():
    rep = sn.pattern_b_conditions(EX2)
    assert bool(rep) is True
    npt.assert_allclose(rep.g, EX2_G, rtol=1e-12)

    rep1 = sn.pattern_b_conditions(EX1)
    assert not rep1
    assert rep1.failed == ("root_in_range",)
    assert rep1.g is None

    zero = sn.SortedSpectrum((0.0, 0.0, 0.0, 0.0, 0.0))
    assert "third_exceeds_trace" in sn.pattern_b_conditions(zero).failed


def test_build_golden_entries():
    mat = sn.build_pattern_b(EX2, EX2_G)
    b = np.asarray(mat)
    assert mat.provenance == "pattern_b"
    npt.assert_allclose(np.diag(b), [EX2_G, 0.0, 350.0 - 2.0 * EX2_G, EX2_G, 0.0],
                        rtol=1e-12, atol=0)
    k, l, m = compute_klm(EX2, EX2_G)
    npt.assert_allclose([b[0, 1], b[3, 4]], math.sqrt(l), rtol=1e-12)
    npt.assert_allclose([b[0, 2], b[2, 3]], math.sqrt(m), rtol=1e-12)
    npt.assert_allclose(b[1, 4], k, rtol=1e-12)
    for i, j in ((0, 3), (0, 4), (1, 2), (1, 3), (2, 4)):
        assert b[i, j] == 0.0
    assert np.all(b == b.T)
    assert np.all(b >= 0.0)


def test_build_golden_spectrum():
    mat = sn.build_pattern_b(EX2, sn.find_g(EX2))
    rep = sn.verify_spectrum(mat, EX2, rel_tol=1e-9)
    assert rep.passed


@pytest.mark.parametrize("g", [np.float64(EX2_G), np.float32(EX2_G)],
                         ids=["float64", "float32"])
def test_build_writes_python_float_rows_for_a_numpy_g(g):
    # the builder's rows skip the public float() conversion, so a numpy g
    # must give the rows the public constructor would have stored; a
    # float64 g keeps its bits.  A float32 g is no root: it leaves Q(g) at
    # about 0.74, past the residual bound at unit scale, and its matrix
    # would miss EX2 by about 1.2e-6 relative
    if g.dtype == np.float32:
        with pytest.raises(sn.PreconditionViolated) as exc:
            sn.build_pattern_b(EX2, g)
        assert exc.value.failed == ("g_is_a_root",)
        return
    mat = sn.build_pattern_b(EX2, g)
    assert all(type(x) is float for row in mat.entries for x in row)
    rows = pattern_b_entries(EX2, g)
    public = sn.SymMatrix5(rows, provenance="pattern_b")
    assert [x.hex() for row in mat.entries for x in row] == \
        [x.hex() for row in public.entries for x in row]


def test_build_rejects_non_root():
    with pytest.raises(sn.PreconditionViolated) as exc:
        sn.build_pattern_b(EX2, 50.0)
    assert "g_is_a_root" in exc.value.failed


# (list, g, failed): each check of the two-paths builder failing alone and
# several at once; the names were recorded from a builder that built the
# full report on every call.  Each g is a root of Q unless g_is_a_root is
# named
BUILD_FAILURES = [
    ((1000.0, 370.0, 367.0, -637.0, -750.0), 50.0, ("g_is_a_root",)),
    ((1000.0, 370.0, 367.0, -637.0, -750.0), "-0x1.2bbedd41761c7p+2",
     ("g_in_range",)),
    ((1000.0, 370.0, 367.0, -637.0, -750.0), -1.0,
     ("g_is_a_root", "g_in_range")),
    ((1.0, 0.97, 0.94, -0.93, -1.09), "0x1.577c2f3542134p-9",
     ("min_above_negated_perron",)),
    ((1.0, 0.9, 0.3, -0.5, -0.6), "0x1.b1d5a44e60bfbp-2",
     ("third_exceeds_trace",)),
    ((1.0, 0.83, 0.43, -0.18, -1.14), "0x1.17b4012f0129dp-4",
     ("min_above_negated_perron", "third_exceeds_trace")),
    ((1.0, 0.5, 0.2, -0.9, -0.95), "0x1.394421caf8badp-3",
     ("g_in_range", "trace_nonnegative")),
    ((1.0, 0.6, 0.5, -0.55, -1.1), 0.0,
     ("g_is_a_root", "min_above_negated_perron")),
    ((1.0, 0.9, 0.3, -0.5, -0.6), 50.0,
     ("g_is_a_root", "g_in_range", "third_exceeds_trace")),
    ((1.0, -0.5, -0.6, -0.9, -1.5), 0.0,
     ("g_is_a_root", "g_in_range", "min_above_negated_perron",
      "trace_nonnegative")),
]


@pytest.mark.parametrize("k", [0, 12, -1000])
@pytest.mark.parametrize("vals,g,failed", BUILD_FAILURES)
def test_build_names_every_failed_check(vals, g, failed, k):
    # the builder decides its checks by plain comparisons; a failing call
    # still names them in the report's order, at any power-of-two scale
    g = float.fromhex(g) if isinstance(g, str) else g
    s = sn.SortedSpectrum(tuple(math.ldexp(x, k) for x in vals))
    with pytest.raises(sn.PreconditionViolated) as exc:
        sn.build_pattern_b(s, math.ldexp(g, k))
    assert type(exc.value) is sn.PreconditionViolated
    assert exc.value.failed == failed
    assert str(exc.value) == "two-paths gate failed: " + ", ".join(failed)


@pytest.mark.parametrize("g", [math.inf, -math.inf, 1e120, -1e200, math.nan])
def test_build_refuses_a_huge_or_non_finite_g(g):
    # |Q(inf)| = inf is not under an infinite residual bound, and the bound's
    # float cube raises OverflowError at 1e120: neither g is a root
    with pytest.raises(sn.PreconditionViolated) as info:
        sn.build_pattern_b(EX2, g)
    assert info.value.failed == ("g_is_a_root", "g_in_range")


def test_passing_builds_make_no_condition_report(monkeypatch):
    built = []
    init = sn.ConditionReport.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(sn.ConditionReport, "__init__", counting)
    sn.build_pattern_a(EX1)
    sn.build_pattern_b(EX2, EX2_G)
    assert not built
    # the count sees a report: a failing build makes one to name its checks
    with pytest.raises(sn.PreconditionViolated):
        sn.build_pattern_b(EX2, 50.0)
    assert len(built) == 1


def test_entries_negative_radicand():
    # far above lam3 the first radicand goes negative
    with pytest.raises(sn.NegativeRadicand):
        pattern_b_entries(EX2, 500.0)


def test_entries_clamp_slightly_negative_m():
    # at this g the second radicand is about -3e-11: round-off, clamped to 0
    s = sn.sort_descending(sn.Spectrum((-0.0005149, 0.0009764000000000001,
                                        0.0009746, -0.0006202, 0.0009056)))
    g = 0.00036991160653442257
    _, l, m = compute_klm(s, g)
    assert -M_CLAMP_TOL < m < 0.0
    b = pattern_b_entries(s, g)
    assert b[0][2] == b[2][3] == 0.0
    assert b[0][1] == math.sqrt(l)


@pytest.mark.filterwarnings("ignore::sniep5.errors.BoundaryProximityWarning")
def test_gate_and_builder_reject_the_negated_perron_face():
    s = ON_NEGATED_PERRON_FACE
    assert sn.classify(s).reason is sn.Reason.NEGATED_PERRON_BOUNDARY
    assert sn.find_g(s) == 0.0
    assert sn.pattern_b_conditions(s).failed == ("min_above_negated_perron",)
    with pytest.raises(sn.PreconditionViolated) as exc:
        sn.build_pattern_b(s, 0.0)
    assert exc.value.failed == ("min_above_negated_perron",)


@pytest.mark.parametrize("check,vals", [
    ("min_above_negated_perron", (1.0, 0.6, 0.5, -0.55, -1.1)),
    ("trace_nonnegative", (1.0, 0.5, 0.2, -0.9, -0.95)),
    ("third_exceeds_trace", (1.0, 0.9, 0.3, -0.5, -0.6)),
])
def test_gate_and_builder_name_the_same_region_check(check, vals):
    s = sn.SortedSpectrum(vals)
    gate = set(sn.pattern_b_conditions(s).failed) & set(REGION_CHECKS)
    with pytest.raises(sn.PreconditionViolated) as exc:
        sn.build_pattern_b(s, 0.0)
    built = set(exc.value.failed) & set(REGION_CHECKS)
    assert gate == built == {check}


def test_m_radicand_discriminant_dominates():
    # on region samples the quadratic in g defining the second radicand
    # has discriminant at least lam2^2, so real vertex roots exist
    rng = np.random.default_rng(79)
    for _ in range(2000):
        s = draw_box_point(rng)
        es = sn.elem_syms(s)
        delta = es.e1 ** 2 - 2.0 * (es.e2 + s.lam3 ** 2 + s.lam5 ** 2)
        assert delta >= s.lam2 ** 2 - 1e-12


def test_closed_form_coefficient_identities():
    # coefficient identities hold for every g, admissible or not
    rng = np.random.default_rng(83)
    for _ in range(500):
        vals = tuple(sorted(rng.uniform(-3, 3, 5), reverse=True))
        s = sn.SortedSpectrum(vals)
        e1, e2, e3, e4, e5 = sn.elem_syms(s).as_tuple()
        l3, l5 = s.lam3, s.lam5
        g = rng.uniform(-5.0, 5.0)
        k, l, m = compute_klm(s, g)
        qg = sn.q_poly(s)(g)
        assert_ident(-(k * k) - 2 * l - 2 * m + 2 * g * e1 - 3 * g * g, e2,
                     1e-9, scale=terms_scale(k * k, l, m, g * e1, g * g))
        assert_ident(-2 * g * l + e1 * k * k + 2 * l * e1 + 2 * m * g
                     - g * g * e1 + 2 * g ** 3, qg - e3,
                     1e-9, scale=terms_scale(g * l, e1 * k * k, m * g,
                                             g ** 3, qg, e3))
        assert_ident(4 * g * g * l + 2 * k * k * m - 2 * k * k * g * e1
                     + 3 * k * k * g * g + 2 * m * l - 2 * g * l * e1 + l * l,
                     -(l3 + l5) * qg + e4,
                     1e-9, scale=terms_scale(g * g * l, k * k * m,
                                             k * k * g * e1, m * l, l * l,
                                             (l3 + l5) * qg, e4))
        assert_ident(-2 * l * k * m + 2 * g * l * l - 2 * k * k * m * g
                     + k * k * g * g * e1 - 2 * k * k * g ** 3 - l * l * e1,
                     l3 * l5 * qg - e5,
                     1e-9, scale=terms_scale(l * k * m, g * l * l,
                                             k * k * m * g, k * k * g ** 3,
                                             l * l * e1, l3 * l5 * qg, e5))


def test_sampled_region_build_and_verify():
    rng = np.random.default_rng(89)
    for s in sample_until(rng, _has_root, 300, **B_DRAW):
        g = sn.find_g(s)
        mat = sn.build_pattern_b(s, g)
        assert sn.verify_spectrum(mat, s, rel_tol=1e-8).passed
        assert sn.entry_bound_check(mat)
        coeffs = sn.char_poly_coeffs(mat)
        es = sn.elem_syms(s).as_tuple()
        m = max(1.0, max(abs(v) for v in s.values))
        for n in range(1, 6):
            assert_ident(coeffs[n], (-1.0) ** n * es[n - 1], 1e-8,
                         scale=math.comb(5, n) * m ** n)
