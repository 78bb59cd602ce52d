"""Independent spectral checks: trace-recurrence polynomial, Jacobi eigenvalues."""
import math

import numpy as np
import numpy.testing as npt
import pytest

import sniep5 as sn
from sniep5 import verify
from sniep5.spectrum import _built_matrix
from support import assert_ident, bytes_each, hex_bits, sample_until

EX1 = sn.SortedSpectrum((1000.0, 381.0, 360.0, -641.0, -750.0))
B_DRAW = dict(t_lo=0.15, t_hi=0.45, x_pow=5, y_top=0.3)


def _random_symmetric(rng, scale=5.0):
    a = rng.uniform(-scale, scale, (5, 5))
    return (a + a.T) / 2.0


def test_char_poly_diag_integer_exact():
    coeffs = sn.char_poly_coeffs(np.diag([1.0, 2.0, 3.0, 4.0, 5.0]))
    assert coeffs == (1.0, -15.0, 85.0, -225.0, 274.0, -120.0)


def test_char_poly_zero_matrix():
    assert sn.char_poly_coeffs(np.zeros((5, 5))) == (1.0, 0.0, 0.0, 0.0, 0.0, 0.0)


def test_char_poly_matches_eigenvalue_route():
    rng = np.random.default_rng(97)
    for _ in range(100):
        a = _random_symmetric(rng)
        got = sn.char_poly_coeffs(a)
        want = np.poly(np.linalg.eigvalsh(a))
        m = max(1.0, float(np.max(np.abs(np.linalg.eigvalsh(a)))))
        for k in range(6):
            assert_ident(got[k], want[k], 1e-9, scale=math.comb(5, k) * m ** k)


def test_jacobi_diagonal_matrix():
    s = sn.sym_eigenvalues(np.diag([5.0, -3.0, 2.0, 0.0, -1.0]))
    assert s.values == (5.0, 2.0, 0.0, -1.0, -3.0)


def test_jacobi_rank_one():
    v = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    s = sn.sym_eigenvalues(np.outer(v, v))
    npt.assert_allclose(s.values, [55.0, 0.0, 0.0, 0.0, 0.0], atol=1e-11)


def test_jacobi_matches_library_eigensolver():
    rng = np.random.default_rng(103)
    for _ in range(200):
        a = _random_symmetric(rng)
        got = sn.sym_eigenvalues(a).values
        want = np.sort(np.linalg.eigvalsh(a))[::-1]
        npt.assert_allclose(got, want, atol=1e-9 * max(1.0, np.max(np.abs(want))))


def test_jacobi_trace_consistency():
    rng = np.random.default_rng(107)
    for _ in range(100):
        a = _random_symmetric(rng, scale=50.0)
        eigs = sn.sym_eigenvalues(a).values
        assert_ident(math.fsum(eigs), float(np.trace(a)), 1e-11,
                     scale=float(np.sum(np.abs(np.diag(a)))))


def test_jacobi_no_convergence_budget():
    a = _random_symmetric(np.random.default_rng(109))
    with pytest.raises(sn.NoConvergence):
        verify._jacobi(sn.SymMatrix5(a).entries, 0)


def test_zero_sweep_budget_accepts_a_diagonal_matrix():
    assert verify._jacobi(sn.SymMatrix5(np.eye(5)).entries, 0).values == (1.0,) * 5


def _big_pair(diag=0.0):
    # a Frobenius norm of sqrt(2) * 1e160 overflows a float
    rows = [[0.0] * 5 for _ in range(5)]
    rows[0][1] = rows[1][0] = 1e160
    rows[2][2] = diag
    return sn.SymMatrix5(rows)


def test_jacobi_eigenvalues_when_the_norm_overflows():
    assert sn.sym_eigenvalues(_big_pair()).values == (1e160, 0.0, 0.0, 0.0, -1e160)
    assert sn.sym_eigenvalues(_big_pair(3e159)).values == (
        1e160, 3e159, 0.0, 0.0, -1e160)
    rng = np.random.default_rng(113)
    for _ in range(20):
        a = _random_symmetric(rng) * 1e160
        npt.assert_allclose(sn.sym_eigenvalues(a).values,
                            np.sort(np.linalg.eigvalsh(a))[::-1],
                            rtol=0.0, atol=1e-12 * 5e160)


def test_jacobi_eigenvalues_when_the_norm_is_tiny():
    # an absolute convergence floor would return the unrotated diagonal
    rows = [[0.0] * 5 for _ in range(5)]
    rows[0][1] = rows[1][0] = 1e-160
    assert sn.sym_eigenvalues(rows).values == (1e-160, 0.0, 0.0, 0.0, -1e-160)
    rng = np.random.default_rng(131)
    for scale in (1e-3, 1e-30, 1e-160, 1e-300):
        for _ in range(10):
            a = _random_symmetric(rng) * scale
            npt.assert_allclose(sn.sym_eigenvalues(a).values,
                                np.sort(np.linalg.eigvalsh(a))[::-1],
                                rtol=0.0, atol=1e-12 * 5.0 * scale)


def test_verify_spectrum_fails_on_the_zero_target_when_the_norm_overflows():
    rep = sn.verify_spectrum(_big_pair(), sn.Spectrum((0.0,) * 5))
    assert not rep.passed
    assert rep.max_deviation == 1e160


def test_jacobi_eigenvalue_past_the_float_range_is_refused():
    with pytest.raises(sn.NoConvergence, match="overflows"):
        sn.sym_eigenvalues(np.full((5, 5), 1.7e308))


def test_verify_spectrum_golden():
    mat = sn.build_pattern_a(EX1)
    rep = sn.verify_spectrum(mat, EX1, rel_tol=1e-9)
    assert rep.passed
    assert 0.0 <= rep.max_deviation <= 1e-9 * 1000.0
    assert rep.target == EX1.values


def test_verify_spectrum_accepts_plain_arrays():
    rep = sn.verify_spectrum(np.diag([3.0, 1.0, 0.0, 0.0, -2.0]),
                             sn.SortedSpectrum((3.0, 1.0, 0.0, 0.0, -2.0)))
    assert rep.passed
    assert rep.max_deviation == 0.0


def test_verify_spectrum_fails_on_wrong_target():
    mat = sn.build_pattern_a(EX1)
    wrong = sn.SortedSpectrum((1000.0, 382.0, 360.0, -641.0, -750.0))
    rep = sn.verify_spectrum(mat, wrong, rel_tol=1e-9)
    assert not rep.passed
    assert rep.max_deviation >= 0.9


@pytest.mark.parametrize("order", [(1, 0, 2, 3, 4), (4, 3, 2, 1, 0), (2, 4, 0, 3, 1)])
def test_verify_spectrum_sorts_an_unsorted_target(order):
    # eigenvalues are a multiset: a target in any order is compared sorted
    mat = sn.build_pattern_a(EX1)
    right = sn.Spectrum(tuple(EX1.values[i] for i in order))
    rep = sn.verify_spectrum(mat, right)
    assert rep.passed
    assert rep.target == EX1.values
    wrong = (1000.0, 382.0, 360.0, -641.0, -750.0)
    rep = sn.verify_spectrum(mat, sn.Spectrum(tuple(wrong[i] for i in order)))
    assert not rep.passed
    assert rep.max_deviation >= 0.9


def test_verify_spectrum_tolerance_scale():
    # the bound is relative to max|lam_i|: a loose tolerance passes a
    # deliberately nudged target, a tight one rejects it
    mat = sn.build_pattern_a(EX1)
    nudged = sn.SortedSpectrum((1000.0 + 1e-4, 381.0, 360.0, -641.0, -750.0))
    assert sn.verify_spectrum(mat, nudged, rel_tol=1e-6).passed
    assert not sn.verify_spectrum(mat, nudged, rel_tol=1e-9).passed


def test_verify_spectrum_fails_a_tiny_matrix_far_from_a_tiny_target():
    # each eigenvalue misses the target by up to 4e-30, all of the scale;
    # a bound of rel_tol * max(1, |lam1|) passed it
    rows = [[0.0] * 5 for _ in range(5)]
    rows[0][0] = 1e-30
    rep = sn.verify_spectrum(rows, sn.Spectrum((4e-30, 2e-30, 1e-30, -3e-30,
                                                -4e-30)))
    assert not rep.passed
    assert rep.max_deviation == 4e-30


@pytest.mark.parametrize("k", [-100, -60, -40, -36, -16, 40])
def test_verify_spectrum_passes_a_realizing_matrix_scaled(k):
    # scaling by a power of two is exact, and so is every rounding of the
    # sweep under it, so the deviation scales with the target and the
    # relative bound passes it; from k = -40 the norm is under 1/2, and
    # only the sweep at a power-of-two scale lets the kernel rotate
    at_one = sn.verify_spectrum(sn.build_pattern_a(EX1), EX1)
    small = sn.SortedSpectrum(tuple(math.ldexp(x, k) for x in EX1.values))
    rows = [[math.ldexp(x, k) for x in row]
            for row in sn.build_pattern_a(EX1).entries]
    rep = sn.verify_spectrum(rows, small)
    assert rep.passed
    assert rep.max_deviation == math.ldexp(at_one.max_deviation, k)


def test_verify_spectrum_rejects_bad_tolerance():
    mat = sn.build_pattern_a(EX1)
    with pytest.raises(ValueError):
        sn.verify_spectrum(mat, EX1, rel_tol=0.0)
    with pytest.raises(ValueError):
        sn.verify_spectrum(mat, EX1, rel_tol=-1.0)


@pytest.mark.parametrize("tol", [float("inf"), float("nan"), float("-inf")])
def test_verify_spectrum_refuses_a_non_finite_tolerance(tol):
    # an infinite tolerance would pass any matrix against any target
    diag = [[0.0] * 5 for _ in range(5)]
    diag[4][4] = 1.0
    with pytest.raises(ValueError, match=f"rel_tol .*got {tol}$"):
        sn.verify_spectrum(diag, EX1, rel_tol=tol)


def test_verify_report_json_shape():
    rep = sn.verify_spectrum(sn.build_pattern_a(EX1), EX1)
    payload = rep.to_json_dict()
    assert payload["pass"] is True
    assert set(payload) >= {"pass", "max_deviation", "eigenvalues", "target"}
    assert len(payload["eigenvalues"]) == 5


def test_entry_bound_check_pattern_matrices():
    assert sn.entry_bound_check(sn.build_pattern_a(EX1))


def test_entry_bound_check_rejects_negative_entry():
    a = np.zeros((5, 5))
    a[0, 1] = a[1, 0] = -1.0
    assert not sn.entry_bound_check(a)


def test_entry_bound_check_accepts_zero():
    assert sn.entry_bound_check(np.zeros((5, 5)))


def test_entry_bound_check_slack_is_relative():
    # the entry -1e-13 is as large as rho = 1e-13 itself, and 100x the
    # other eigenvalue; an absolute slack of 1e-12 let it pass
    assert not sn.entry_bound_check(np.diag([1e-15, -1e-13, 0.0, 0.0, 0.0]))
    tiny = [[math.ldexp(x, -100) for x in row]
            for row in sn.build_pattern_a(EX1).entries]
    assert sn.entry_bound_check(tiny)


def _asymmetric_pattern_a():
    a = np.asarray(sn.build_pattern_a(EX1))
    a[2, 0] += 1.0  # lower triangle no longer mirrors the upper one
    return a


@pytest.mark.parametrize("check", [
    sn.sym_eigenvalues,
    lambda m: sn.verify_spectrum(m, EX1),
    sn.entry_bound_check,
    sn.char_poly_coeffs,
], ids=["sym_eigenvalues", "verify_spectrum", "entry_bound_check",
        "char_poly_coeffs"])
@pytest.mark.parametrize("m", [
    pytest.param(np.ones((5, 6)), id="five_by_six"),
    pytest.param(np.ones((5, 4)), id="five_by_four"),
    pytest.param(np.full((5, 5), np.nan), id="all_nan"),
    pytest.param(_asymmetric_pattern_a(), id="asymmetric"),
])
def test_plain_input_gets_the_matrix_checks(m, check):
    with pytest.raises(ValueError):
        check(m)


def _jacobi_reference(m, max_sweeps=30):
    """The Jacobi sweep as first written, kept as the kernel's bit oracle.

    A matrix whose norm overflows or falls under 1/2 is swept scaled by
    2^-k, which brings its largest |entry| into [0.5, 1), and its
    eigenvalues are scaled back.
    """
    a = [[float(x) for x in row] for row in np.array(m, dtype=float)]
    fro = math.sqrt(sum(x * x for row in a for x in row))
    big = max(abs(x) for row in a for x in row)
    if not 0.5 <= fro < math.inf and big != 0.0:
        k = math.frexp(big)[1]
        eigs = _jacobi_reference(
            [[math.ldexp(x, -k) for x in row] for row in a], max_sweeps)
        return tuple(math.ldexp(x, k) for x in eigs)
    thresh = 1e-13 * (1.0 + fro)
    for sweep in range(max_sweeps + 1):
        off = 0.0
        for i in range(4):
            ai = a[i]
            for j in range(i + 1, 5):
                off += ai[j] * ai[j]
        if math.sqrt(2.0 * off) <= thresh:
            diag = (a[0][0], a[1][1], a[2][2], a[3][3], a[4][4])
            return tuple(sorted(diag, reverse=True))
        if sweep == max_sweeps:
            raise sn.NoConvergence("sweep budget exhausted")
        for p in range(4):
            ap = a[p]
            for q in range(p + 1, 5):
                apq = ap[q]
                if apq == 0.0:
                    continue
                aq = a[q]
                app = ap[p]
                aqq = aq[q]
                theta = 0.5 * (aqq - app) / apq
                t = 1.0 / (abs(theta) + math.sqrt(1.0 + theta * theta))
                if theta < 0.0:
                    t = -t
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                ap[p] = app - t * apq
                aq[q] = aqq + t * apq
                ap[q] = 0.0
                aq[p] = 0.0
                for i in range(5):
                    if i != p and i != q:
                        ai = a[i]
                        aip = ai[p]
                        aiq = ai[q]
                        v1 = c * aip - s * aiq
                        v2 = s * aip + c * aiq
                        ai[p] = v1
                        ap[i] = v1
                        ai[q] = v2
                        aq[i] = v2
    raise AssertionError("unreachable")


def _pattern_matrices(rng, certificate, count, **draw_kw):
    def certified(s):
        return sn.classify(s).certificate is certificate
    return [sn.realize(s, sn.classify(s))
            for s in sample_until(rng, certified, count, **draw_kw)]


def _kernel_cases():
    rng = np.random.default_rng(113)
    cases = _pattern_matrices(rng, sn.Certificate.PATTERN_A, 150)
    cases += _pattern_matrices(rng, sn.Certificate.PATTERN_B, 150, **B_DRAW)
    cases += [_random_symmetric(rng, scale) for scale in (1e-3, 1.0, 5.0, 1e4)
              for _ in range(100)]
    cases += [np.diag(rng.uniform(-5.0, 5.0, 5)) for _ in range(20)]
    cases += [np.outer(v, v) for v in rng.uniform(-3.0, 3.0, (20, 5))]
    for density in (0.2, 0.5, 0.8):
        for _ in range(50):
            a = _random_symmetric(rng)
            mask = np.triu(rng.random((5, 5)) < density, 1)
            a[mask | mask.T] = 0.0
            cases.append(a)
    # block-diagonal: every rotation coupling the blocks meets apq == 0
    block = np.zeros((5, 5))
    block[:2, :2] = [[2.0, 0.5], [0.5, -1.0]]
    block[2:, 2:] = [[1.0, 0.0, 3.0], [0.0, 4.0, 0.0], [3.0, 0.0, -2.0]]
    # signed zeros, which pin the sign of every zero a trace or sweep sums
    neg_diag = _random_symmetric(rng)
    np.fill_diagonal(neg_diag, -0.0)
    neg_pairs = _random_symmetric(rng)
    neg_pairs[0, 2] = neg_pairs[2, 0] = neg_pairs[1, 4] = neg_pairs[4, 1] = -0.0
    neg_pairs[3, 4] = neg_pairs[4, 3] = -0.0
    # norms under 1/2, swept at a power-of-two scale: small, tiny, and
    # subnormal entries, whose squares underflow to a norm of 0.0
    small = [_random_symmetric(rng, scale) for scale in (0.05, 1e-30, 1e-160)
             for _ in range(20)]
    subnormal = _random_symmetric(rng) * 1e-320
    return cases + small + [block, neg_diag, neg_pairs, -0.0 * np.eye(5),
                            subnormal]


def test_jacobi_bit_identical_to_reference():
    for m in _kernel_cases():
        want = hex_bits(_jacobi_reference(m))
        assert hex_bits(sn.sym_eigenvalues(m).values) == want
        if not isinstance(m, sn.SymMatrix5):
            assert hex_bits(sn.sym_eigenvalues(sn.SymMatrix5(m)).values) == want


def _char_poly_reference(m):
    """The trace recurrence as first written, kept as the bit oracle."""
    a = np.asarray(m, dtype=float)
    eye = np.eye(5)
    coeffs = [1.0]
    n = a
    c = -float(np.trace(n))
    coeffs.append(c)
    for k in range(2, 6):
        n = a @ (n + c * eye)
        c = -float(np.trace(n)) / k
        coeffs.append(c)
    return tuple(coeffs)


def _overflow_cases():
    # entries near 1e80: the fifth power overflows, so coefficients come
    # out infinite, or NaN where infinities of both signs meet
    rng = np.random.default_rng(127)
    cases = [_random_symmetric(rng) * 1e80 for _ in range(20)]
    cases += [np.abs(_random_symmetric(rng)) * 1e80 for _ in range(10)]
    cases.append(np.diag([1e80, -1e80, 3e79, 0.0, -2e80]))
    cases.append(np.full((5, 5), 1e80))
    return cases


def test_char_poly_bit_identical_to_reference():
    # each overflowed matrix is called between two finite ones, so a call
    # that read another call's values would show in the bits
    finite = _kernel_cases()
    overflowing = _overflow_cases()
    cases = [m for pair in zip(finite, overflowing) for m in pair]
    cases += finite[len(overflowing):]
    with np.errstate(over="ignore", invalid="ignore"):
        got = [hex_bits(sn.char_poly_coeffs(m)) for m in cases]
        want = [hex_bits(_char_poly_reference(m)) for m in cases]
    assert got == want
    assert any("inf" in c for coeffs in got for c in coeffs)
    assert any("nan" in c for coeffs in got for c in coeffs)


def _report_fields(rep):
    return (type(rep.passed), rep.passed, rep.max_deviation.hex(),
            hex_bits(rep.eigenvalues), hex_bits(rep.target), rep.rel_tol.hex())


@pytest.mark.parametrize("rel_tol", [1e-9, 0.5])
def test_verify_report_matches_the_public_constructor(rel_tol):
    # verify_spectrum fills the report's slots itself; each field must
    # carry the bits the public constructor stores from the same numbers,
    # against the eigenvalues themselves and against the sorted diagonal
    checked = 0
    for m in _kernel_cases():
        eigs = _jacobi_reference(m)
        diag = sn.sort_descending(sn.Spectrum(np.diagonal(np.asarray(m))))
        for target in (sn.SortedSpectrum(eigs), diag):
            t = target.values
            dev = max(abs(x - y) for x, y in zip(eigs, t))
            want = sn.VerificationReport(
                dev <= rel_tol * max(abs(t[0]), abs(t[4])), dev, eigs, t, rel_tol)
            got = sn.verify_spectrum(m, target, rel_tol=rel_tol)
            assert type(got) is sn.VerificationReport
            assert got == want
            assert _report_fields(got) == _report_fields(want)
            checked += got.passed
    assert 0 < checked < 2 * len(_kernel_cases())


def test_symmatrix_fields_repr_and_eq_stay_those_of_the_dataclass():
    # the class-level _eigenvalues default is no field: not in fields(),
    # repr or pickled state before a store, and equality stays identity
    import dataclasses
    import pickle

    assert [f.name for f in dataclasses.fields(sn.SymMatrix5)] == \
        ["entries", "provenance"]
    m = sn.SymMatrix5(np.eye(5))
    row = "(1.0, 0.0, 0.0, 0.0, 0.0)"
    assert repr(m).startswith(f"SymMatrix5(entries=({row}, (0.0, 1.0,")
    assert repr(m).endswith("(0.0, 0.0, 0.0, 0.0, 1.0)), provenance='external')")
    assert "_eigenvalues" not in vars(m)
    assert m._eigenvalues is None
    twin = pickle.loads(pickle.dumps(m))
    assert twin._eigenvalues is None
    assert m == m and m != twin and m != sn.SymMatrix5(np.eye(5))
    before = repr(m)
    sn.sym_eigenvalues(m)
    assert repr(m) == before
    assert sn.SymMatrix5._eigenvalues is None


def test_symmatrix_stores_its_eigenvalues():
    m = sn.build_pattern_a(EX1)
    first = sn.sym_eigenvalues(m)
    assert sn.sym_eigenvalues(m) is first


def test_verify_and_entry_bound_share_one_jacobi(monkeypatch):
    calls = []
    kernel = verify._jacobi

    def counted(a, max_sweeps):
        calls.append(max_sweeps)
        return kernel(a, max_sweeps)

    monkeypatch.setattr(verify, "_jacobi", counted)
    m = sn.build_pattern_a(EX1)
    assert sn.verify_spectrum(m, EX1).passed
    assert sn.entry_bound_check(m)
    assert len(calls) == 1
    # plain arrays run the kernel every call
    a = np.array(m.entries)
    sn.sym_eigenvalues(a)
    sn.sym_eigenvalues(a)
    assert len(calls) == 3


def test_stored_eigenvalues_keep_the_compact_layout(monkeypatch):
    # bytes per matrix, fresh and after sym_eigenvalues stored one shared
    # spectrum on it; a store through __dict__ materializes a per-instance
    # dict, about 60 bytes more
    rows = sn.build_pattern_a(EX1).entries
    shared = verify._jacobi(rows, verify.MAX_SWEEPS)
    monkeypatch.setattr(verify, "_jacobi", lambda entries, max_sweeps: shared)

    def stored():
        m = _built_matrix(rows, "pattern_a")
        assert sn.sym_eigenvalues(m) is shared
        return m

    fresh = bytes_each(lambda: _built_matrix(rows, "pattern_a"))
    after = bytes_each(stored)
    # on 3.10 every instance carries a dict, so the store adds a key to it
    # and the bound holds at both layouts; from 3.11 it guards the inline one
    assert after <= fresh + 16, (after, fresh)


def test_stored_eigenvalues_leave_identity_semantics():
    a = sn.build_pattern_a(EX1).entries
    m, twin = sn.SymMatrix5(a), sn.SymMatrix5(a)
    before = repr(m)
    sn.sym_eigenvalues(m)
    assert repr(m) == before == repr(twin)
    assert m == m and m != twin
