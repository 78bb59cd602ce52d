"""Spectrum containers, elementary symmetric functions, necessary conditions."""
import contextlib
import itertools
import json
import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sniep5 as sn
from support import assert_ident, esym_bruteforce, poly_from_roots

EX1 = (1000.0, 381.0, 360.0, -641.0, -750.0)
EX1_ESYMS = (350.0, -1062821.0, -247374810.0, 231385860000.0, 65939670000000.0)


def test_spectrum_coercion_and_iteration():
    s = sn.Spectrum.of(1, 2, 3, 4, 5)
    assert s.values == (1.0, 2.0, 3.0, 4.0, 5.0)
    assert list(s) == [1.0, 2.0, 3.0, 4.0, 5.0]
    assert all(isinstance(v, float) for v in s.values)


def test_spectrum_rejects_bad_input():
    with pytest.raises(sn.InvalidSpectrum):
        sn.Spectrum((1.0, 2.0, 3.0))
    with pytest.raises(sn.InvalidSpectrum):
        sn.Spectrum.of(1, 2, 3, 4, math.nan)
    with pytest.raises(sn.InvalidSpectrum):
        sn.Spectrum.of(1, 2, 3, 4, math.inf)


def test_sort_descending():
    s = sn.sort_descending(sn.Spectrum.of(360, 1000, -750, 381, -641))
    assert isinstance(s, sn.SortedSpectrum)
    assert s.values == EX1


def test_sort_descending_with_ties():
    s = sn.sort_descending(sn.Spectrum.of(1, 2, 1, 3, 2))
    assert s.values == (3.0, 2.0, 2.0, 1.0, 1.0)


def test_sorted_spectrum_rejects_unsorted():
    with pytest.raises(sn.InvalidSpectrum):
        sn.SortedSpectrum((1.0, 2.0, 3.0, 4.0, 5.0))


def test_sorted_spectrum_accessors():
    s = sn.SortedSpectrum(EX1)
    assert (s.lam1, s.lam2, s.lam3, s.lam4, s.lam5) == EX1


def test_parse_spectrum():
    s = sn.parse_spectrum("1e3, 381,360 ,-641,-750")
    assert s.values == EX1


@pytest.mark.parametrize("text", ["", "1,2,3,4", "1,2,3,4,5,6", "a,b,c,d,e"])
def test_parse_spectrum_rejects(text):
    with pytest.raises(sn.InvalidSpectrum):
        sn.parse_spectrum(text)


def test_elem_syms_small_integer_case():
    es = sn.elem_syms(sn.SortedSpectrum((2.0, 1.0, 0.0, -1.0, -2.0)))
    assert es.as_tuple() == (0.0, -5.0, 0.0, 4.0, 0.0)


def test_elem_syms_golden():
    es = sn.elem_syms(sn.SortedSpectrum(EX1))
    assert es.as_tuple() == EX1_ESYMS


def test_elem_syms_single_nonzero_entry():
    es = sn.elem_syms(sn.SortedSpectrum((7.0, 0.0, 0.0, 0.0, 0.0)))
    assert es.as_tuple() == (7.0, 0.0, 0.0, 0.0, 0.0)


def test_elem_syms_matches_bruteforce():
    rng = np.random.default_rng(11)
    for _ in range(200):
        vals = tuple(sorted(rng.uniform(-9, 9, 5), reverse=True))
        got = sn.elem_syms(sn.SortedSpectrum(vals)).as_tuple()
        want = esym_bruteforce(vals)
        m = max(abs(v) for v in vals)
        for n, (g, w) in enumerate(zip(got, want), start=1):
            # scale by the subset-sum magnitude, not the cancelled result
            assert_ident(g, w, 1e-12, scale=math.comb(5, n) * m ** n)


def test_elem_syms_permutation_invariant_bitwise():
    rng = np.random.default_rng(3)
    vals = tuple(rng.uniform(-5, 5, 5))
    base = sn.elem_syms(sn.Spectrum(tuple(sorted(vals, reverse=True)))).as_tuple()
    for perm in itertools.permutations(vals):
        assert sn.elem_syms(sn.Spectrum(perm)).as_tuple() == base


def test_vieta_round_trip():
    rng = np.random.default_rng(5)
    for _ in range(100):
        vals = tuple(sorted(rng.uniform(-4, 4, 5), reverse=True))
        es = sn.elem_syms(sn.SortedSpectrum(vals)).as_tuple()
        coeffs = poly_from_roots(vals)
        m = max(1.0, max(abs(v) for v in vals))
        for n in range(1, 6):
            assert_ident(coeffs[n], (-1.0) ** n * es[n - 1], 1e-12,
                         scale=math.comb(5, n) * m ** n)


@given(st.lists(st.floats(-100, 100), min_size=5, max_size=5),
       st.floats(0.01, 100))
@settings(deadline=None, max_examples=200)
def test_elem_syms_scaling_homogeneity(vals, alpha):
    s = sn.sort_descending(sn.Spectrum(tuple(vals)))
    base = sn.elem_syms(s).as_tuple()
    scaled = sn.elem_syms(sn.scale(s, alpha)).as_tuple()
    m = max(1.0, max(abs(v) for v in vals)) * max(1.0, alpha)
    for n in range(1, 6):
        assert_ident(scaled[n - 1], alpha ** n * base[n - 1], 1e-12,
                     scale=math.comb(5, n) * m ** n)


def _esyms_reference(vals):
    """The product expansion, in the package's order, recomputed from scratch."""
    c = poly_from_roots(sorted(vals, reverse=True))
    return _bits((-c[1], c[2], -c[3], c[4], -c[5]))


def _bits(xs):
    # float.hex tells -0.0 from 0.0, which == does not
    return tuple(x.hex() for x in xs)


_finite = st.floats(-1e3, 1e3, allow_nan=False)


@given(st.one_of(
    st.tuples(_finite, _finite, _finite, _finite, _finite),
    # the worked examples, scaled, reach the builders and their gates
    st.tuples(st.sampled_from([EX1, (1000.0, 370.0, 367.0, -637.0, -750.0)]),
              st.floats(1e-3, 1e3)).map(lambda p: tuple(p[1] * v for v in p[0])),
), st.booleans())
@settings(deadline=None, max_examples=300)
@pytest.mark.filterwarnings("ignore::sniep5.errors.BoundaryProximityWarning")
def test_stored_elem_syms_bit_identical(vals, read_first):
    unsorted = sn.Spectrum(vals[::-1])
    want = _esyms_reference(unsorted.values)
    s = sn.sort_descending(unsorted)
    if read_first:
        assert _bits(sn.elem_syms(unsorted).as_tuple()) == want
        assert _bits(sn.elem_syms(s).as_tuple()) == want
    sn.check_trace(unsorted)
    decision = sn.classify(s)
    with contextlib.suppress(sn.SniepError, ValueError):
        sn.build_pattern_a(s)
    with contextlib.suppress(sn.SniepError, ValueError):
        sn.build_pattern_b(s, 0.0 if decision.g is None else decision.g)
    assert _bits(sn.elem_syms(unsorted).as_tuple()) == want
    assert _bits(sn.elem_syms(s).as_tuple()) == want
    assert sn.elem_syms(s) is sn.elem_syms(s)


def test_stored_elem_syms_leaves_value_semantics():
    s = sn.SortedSpectrum(EX1)
    sn.classify(s)
    fresh = sn.SortedSpectrum(EX1)
    assert s == fresh and hash(s) == hash(fresh) and repr(s) == repr(fresh)
    assert repr(s) == f"SortedSpectrum(values={EX1!r})"


def test_scale_requires_positive_factor():
    s = sn.SortedSpectrum(EX1)
    assert sn.scale(s, 0.001).values == (1.0, 0.381, 0.36, -0.641, -0.75)
    with pytest.raises(ValueError):
        sn.scale(s, 0.0)
    with pytest.raises(ValueError):
        sn.scale(s, -2.0)


@pytest.mark.parametrize("vals,want", [
    (EX1, True),
    ((1.0, 0.5, 0.0, -0.5, -1.0), True),        # equality holds
    ((1.0, 0.0, 0.0, -0.5, -1.5), False),       # top fails to dominate
    ((-1.0, -2.0, -3.0, -4.0, -5.0), False),
])
def test_check_pf(vals, want):
    assert sn.check_pf(sn.SortedSpectrum(vals)) is want


@pytest.mark.parametrize("vals,want", [
    (EX1, True),
    ((2.0, 1.0, 0.0, -1.0, -2.0), True),        # exactly zero
    ((1.0, 0.0, -0.5, -0.5, -0.5), False),
])
def test_check_trace(vals, want):
    assert sn.check_trace(sn.SortedSpectrum(vals)) is want


@pytest.mark.parametrize("vals,want", [
    (EX1, True),
    ((3.0, 2.9, -1.9, -2.0, -2.0), False),      # 3 - 1.9 - 2 < 0
    ((1.0, 1.0, -0.4, -0.6, -1.0), True),
])
def test_check_mn(vals, want):
    assert sn.check_mn(sn.SortedSpectrum(vals)) is want


def test_condition_report_accessors():
    rep = sn.pattern_a_conditions(sn.SortedSpectrum(EX1))
    assert bool(rep) is True
    assert rep.passed is True
    assert rep.failed == ()
    assert all(ok for _, ok in rep.checks)
    assert rep.g is None


def _sample_matrix():
    entries = np.zeros((5, 5))
    entries[0, 0] = 350.0
    entries[0, 2] = entries[2, 0] = 1.5
    return sn.SymMatrix5(entries)


def test_sym_matrix_validation():
    with pytest.raises(ValueError):
        sn.SymMatrix5(np.zeros((4, 4)))
    bad = np.zeros((5, 5))
    bad[0, 1] = 1.0
    with pytest.raises(ValueError):
        sn.SymMatrix5(bad)
    neg = np.zeros((5, 5))
    neg[0, 0] = -1.0
    with pytest.raises(ValueError):
        sn.SymMatrix5(neg, provenance="pattern_a")
    sn.SymMatrix5(neg)  # no sign constraint without a construction provenance


def test_sym_matrix_entries_read_only():
    m = _sample_matrix()
    with pytest.raises(ValueError):
        m.entries[0, 0] = 1.0


def test_sym_matrix_text_round_trip():
    m = _sample_matrix()
    again = sn.SymMatrix5.parse(m.format_text())
    npt.assert_array_equal(again.entries, m.entries)


def test_sym_matrix_json_round_trip():
    m = _sample_matrix()
    payload = m.format_json()
    json.loads(payload)  # must be valid on its own
    again = sn.SymMatrix5.parse(payload)
    npt.assert_array_equal(again.entries, m.entries)


def test_sym_matrix_parse_rejects_asymmetric_text():
    rows = [[0.0] * 5 for _ in range(5)]
    rows[0][1] = 2.0
    text = "\n".join(" ".join("%.17g" % v for v in row) for row in rows)
    with pytest.raises(ValueError):
        sn.SymMatrix5.parse(text)
