"""Spectrum containers, elementary symmetric functions, stored invariants."""
import contextlib
import dataclasses
import itertools
import json
import math
import sys

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sniep5 as sn
from sniep5.pattern_b import compute_klm
from sniep5.spectrum import _built_matrix, _unit_scale
from support import (
    assert_ident,
    bytes_each,
    esym_bruteforce,
    hex_bits,
    poly_from_roots,
    sample_until,
)

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


_BASE = (5.0, 4.0, 3.0, 2.0, 1.0)


def _with(i, x):
    return _BASE[:i] + (x,) + _BASE[i + 1:]


def _swapped(i):
    v = list(_BASE)
    v[i], v[i + 1] = v[i + 1], v[i]
    return tuple(v)


@pytest.mark.parametrize("cls", [sn.Spectrum, sn.SortedSpectrum])
@pytest.mark.parametrize("values,message", [
    ((1.0, 2.0, 3.0), "expected 5 values, got 3"),
    ((5, 4, 3, 2, 1, 0), "expected 5 values, got 6"),
    ((5.0, "x", 3.0, 2.0, 1.0), "non-numeric entry in (5.0, 'x', 3.0, 2.0, 1.0)"),
    ((5.0, None, 3.0, 2.0, 1.0), "non-numeric entry in (5.0, None, 3.0, 2.0, 1.0)"),
    (5.0, "non-numeric entry in 5.0"),
    *[(_with(i, bad), f"non-finite entry in {_with(i, bad)}")
      for bad in (math.nan, math.inf, -math.inf) for i in range(5)],
])
def test_invalid_spectrum_messages(cls, values, message):
    with pytest.raises(sn.InvalidSpectrum) as info:
        cls(values)
    assert str(info.value) == message


@pytest.mark.parametrize("i", range(4))
def test_sorted_spectrum_order_message_per_pair(i):
    with pytest.raises(sn.InvalidSpectrum) as info:
        sn.SortedSpectrum(_swapped(i))
    assert str(info.value) == f"not in descending order: {_swapped(i)}"
    sn.Spectrum(_swapped(i))  # order is not asked of an unsorted spectrum


@pytest.mark.parametrize("cls", [sn.Spectrum, sn.SortedSpectrum])
def test_values_by_keyword_and_through_replace(cls):
    s = cls(values=[5, 4, "3", 2, 1])
    assert type(s) is cls and s.values == _BASE
    moved = dataclasses.replace(s, values=(6, 4, 3, 2, 1))
    assert type(moved) is cls and moved.values == (6.0, 4.0, 3.0, 2.0, 1.0)
    # replace runs the same checks, with the same messages
    with pytest.raises(sn.InvalidSpectrum) as info:
        dataclasses.replace(s, values=_with(2, math.nan))
    assert str(info.value) == f"non-finite entry in {_with(2, math.nan)}"
    if cls is sn.SortedSpectrum:
        with pytest.raises(sn.InvalidSpectrum) as info:
            dataclasses.replace(s, values=_swapped(0))
        assert str(info.value) == f"not in descending order: {_swapped(0)}"


@pytest.mark.parametrize("cls,text", [
    pytest.param(sn.Spectrum, "12345", id="str"),
    pytest.param(sn.Spectrum, b"12345", id="bytes"),
    pytest.param(sn.Spectrum, bytearray(b"12345"), id="bytearray"),
    pytest.param(sn.SortedSpectrum, "54321", id="sorted_str"),
    pytest.param(sn.SortedSpectrum, b"54321", id="sorted_bytes"),
])
def test_spectrum_refuses_text(cls, text):
    # iterating text gives characters or byte codes, not five numbers
    with pytest.raises(sn.InvalidSpectrum, match="text, not numbers"):
        cls(text)


def test_invariants_are_named_tuples():
    s = sn.SortedSpectrum(EX1)
    assert sn.elem_syms(s) == EX1_ESYMS
    assert sn.elem_syms(s).as_tuple() == EX1_ESYMS
    assert type(sn.elem_syms(s).as_tuple()) is tuple
    sc = sn.compute_uvwr(s)
    assert (sc.u, sc.v, sc.w, sc.r) == tuple(sc)
    assert repr(sn.elem_syms(s)).startswith("ElemSyms(e1=350.0, e2=")


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


# digit groups joined by single underscores, as float() accepts them
_DIGITS = st.lists(st.text("0123456789", min_size=1, max_size=3),
                   min_size=1, max_size=3).map("_".join)
_PAD = st.sampled_from(["", " ", "  ", "\t"])
_TYPED = st.one_of(
    st.tuples(
        _PAD,
        st.sampled_from(["", "-", "+"]),
        _DIGITS,
        st.one_of(st.just(""), _DIGITS.map(lambda d: "." + d)),
        st.one_of(st.just(""), st.builds("{}{}".format, st.sampled_from("eE"),
                                         st.integers(-300, 290))),
        _PAD,
    ).map("".join),
    st.sampled_from(["-0", "-0.0", " +0.0e-3 ", "0_0", "-0e0", ".5", "-.5e-1"]),
)


@given(st.lists(_TYPED, min_size=5, max_size=5).map(",".join))
@example("1e3, 381,360 ,-641,-750")
@example("-0,0,-0.0,+0,1_000")
@settings(deadline=None, max_examples=300)
def test_parse_spectrum_converts_as_float_does(text):
    want = tuple(float(p.strip()) for p in text.split(","))
    got = sn.parse_spectrum(text)
    assert type(got) is sn.Spectrum
    assert hex_bits(got.values) == hex_bits(want)


@pytest.mark.parametrize("text,message", [
    ("", "expected 5 comma-separated values, got 1"),
    ("1,2,3,4", "expected 5 comma-separated values, got 4"),
    ("1,2,3,4,5,6", "expected 5 comma-separated values, got 6"),
    ("a,b,c,d,e", "non-numeric entry in ('a', 'b', 'c', 'd', 'e')"),
    ("1,x,3,4,5", "non-numeric entry in ('1', 'x', '3', '4', '5')"),
    ("1e400,1,1,1,1", "non-finite entry in (inf, 1.0, 1.0, 1.0, 1.0)"),
], ids=["empty", "four", "six", "words", "one_word", "overflow"])
def test_parse_spectrum_rejects(text, message):
    with pytest.raises(sn.InvalidSpectrum) as info:
        sn.parse_spectrum(text)
    assert str(info.value) == message


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
    return hex_bits((-c[1], c[2], -c[3], c[4], -c[5]))


def _uvwr_reference(vals):
    """u, v, w, r written out from the reference e1..e3, in the package's order."""
    l1, l2, l3, l4, l5 = sorted(vals, reverse=True)
    c = poly_from_roots([l1, l2, l3, l4, l5])
    e1, e2, e3 = -c[1], c[2], -c[3]
    u = -e2 - l2 * l2 - l5 * l5
    v = -((l3 + l5) * (l4 + l5) * (l2 + l4) * (l2 + l3) * (l1 + l2) * (l1 + l5))
    w = l2 * l5 * e1 - l1 * l3 * l4
    r = e3 + e1 * (l2 * l2 + l5 * l5)
    return hex_bits((u, v, w, r))


def _uvwr_bits(s):
    sc = sn.compute_uvwr(s)
    return hex_bits((sc.u, sc.v, sc.w, sc.r))


_finite = st.floats(-1e3, 1e3, allow_nan=False)
# signed zeros, two-decimal entries and magnitudes from 1e-8 to 1e8: the
# expansion's 0.0 - x steps differ from -x exactly when x is a signed zero
_entry = st.one_of(
    _finite,
    st.sampled_from([0.0, -0.0]),
    st.integers(-999, 999).map(lambda k: k / 100),
    st.tuples(st.floats(-1.0, 1.0), st.integers(-8, 8)).map(
        lambda p: p[0] * 10.0 ** p[1]),
)


@given(st.one_of(
    st.tuples(_finite, _finite, _finite, _finite, _finite),
    st.tuples(_entry, _entry, _entry, _entry, _entry),
    # the worked examples, scaled, reach the builders and their gates
    st.tuples(st.sampled_from([EX1, (1000.0, 370.0, 367.0, -637.0, -750.0)]),
              st.floats(1e-3, 1e3)).map(lambda p: tuple(p[1] * v for v in p[0])),
), st.booleans())
@settings(deadline=None, max_examples=300)
@pytest.mark.filterwarnings("ignore::sniep5.errors.BoundaryProximityWarning")
def test_stored_elem_syms_bit_identical(vals, read_first):
    unsorted = sn.Spectrum(vals[::-1])
    want = _esyms_reference(unsorted.values)
    want_uvwr = _uvwr_reference(unsorted.values)
    s = sn.sort_descending(unsorted)
    if read_first:
        assert hex_bits(sn.elem_syms(unsorted).as_tuple()) == want
        assert hex_bits(sn.elem_syms(s).as_tuple()) == want
        assert _uvwr_bits(s) == want_uvwr
    unsorted.elem_syms
    decision = sn.classify(s)
    with contextlib.suppress(sn.SniepError, ValueError):
        sn.build_pattern_a(s)
    with contextlib.suppress(sn.SniepError, ValueError):
        sn.build_pattern_b(s, 0.0 if decision.g is None else decision.g)
    assert hex_bits(sn.elem_syms(unsorted).as_tuple()) == want
    assert hex_bits(sn.elem_syms(s).as_tuple()) == want
    assert sn.elem_syms(s) is sn.elem_syms(s)
    assert _uvwr_bits(s) == want_uvwr
    assert sn.compute_uvwr(s) is sn.compute_uvwr(s)


_EXTREME = st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e300, -1e300, 1e-300, -1e-300])


@given(st.one_of(
    st.tuples(_EXTREME, _EXTREME, _EXTREME, _EXTREME, _EXTREME),
    st.tuples(_entry, _entry, _EXTREME, _entry, _EXTREME),
))
# ties of -0.0 and 0.0 keep their input order (a stable sort), duplicates too
@example((0.0, -0.0, 0.0, -0.0, 0.0))
@example((-0.0, 1.0, 0.0, 1.0, -0.0))
@example((1e300, -1e300, 1e-300, -1e-300, 1e300))
@settings(deadline=None, max_examples=300)
def test_sort_descending_matches_checked_constructor(vals):
    got = sn.sort_descending(sn.Spectrum(vals))
    want = sn.SortedSpectrum(tuple(sorted(vals, reverse=True)))
    assert type(got) is sn.SortedSpectrum
    assert got == want and hash(got) == hash(want) and repr(got) == repr(want)
    assert hex_bits(got.values) == hex_bits(want.values)
    assert hex_bits(sn.elem_syms(got).as_tuple()) == hex_bits(sn.elem_syms(want).as_tuple())


def test_stores_keep_the_compact_layout():
    # a store through __dict__ materializes a per-instance dict, about 64
    # bytes more per spectrum; the 1 byte covers one-off allocations
    unsorted = sn.Spectrum(EX1[::-1])
    internal = bytes_each(lambda: sn.sort_descending(unsorted))
    public = bytes_each(lambda: sn.SortedSpectrum(EX1))
    assert internal <= public + 1, (internal, public)

    # the ElemSyms and its five floats; a tuple subclass carries one spare
    # slot, which sys.getsizeof leaves out
    spectra = iter([sn.SortedSpectrum(EX1) for _ in range(2009)])
    es = sn.SortedSpectrum(EX1).elem_syms
    stored = sys.getsizeof(es) + sum(map(sys.getsizeof, es))
    read = bytes_each(lambda: next(spectra).elem_syms)
    assert read <= stored + 16, (read, stored)


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


@pytest.mark.parametrize("entries", [
    pytest.param(np.eye(5), id="ndarray"),
    pytest.param([[float(i == j) for j in range(5)] for i in range(5)],
                 id="nested_lists"),
    pytest.param([[int(i == j) for j in range(5)] for i in range(5)], id="ints"),
    pytest.param([[np.float64(i == j) for j in range(5)] for i in range(5)],
                 id="np_float64"),
])
def test_sym_matrix_stores_python_float_rows(entries):
    m = sn.SymMatrix5(entries)
    assert type(m.entries) is tuple and len(m.entries) == 5
    assert all(type(row) is tuple and len(row) == 5 for row in m.entries)
    assert all(type(x) is float for row in m.entries for x in row)
    assert m.entries == tuple(tuple(float(i == j) for j in range(5))
                              for i in range(5))


def test_sym_matrix_value_contract():
    rows = [[0.0] * 5 for _ in range(5)]
    rows[1][1] = -0.0
    m = sn.SymMatrix5(rows)
    assert math.copysign(1.0, m.entries[1][1]) == -1.0
    a = np.asarray(m)
    assert a.dtype == np.float64 and a.shape == (5, 5)
    assert math.copysign(1.0, a[1, 1]) == -1.0
    a[0, 0] = 7.0  # a fresh array: writing to it leaves the matrix alone
    assert m.entries[0][0] == 0.0
    assert not np.shares_memory(a, np.asarray(m))
    with pytest.raises(ValueError):
        sn.SymMatrix5(["11111"] * 5)  # text rows are not rows of numbers


def test_sym_matrix_entries_read_only():
    m = _sample_matrix()
    with pytest.raises(TypeError):
        m.entries[0][0] = 1.0


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


# the first draws of acceptance suites 04 and 05: seed, gate, builder, box
SUITE_DRAWS = {
    "pattern_a": (20240, sn.pattern_a_conditions, sn.build_pattern_a, {}),
    "pattern_b": (20241, sn.pattern_b_conditions,
                  lambda s: sn.build_pattern_b(s, sn.find_g(s)),
                  dict(t_lo=0.15, t_hi=0.45, x_pow=5, y_top=0.3)),
}


@pytest.mark.parametrize("provenance", sorted(SUITE_DRAWS))
def test_builder_rows_match_the_public_constructor(provenance):
    seed, gate, build, draw_kw = SUITE_DRAWS[provenance]
    rng = np.random.default_rng(seed)
    for s in sample_until(rng, lambda s: bool(gate(s)), 2000, **draw_kw):
        m = build(s)
        assert m.provenance == provenance
        rows = m.entries
        assert type(rows) is tuple and len(rows) == 5
        assert all(type(row) is tuple and len(row) == 5 for row in rows)
        assert all(type(x) is float for row in rows for x in row)
        assert rows == tuple(zip(*rows))
        again = sn.SymMatrix5(rows, provenance=m.provenance)
        assert [[x.hex() for x in row] for row in again.entries] == \
            [[x.hex() for x in row] for row in rows]


@pytest.mark.parametrize("bad,message", [
    (math.nan, "matrix has non-finite entries"),
    (math.inf, "matrix has non-finite entries"),
    (-1.0, "pattern_b matrix has a negative entry"),
])
def test_builder_matrix_keeps_the_checks_that_can_fail(bad, message):
    rows = [[0.0] * 5 for _ in range(5)]
    rows[1][3] = rows[3][1] = bad
    rows = tuple(map(tuple, rows))
    for make in (_built_matrix, lambda r, p: sn.SymMatrix5(r, provenance=p)):
        with pytest.raises(ValueError, match=f"^{message}$"):
            make(rows, "pattern_b")


def test_realize_builds_a_five_cycle_matrix_past_an_overflowed_scalar():
    # classify certifies the list, but v, a product of six sums, overflows;
    # the builder then works on the list scaled by a power of 2
    s = sn.sort_descending(
        sn.parse_spectrum("1e52,0.381e52,0.36e52,-0.641e52,-0.75e52"))
    decision = sn.classify(s)
    assert decision.certificate is sn.Certificate.PATTERN_A
    assert s.uvwr.v == math.inf
    m = sn.realize(s, decision)
    assert m.provenance == "pattern_a"
    assert sn.verify_spectrum(m, s).passed
    assert sn.entry_bound_check(m)


def test_sym_matrix_parse_rejects_asymmetric_text():
    rows = [[0.0] * 5 for _ in range(5)]
    rows[0][1] = 2.0
    text = "\n".join(" ".join("%.17g" % v for v in row) for row in rows)
    with pytest.raises(ValueError):
        sn.SymMatrix5.parse(text)


_BELOW_2 = math.nextafter(2.0, 0.0)


@pytest.mark.parametrize("l1", [0.75, math.nextafter(1.0, 0.0), 1.0, _BELOW_2, 2.0])
@pytest.mark.parametrize("l5", [-0.5, -_BELOW_2, -2.0])
def test_unit_scale_keeps_exactly_the_lists_already_at_unit_scale(l1, l5):
    # the inline fast path and the frexp path must agree at every edge
    s = sn.SortedSpectrum((l1, 0.5, 0.0, -0.25, l5))
    unit, k = _unit_scale(s)
    top = max(l1, -l5)
    assert (unit is s and k == 0) == (math.frexp(top)[1] == 1)
    assert k == math.frexp(top)[1] - 1
    assert unit.values == tuple(math.ldexp(x, -k) for x in s.values)
    assert 1.0 <= max(unit.lam1, -unit.lam5) < 2.0


# read in place, each list's first and last entries are not its lam1 and
# lam5; sorted, they are EX1 (five-cycle) and EX2 (two-paths)
_UNSORTED_A = sn.Spectrum((-750.0, 1000.0, 381.0, 360.0, -641.0))
_UNSORTED_B = sn.Spectrum((-750.0, 1000.0, 370.0, 367.0, -637.0))
# read in place, -1 would move as lam1 and c2 of Q would be -1.0, not 2.0
_UNSORTED_C = sn.Spectrum((-1.0, 1.0, 0.5, 0.0, 0.0))
# sorted, (4, 0, 0, -2, -2) is on the zero-sum face; in place, lam5 < -lam1
_UNSORTED_Z = sn.Spectrum((-2.0, 4.0, 0.0, 0.0, -2.0))


@pytest.mark.parametrize("call, s", [
    (lambda s: _unit_scale(s), _UNSORTED_B),
    (lambda s: sn.find_g(s), _UNSORTED_B),
    (lambda s: sn.pattern_a_conditions(s), _UNSORTED_A),
    (lambda s: sn.pattern_b_conditions(s), _UNSORTED_B),
    (lambda s: sn.build_pattern_a(s), _UNSORTED_A),
    (lambda s: sn.build_pattern_b(s, 174.23919393152335), _UNSORTED_B),
    (lambda s: sn.compute_uvwr(s), _UNSORTED_C),
    (lambda s: sn.q_poly(s), _UNSORTED_C),
    (lambda s: compute_klm(s, 0.25), _UNSORTED_C),
    (lambda s: sn.apply_perturbation(s, sn.Perturbation(2, "minus", 0.25)),
     _UNSORTED_C),
    (lambda s: sn.classify_trace_zero(s), _UNSORTED_Z),
    (lambda s: sn.decide_perturbed(s, sn.Perturbation(2, "minus", 0.25)),
     _UNSORTED_Z),
], ids=["_unit_scale", "find_g", "pattern_a_conditions",
        "pattern_b_conditions", "build_pattern_a", "build_pattern_b",
        "compute_uvwr", "q_poly", "compute_klm", "apply_perturbation",
        "classify_trace_zero", "decide_perturbed"])
def test_the_pattern_layer_refuses_an_unsorted_spectrum(call, s):
    with pytest.raises(TypeError, match="sort_descending"):
        call(s)
    call(sn.sort_descending(s))
