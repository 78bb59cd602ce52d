"""Decision procedure: rule order, certificates, reasons, trace-zero branch."""
import copy
import dataclasses
import enum
import hashlib
import importlib
import json
import math
import os
import pickle
import random
import subprocess
import sys
import warnings
import weakref
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import sniep5 as sn
from sniep5 import Certificate, Reason, Verdict
from sniep5.classify import _IS_PF_VIOLATED, _decided, is_trace_zero
from sniep5.spectrum import _expand, _region, _trace, _unit_scale
from support import bytes_each, draw_box_point, hex_bits, poly_from_roots, sample_until
from test_cli import DIRECT_SUM, MN, SULEIMANOVA, TRACE, TWO_POSITIVE

EX1 = sn.SortedSpectrum((1000.0, 381.0, 360.0, -641.0, -750.0))
EX2 = sn.SortedSpectrum((1000.0, 370.0, 367.0, -637.0, -750.0))
UNKNOWN_GOLDEN = sn.SortedSpectrum((1.0, 0.415, 0.3565, -0.6815, -0.74))


def _quiet_classify(s):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", sn.BoundaryProximityWarning)
        return sn.classify(s)


def test_golden_pattern_a():
    d = sn.classify(EX1)
    assert d.verdict is Verdict.REALIZABLE
    assert d.certificate is Certificate.PATTERN_A
    assert d.reason is None and d.g is None
    assert d.details.to_json_dict() == {
        "e1": 350.0, "r": 306540.0, "u": 355160.0, "mn_sum": 719.0}


def test_golden_pattern_b():
    d = sn.classify(EX2)
    assert d.verdict is Verdict.REALIZABLE
    assert d.certificate is Certificate.PATTERN_B
    npt.assert_allclose(d.g, 174.23919393152335, rtol=1e-12)
    assert d.details.r == -127980.0


@pytest.mark.parametrize("vals,reason,holds", [
    # Perron dominance: lam1 >= 0 and lam1 >= -lam5
    (EX1.values, Reason.PF_VIOLATED, True),
    ((1.0, 0.5, 0.0, -0.5, -1.0), Reason.PF_VIOLATED, True),    # lam1 == -lam5
    ((1.0, 0.0, 0.0, -0.5, -1.5), Reason.PF_VIOLATED, False),
    ((-1.0, -2.0, -3.0, -4.0, -5.0), Reason.PF_VIOLATED, False),
    # nonnegative trace e1
    (EX1.values, Reason.TRACE_VIOLATED, True),
    ((2.0, 1.0, 0.0, -1.0, -2.0), Reason.TRACE_VIOLATED, True),  # e1 == 0
    ((1.0, 0.0, -0.5, -0.5, -0.5), Reason.TRACE_VIOLATED, False),
    # lam1 + lam3 + lam4 >= 0
    (EX1.values, Reason.MN_VIOLATED, True),
    ((1.0, 1.0, -0.4, -0.6, -1.0), Reason.MN_VIOLATED, True),    # sum == 0
    ((3.0, 2.9, -1.9, -2.0, -2.0), Reason.MN_VIOLATED, False),
])
def test_necessary_condition_reasons(vals, reason, holds):
    d = sn.classify(sn.SortedSpectrum(vals))
    if holds:
        assert d.reason is not reason
    else:
        assert d.verdict is Verdict.NOT_REALIZABLE
        assert d.reason is reason
        assert d.certificate is None


@pytest.mark.parametrize("vals,cert", [
    ((1.0, -0.1, -0.2, -0.3, -0.35), Certificate.SULEIMANOVA),
    ((1.0, 0.5, 0.0, -0.7, -0.75), Certificate.TWO_POSITIVE),
    ((1.0, 0.9, 0.3, -0.5, -0.6), Certificate.DIRECT_SUM),
])
def test_realizable_region_certificates(vals, cert):
    d = sn.classify(sn.SortedSpectrum(vals))
    assert d.verdict is Verdict.REALIZABLE
    assert d.certificate is cert


def test_negated_perron_boundary():
    s = sn.SortedSpectrum((1.0, 0.9, 0.85, -0.95, -1.0))
    with pytest.warns(sn.BoundaryProximityWarning):
        d = sn.classify(s)
    assert d.verdict is Verdict.NOT_REALIZABLE
    assert d.reason is Reason.NEGATED_PERRON_BOUNDARY


def test_near_boundary_warns_but_decides():
    s = sn.SortedSpectrum((1.0, 0.9, 0.85, -0.95, -1.0 + 1e-13))
    with pytest.warns(sn.BoundaryProximityWarning) as caught:
        d = sn.classify(s)
    assert d.reason is not Reason.NEGATED_PERRON_BOUNDARY
    # the warning names the caller of classify
    assert [w.filename for w in caught] == [__file__]


def test_no_warning_away_from_boundary():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sn.classify(EX1)
        sn.classify(EX2)


def test_unknown_golden_and_coverage():
    d = sn.classify(UNKNOWN_GOLDEN)
    assert d.verdict is Verdict.UNKNOWN
    assert d.certificate is None and d.reason is None
    # undecided points must sit outside every rule, not just fall through
    s = UNKNOWN_GOLDEN
    e1 = sn.elem_syms(s).e1
    assert s.lam1 >= -s.lam5 and e1 >= 0.0 and s.lam1 + s.lam3 + s.lam4 >= 0.0
    assert s.lam2 > 0.0 and s.lam3 > e1
    assert s.lam5 != -s.lam1
    assert "r_nonnegative" in sn.pattern_a_conditions(s).failed
    assert "root_in_range" in sn.pattern_b_conditions(s).failed


def test_rule_order_prefers_perron_over_trace():
    # violates both: the first rule wins
    d = sn.classify(sn.SortedSpectrum((1.0, -0.5, -0.75, -1.0, -1.25)))
    assert d.reason is Reason.PF_VIOLATED


def test_scale_invariance():
    cases = [EX1, EX2, UNKNOWN_GOLDEN,
             sn.SortedSpectrum((1.0, -0.1, -0.2, -0.3, -0.35)),
             sn.SortedSpectrum((3.0, 2.9, -1.9, -2.0, -2.0))]
    for s in cases:
        base = _quiet_classify(s)
        for alpha in (0.001, 17.5):
            scaled = _quiet_classify(sn.scale(s, alpha))
            assert scaled.verdict is base.verdict
            assert scaled.certificate is base.certificate
            assert scaled.reason is base.reason
            if base.g is not None:
                npt.assert_allclose(scaled.g, alpha * base.g, rtol=1e-9)


# a tiny list that once got a false pattern_b certificate with g = 0.0
TINY = sn.SortedSpectrum((4.44074498098174e-30, 1.717024130045738e-30,
                          1.6243833883082983e-30, -2.3985287796901835e-30,
                          -4.163993079531971e-30))


def _outcome(d):
    return d.verdict, d.certificate, d.reason


@pytest.mark.filterwarnings("ignore::sniep5.errors.BoundaryProximityWarning")
@pytest.mark.parametrize("text,unit_text,verdict", [
    ("1e100,0.415e100,0.3565e100,-0.6815e100,-0.74e100",
     "1,0.415,0.3565,-0.6815,-0.74", Verdict.UNKNOWN),
    ("1e200,0.415e200,0.3565e200,-0.6815e200,-0.74e200",
     "1,0.415,0.3565,-0.6815,-0.74", Verdict.UNKNOWN),
    ("1e308,0.9e308,0.8e308,-0.95e308,-1e308", "1,0.9,0.8,-0.95,-1",
     Verdict.NOT_REALIZABLE),
    (",".join(map(repr, TINY.values)),
     ",".join(repr(math.ldexp(x, 97)) for x in TINY.values), Verdict.UNKNOWN),
], ids=["1e100", "1e200", "1e308", "tiny"])
def test_lists_far_from_unit_scale_decide_as_at_unit_scale(text, unit_text, verdict):
    d = sn.classify(sn.sort_descending(sn.parse_spectrum(text)))
    assert _outcome(d) == _outcome(sn.classify(
        sn.sort_descending(sn.parse_spectrum(unit_text))))
    assert d.verdict is verdict
    assert d.g is None


def test_a_five_cycle_list_whose_v_overflows_realizes_and_verifies():
    s = sn.sort_descending(sn.parse_spectrum("1e52,0.381e52,0.36e52,-0.641e52,-0.75e52"))
    assert not math.isfinite(s.uvwr.v)
    d = sn.classify(s)
    assert d.certificate is Certificate.PATTERN_A
    assert sn.verify_spectrum(sn.realize(s, d), s, rel_tol=1e-9).passed


# lists whose entries are 0 or at least 1e-3 * lam1, so that no scaling by
# 2**k, |k| <= 200, rounds one into the subnormals
_SCALED_LISTS = st.one_of(
    st.lists(st.integers(-1000, 1000).map(lambda h: h / 1000), min_size=5, max_size=5),
    st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 1.0), st.floats(-1.0, -1e-3)),
             min_size=5, max_size=5),
    st.integers(0, 2**32 - 1).map(lambda seed: list(draw_box_point(
        np.random.default_rng(seed), t_lo=0.15, t_hi=0.45, x_pow=5, y_top=0.3))),
    st.integers(0, 2**32 - 1).map(
        lambda seed: list(draw_box_point(np.random.default_rng(seed)))),
)


@settings(max_examples=500, derandomize=True, deadline=None)
@given(_SCALED_LISTS, st.integers(-200, 200))
@example(list(UNKNOWN_GOLDEN.values), 200)  # the cubic solve overflowed
@example(list(TINY.values), 97)  # the tiny list got a false pattern_b
@example(list(EX2.values), -150)
def test_classify_is_scale_equivariant(vals, k):
    s = sn.SortedSpectrum(tuple(sorted(vals, reverse=True)))
    scaled = sn.SortedSpectrum(tuple(math.ldexp(x, k) for x in s.values))
    d, dk = _quiet_classify(s), _quiet_classify(scaled)
    assert _outcome(dk) == _outcome(d)
    assert dk.g == (d.g if d.g is None else math.ldexp(d.g, k))


def test_not_realizable_is_sound():
    rng = np.random.default_rng(113)
    seen = 0
    for _ in range(500):
        vals = tuple(sorted(rng.uniform(-2, 2, 5), reverse=True))
        s = sn.SortedSpectrum(vals)
        d = _quiet_classify(s)
        if d.verdict is not Verdict.NOT_REALIZABLE:
            continue
        seen += 1
        l1, l2, l3, l4, l5 = vals
        e1 = sn.elem_syms(s).e1
        if d.reason is Reason.PF_VIOLATED:
            assert l1 < 0.0 or l1 < -l5
        elif d.reason is Reason.TRACE_VIOLATED:
            assert e1 < 0.0
        elif d.reason is Reason.MN_VIOLATED:
            assert l1 + l3 + l4 < 0.0
        elif d.reason is Reason.NEGATED_PERRON_BOUNDARY:
            assert l5 == -l1 and l3 > e1
        else:
            raise AssertionError(d.reason)
    assert seen > 100


def test_realizable_patterns_are_constructive():
    rng = np.random.default_rng(127)

    def cert_is(kind):
        return lambda s: _quiet_classify(s).certificate is kind

    for s in sample_until(rng, cert_is(Certificate.PATTERN_A), 25):
        mat = sn.build_pattern_a(s)
        assert sn.verify_spectrum(mat, s, rel_tol=1e-8).passed
    for s in sample_until(rng, cert_is(Certificate.PATTERN_B), 10,
                          t_lo=0.15, t_hi=0.45, x_pow=5, y_top=0.3):
        d = _quiet_classify(s)
        mat = sn.build_pattern_b(s, d.g)
        assert sn.verify_spectrum(mat, s, rel_tol=1e-8).passed


_PATTERN_BUILDS = {
    Certificate.PATTERN_A: lambda s, d: sn.build_pattern_a(s),
    Certificate.PATTERN_B: lambda s, d: sn.build_pattern_b(s, d.g),
}


_DECISION_ONLY = [
    *(sn.RealizabilityDecision(Verdict.REALIZABLE, certificate=c)
      for c in Certificate if c not in _PATTERN_BUILDS),
    *(sn.RealizabilityDecision(Verdict.NOT_REALIZABLE, reason=r) for r in Reason),
    sn.RealizabilityDecision(Verdict.UNKNOWN),
]


# sha256 of the float64 bytes of the two worked examples' matrices, as
# the ndarray-backed builders produced them
_EXAMPLE_DIGESTS = {
    "first_example":
        "d37c4740a5893e1dea4d8fbe03fca0e1dc2494e3942d7f46a4949c5ccc6bfb10",
    "second_example":
        "aa9419ad4bc792fe72d463bdc160ec1936251d3eb8702a769baf7745ef86ee57",
}


@pytest.mark.parametrize("s,decision,digest", [
    *(pytest.param(EX1, d, None, id=(d.certificate or d.reason or d.verdict).value)
      for d in _DECISION_ONLY),
    *(pytest.param(s, sn.classify(s), _EXAMPLE_DIGESTS[name], id=name)
      for name, s in (("first_example", EX1), ("second_example", EX2))),
])
def test_realize_builds_exactly_the_pattern_certificates(s, decision, digest):
    mat = sn.realize(s, decision)
    build = _PATTERN_BUILDS.get(decision.certificate)
    if build is None:
        assert mat is None
    else:
        # the same builder call, so the same bits, -0.0 included
        got = np.asarray(mat).tobytes()
        assert got == np.asarray(build(s, decision)).tobytes()
        assert hashlib.sha256(got).hexdigest() == digest
        assert mat.provenance == decision.certificate.value


def test_decision_invariants_enforced():
    with pytest.raises(ValueError):
        sn.RealizabilityDecision(Verdict.REALIZABLE)
    with pytest.raises(ValueError):
        sn.RealizabilityDecision(Verdict.REALIZABLE,
                                 certificate=Certificate.PATTERN_A,
                                 reason=Reason.TRACE_VIOLATED)
    with pytest.raises(ValueError):
        sn.RealizabilityDecision(Verdict.NOT_REALIZABLE,
                                 certificate=Certificate.PATTERN_A)
    with pytest.raises(ValueError):
        sn.RealizabilityDecision(Verdict.UNKNOWN, reason=Reason.MN_VIOLATED)


def test_trace_zero_golden():
    d = sn.classify_trace_zero(sn.SortedSpectrum((4.0, 0.0, 0.0, -2.0, -2.0)))
    assert d.verdict is Verdict.REALIZABLE
    assert d.certificate is Certificate.TRACE_ZERO


def test_trace_zero_violated_cube_sum():
    d = sn.classify_trace_zero(sn.SortedSpectrum((1.0, 0.8, 0.2, -1.0, -1.0)))
    assert d.verdict is Verdict.NOT_REALIZABLE
    assert d.reason is Reason.TRACE_ZERO_VIOLATED


def test_trace_zero_violated_second_entry():
    d = sn.classify_trace_zero(sn.SortedSpectrum((1.0, 0.9, -0.2, -0.85, -0.85)))
    assert d.verdict is Verdict.NOT_REALIZABLE
    assert d.reason is Reason.TRACE_ZERO_VIOLATED


def test_trace_zero_cube_sum_is_exact():
    # the cubes cancel exactly; a plain left-to-right sum() leaves -1.4e-17
    # on Python 3.11 and 0.0 on 3.12, whose sum() is compensated
    s = sn.SortedSpectrum((0.43, 0.4, 0.0, -0.4, -0.43))
    d = sn.classify_trace_zero(s)
    assert d.verdict is Verdict.REALIZABLE
    assert d.certificate is Certificate.TRACE_ZERO
    assert sn.classify(s).verdict is Verdict.REALIZABLE


def test_trace_zero_tolerance():
    s = sn.SortedSpectrum((2.0, 1.0, 0.0, -1.0, -2.0 + 1e-13))
    d = sn.classify_trace_zero(s)
    assert d.certificate is Certificate.TRACE_ZERO


def test_trace_zero_requires_trace_zero():
    # off the zero-sum face the decision is classify's
    assert sn.classify_trace_zero(EX1) == sn.classify(EX1)
    assert sn.classify_trace_zero(EX1).certificate is Certificate.PATTERN_A


def test_trace_zero_requires_perron_domination():
    # a zero-sum list with lam5 < -lam1 is off the face too: classify's
    # Perron check decides it
    d = sn.classify_trace_zero(sn.SortedSpectrum((1.0, 0.5, 0.5, 0.0, -2.0)))
    assert d.verdict is Verdict.NOT_REALIZABLE
    assert d.reason is Reason.PF_VIOLATED


def test_trace_zero_agrees_with_general_classifier():
    # on the zero-trace slice both procedures must agree on the verdict
    # wherever both decide
    rng = np.random.default_rng(131)
    checked = 0
    for _ in range(500):
        lam = sorted(rng.uniform(-1.0, 1.0, 5), reverse=True)
        mean = sum(lam) / 5.0
        vals = tuple(v - mean for v in lam)
        s = sn.SortedSpectrum(vals)
        if vals[4] < -vals[0]:
            continue
        if sn.elem_syms(s).e1 < 0.0:
            # centering noise can land the float trace a hair below zero;
            # the general classifier is sharp there while the zero-trace
            # procedure forgives the dust, so the comparison is off-contract
            continue
        tz = sn.classify_trace_zero(s)
        gen = _quiet_classify(s)
        if tz.verdict is Verdict.REALIZABLE and gen.verdict is not Verdict.UNKNOWN:
            assert gen.verdict is Verdict.REALIZABLE
            checked += 1
    assert checked > 50


def test_enum_values_stable():
    assert Verdict.REALIZABLE.value == "realizable"
    assert Verdict.NOT_REALIZABLE.value == "not_realizable"
    assert Verdict.UNKNOWN.value == "unknown"
    assert Certificate.GUO_CLOSURE.value == "guo_closure"
    assert Reason.NEGATED_PERRON_BOUNDARY.value == "negated_perron_boundary"


_PATTERN_STAGE = ("elem_syms", "_ur")


@pytest.mark.parametrize("vals,tag,absent,present", [
    ((1.0, 0.0, 0.0, -0.5, -1.5), Reason.PF_VIOLATED,
     ("elem_syms", "_ur", "uvwr"), ()),
    ((-1.0, -2.0, -3.0, -4.0, -5.0), Reason.PF_VIOLATED,
     ("elem_syms", "_ur", "uvwr"), ()),
    ((1.0, 0.0, -0.5, -0.5, -0.5), Reason.TRACE_VIOLATED, ("_ur", "uvwr"), ()),
    ((1.0, 0.9, 0.3, -0.5, -0.6), Certificate.DIRECT_SUM, ("_ur", "uvwr"), ()),
    # the pattern stage reads r from the pair u, r; v and w wait for a build
    # (these lists have lam1 in [1, 2), so classify stores on the list itself)
    ((1.0, 0.381, 0.36, -0.641, -0.75), Certificate.PATTERN_A,
     ("uvwr",), _PATTERN_STAGE),
    ((1.0, 0.37, 0.367, -0.637, -0.75), Certificate.PATTERN_B,
     ("uvwr",), _PATTERN_STAGE),
    ((1.0, 0.415, 0.3565, -0.6815, -0.74), None, ("uvwr",), _PATTERN_STAGE),
])
def test_classify_computes_only_what_the_verdict_reads(vals, tag, absent, present):
    s = sn.sort_descending(sn.Spectrum(vals[::-1]))
    d = sn.classify(s)
    assert (d.reason or d.certificate) is tag
    assert d.details.spectrum is s
    for name in absent:
        assert name not in vars(s)
    for name in present:
        assert name in vars(s)
    # reading the details computes them then, once, onto the spectrum: e1..e5
    # and the pair u, r, never v and w
    d.details.to_json_dict()
    assert "elem_syms" in s.__dict__ and "_ur" in s.__dict__
    assert "uvwr" not in s.__dict__
    # on a twin classified the same way, a later compute_uvwr gives the
    # eager bits, v and w included
    twin = sn.sort_descending(sn.Spectrum(vals[::-1]))
    sn.classify(twin)
    assert "uvwr" not in vars(twin)
    eager = sn.SortedSpectrum(vals).uvwr
    assert hex_bits(sn.compute_uvwr(twin)) == hex_bits(eager)


def test_details_compare_by_spectrum():
    d = sn.classify(EX1)
    twin = sn.DecisionDetails(sn.SortedSpectrum(EX1.values))
    assert d.details == twin and hash(d.details) == hash(twin)
    assert repr(twin) == f"DecisionDetails(spectrum={EX1!r})"
    assert d == sn.classify(sn.SortedSpectrum(EX1.values))


def _details_reference(vals):
    """The eager details of a descending list, written out from scratch:
    e1 and u, r from the product expansion, and lam1 + lam3 + lam4."""
    l1, l2, l3, l4, l5 = vals
    c = poly_from_roots(vals)
    e1, e2, e3 = -c[1], c[2], -c[3]
    return {
        "e1": e1.hex(),
        "r": (e3 + e1 * (l2 * l2 + l5 * l5)).hex(),
        "u": (-e2 - l2 * l2 - l5 * l5).hex(),
        "mn_sum": (l1 + l3 + l4).hex(),
    }


def _hex_details(decision):
    return {k: v.hex() for k, v in decision.details.to_json_dict().items()}


def _mixed_lists(rng, n):
    """Uniform, two-decimal, exactly zero-sum, signed-zero and lam5 = -lam1 lists."""
    for k in range(n):
        kind = k % 5
        if kind == 0:
            vals = [rng.uniform(-1.0, 1.0) for _ in range(5)]
        elif kind == 1:
            vals = [rng.randint(-100, 100) / 100 for _ in range(5)]
        elif kind == 2:
            hundredths = [rng.randint(-100, 100) for _ in range(4)]
            vals = [h / 100 for h in hundredths + [-sum(hundredths)]]
        elif kind == 3:
            vals = [rng.choice((0.0, -0.0, 0.5, -0.5, 1.0, -1.0)) for _ in range(5)]
        else:
            vals = [1.0, -1.0] + [rng.randint(-100, 100) / 100 for _ in range(3)]
        rng.shuffle(vals)
        yield vals


def test_details_bit_identical_to_eager_formula():
    seen = set()
    for vals in _mixed_lists(random.Random(137), 5000):
        s = sn.sort_descending(sn.Spectrum(vals))
        d = _quiet_classify(s)
        seen.add(d.reason or d.certificate)
        assert _hex_details(d) == _details_reference(s.values)
        if s.lam5 >= -s.lam1 and is_trace_zero(s):
            tz = sn.classify_trace_zero(s)
            seen.add(tz.reason or tz.certificate)
            assert _hex_details(tz) == _details_reference(s.values)
    assert seen >= set(Reason) | {Certificate.SULEIMANOVA, Certificate.TWO_POSITIVE,
                                  Certificate.DIRECT_SUM, Certificate.TRACE_ZERO}


# one list per exit of classify, and both outcomes of classify_trace_zero
_EXITS = [
    (sn.classify, (1.0, 0.0, 0.0, -0.5, -1.5), Reason.PF_VIOLATED),
    (sn.classify, (1.0, 0.0, -0.5, -0.5, -0.5), Reason.TRACE_VIOLATED),
    (sn.classify, (3.0, 2.9, -1.9, -2.0, -2.0), Reason.MN_VIOLATED),
    (sn.classify, (1.0, -0.1, -0.2, -0.3, -0.35), Certificate.SULEIMANOVA),
    (sn.classify, (1.0, 0.5, 0.0, -0.7, -0.75), Certificate.TWO_POSITIVE),
    (sn.classify, (1.0, 0.9, 0.3, -0.5, -0.6), Certificate.DIRECT_SUM),
    (sn.classify, (1.0, 0.9, 0.85, -0.95, -1.0), Reason.NEGATED_PERRON_BOUNDARY),
    (sn.classify, EX1.values, Certificate.PATTERN_A),
    (sn.classify, EX2.values, Certificate.PATTERN_B),
    (sn.classify, UNKNOWN_GOLDEN.values, None),
    (sn.classify_trace_zero, (4.0, 0.0, 0.0, -2.0, -2.0), Certificate.TRACE_ZERO),
    (sn.classify_trace_zero, (0.5, 0.5, -0.25, -0.375, -0.375),
     Reason.TRACE_ZERO_VIOLATED),
]


@pytest.mark.filterwarnings("ignore::sniep5.errors.BoundaryProximityWarning")
@pytest.mark.parametrize("decide,vals,tag", _EXITS)
def test_every_exit_builds_a_decision_the_constructor_accepts(decide, vals, tag):
    d = decide(sn.SortedSpectrum(vals))
    assert d.certificate is tag or d.reason is tag
    if tag is None:
        assert d.verdict is Verdict.UNKNOWN and d.certificate is d.reason is None
    # the public constructor runs __post_init__'s checks on the same fields
    twin = sn.RealizabilityDecision(d.verdict, d.certificate, d.reason, d.g,
                                    d.details)
    assert d == twin and repr(d) == repr(twin)
    assert (d.g is not None) == (tag is Certificate.PATTERN_B)


def test_internal_decisions_keep_the_compact_layout():
    # bytes per decision from _decided and from the constructors, each with
    # its own details of the same spectrum; reading __dict__ would
    # materialize a per-instance dict, about 60 bytes more
    internal = bytes_each(lambda: _decided(_IS_PF_VIOLATED, EX1))
    public = bytes_each(lambda: sn.RealizabilityDecision(
        Verdict.NOT_REALIZABLE, reason=Reason.PF_VIOLATED,
        details=sn.DecisionDetails(EX1)))
    assert internal <= public + 16, (internal, public)


def _records():
    """One instance of each record type the deciders and the verifier build."""
    d = sn.classify(EX2)
    perturbed = sn.decide_perturbed(EX1, sn.Perturbation(2, sn.Sign.MINUS, 10.0))
    report = sn.verify_spectrum(sn.realize(EX2, d), EX2)
    return (d, d.details, perturbed, sn.Perturbation(3, "plus", 0.5),
            sn.pattern_b_conditions(EX2), report)


def test_records_are_slotted():
    for rec in _records():
        assert not hasattr(rec, "__dict__"), type(rec)
        with pytest.raises(TypeError):
            weakref.ref(rec)
        with pytest.raises(AttributeError):
            object.__setattr__(rec, "extra", 1)


def test_a_kept_decision_costs_at_most_120_bytes():
    # the decision and its details, slotted: 112 B on CPython 3.11 and 3.12,
    # 114 B on 3.10; 193 B on 3.11 when each carried an instance dict
    s = UNKNOWN_GOLDEN
    assert bytes_each(lambda: sn.classify(s)) <= 120


def test_kept_bytes_do_not_depend_on_the_list_scale():
    # EX1 is decided at unit scale through a throwaway 2**-9 copy, whose
    # values tuple is freed onto CPython's tuple free list; that tuple is
    # no part of the kept decision, so both lists keep the same bytes
    unit = sn.SortedSpectrum(tuple(math.ldexp(x, -9) for x in EX1.values))
    off_scale = bytes_each(lambda: sn.classify(EX1))
    at_unit = bytes_each(lambda: sn.classify(unit))
    assert abs(off_scale - at_unit) <= 8, (off_scale, at_unit)


@pytest.mark.parametrize("copy_", [
    lambda x: pickle.loads(pickle.dumps(x)), copy.copy, copy.deepcopy,
], ids=["pickle", "copy", "deepcopy"])
def test_records_survive_pickle_and_copy(copy_):
    def fields(rec):
        # a matrix compares by identity, so by its entries here
        return [x.entries if isinstance(x, sn.SymMatrix5) else x
                for x in (getattr(rec, f.name) for f in dataclasses.fields(rec))]

    for rec in _records():
        twin = copy_(rec)
        assert type(twin) is type(rec) and repr(twin) == repr(rec)
        assert fields(twin) == fields(rec)
        if not isinstance(rec, sn.PerturbedDecision):
            assert twin == rec and hash(twin) == hash(rec)


def _crossing(vals, i, lo, hi, f):
    """The two adjacent floats in [lo, hi] between which f changes sign when
    they are put in entry i of ``vals``, or None when f keeps its sign."""
    def at(x):
        v = list(vals)
        v[i] = x
        return tuple(v)

    below = f(at(lo)) < 0.0
    if below == (f(at(hi)) < 0.0):
        return None
    while True:
        mid = lo + 0.5 * (hi - lo)
        if mid in (lo, hi):
            return lo, hi
        if (f(at(mid)) < 0.0) == below:
            lo = mid
        else:
            hi = mid


def _e1(vals):
    return sn.SortedSpectrum(vals).elem_syms.e1


# each sign change is found by bisecting lam4; lam3 - e1 does not move
# with lam3 itself
_SIGN_CHANGES = {
    "e1": _e1,
    "lam3_minus_e1": lambda vals: vals[2] - _e1(vals),
    "r": lambda vals: sn.SortedSpectrum(vals).uvwr.r,
}


@st.composite
def _near_a_rule_boundary(draw):
    """A descending list within 1 ulp of lam5 = -lam1, e1 = 0, lam3 = e1 or
    r = 0, the boundaries that classify's rule order relies on."""
    name = draw(st.sampled_from(("lam5_plus_lam1", *_SIGN_CHANGES)))
    l1 = draw(st.floats(0.5, 2.0))
    l2 = l1 * draw(st.floats(0.3, 0.6))
    # lam3 close to lam2 is where the two-paths pattern lives
    l3 = l2 * draw(st.floats(0.5, 1.0) | st.floats(0.97, 1.0))
    step = draw(st.sampled_from((-1, 0, 1)))
    if name == "lam5_plus_lam1":
        # lam2 + lam4 < 0 <= lam2 + lam3 + lam4 puts e1 in [0, lam3)
        l4 = -l2 - l3 * draw(st.floats(0.0, 1.0))
        l5 = -l1 if step == 0 else math.nextafter(-l1, step * math.inf)
        assume(l4 >= l5)
        return name, (l1, l2, l3, l4, l5)
    l5 = -l1 * draw(st.floats(0.55, 0.95))
    lo, hi = l5, l3
    if name == "r":  # where e1 is in [0, lam3), so the pattern stage runs
        lo, hi = max(l5, -(l1 + l2 + l3 + l5)), min(l3, -(l1 + l2 + l5))
    assume(lo < hi)
    pair = _crossing((l1, l2, l3, lo, l5), 3, lo, hi, _SIGN_CHANGES[name])
    assume(pair is not None)
    x = pair[0] if step <= 0 else pair[1]
    if step:
        x = math.nextafter(x, step * math.inf)
    assume(l3 >= x >= l5)
    return name, (l1, l2, l3, x, l5)


@settings(max_examples=400, derandomize=True, deadline=None)
@given(_near_a_rule_boundary())
@example(("r", EX1.values))
@example(("r", EX2.values))
@example(("r", UNKNOWN_GOLDEN.values))
def test_pattern_stage_verdicts_agree_with_the_named_gates(case):
    # classify asks each pattern only for the check its gate adds, because
    # the earlier rules proved the shared region checks
    _, vals = case
    s = sn.SortedSpectrum(vals)
    d = _quiet_classify(s)
    if d.verdict is not Verdict.UNKNOWN and d.certificate not in (
            Certificate.PATTERN_A, Certificate.PATTERN_B):
        return
    assert all(_region(s)), vals
    report_a = sn.pattern_a_conditions(s)
    report_b = sn.pattern_b_conditions(s)
    if d.certificate is Certificate.PATTERN_A:
        assert report_a, vals
    elif d.certificate is Certificate.PATTERN_B:
        assert not report_a and report_b, vals
        assert d.g.hex() == report_b.g.hex(), vals
    else:
        assert not report_a and not report_b, vals


def test_classify_builds_no_gate_report(monkeypatch):
    built = []
    init = sn.ConditionReport.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(sn.ConditionReport, "__init__", counting)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", sn.BoundaryProximityWarning)
        rows = list(sn.sample_region(24, [0.0, 0.1, 0.35]))
    # calling both gates from classify built 24,708 reports for these rows
    assert len(rows) == 18_290 and not built
    sn.pattern_a_conditions(EX1)
    assert len(built) == 1


def _typed_stream(seed, n):
    """``n`` typed inputs ``(text, perturbation)``: 60% four-decimal lists
    uniform on [-1, 1], 40% two-decimal lists whose typed sum is exactly 0,
    and a perturbation ``(i, sign, size)`` on 10% of them."""
    rng = random.Random(seed)
    for _ in range(n):
        if rng.random() < 0.4:
            while True:
                h = [rng.randint(-100, 100) for _ in range(4)]
                if -100 <= -sum(h) <= 100:
                    break
            h.append(-sum(h))
            rng.shuffle(h)
            text = ",".join(f"{x / 100:.2f}" for x in h)
        else:
            text = ",".join(f"{rng.uniform(-1.0, 1.0):.4f}" for _ in range(5))
        p = None
        if rng.random() < 0.1:
            p = (rng.randint(2, 5), rng.choice(("plus", "minus")),
                 rng.randint(1, 50) / 100)
        yield text, p


def _answer_bytes(text, p):
    """The answer's repr, its JSON and its matrix entries' bits, as bytes."""
    s = sn.sort_descending(sn.parse_spectrum(text))
    if p is None:
        answer = sn.classify(s)
        matrix = sn.realize(s, answer)
    else:
        answer = sn.decide_perturbed(s, sn.Perturbation(*p))
        matrix = answer.matrix
    parts = [text, repr(answer), json.dumps(answer.to_json_dict())]
    if matrix is not None:
        parts += [x.hex() for row in matrix.entries for x in row]
    return "\n".join(parts).encode() + b"\n\n"


# sha256 over the answers to _typed_stream(20181, 6000), recorded before
# decisions and spectra were built in one step
_STREAM_DIGEST = (
    "5bdc6bcdd0ac027fe03368013882eebfac4ab9030f722785f328c88217fac87a")


def test_typed_stream_answers_are_byte_identical():
    h = hashlib.sha256()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", sn.BoundaryProximityWarning)
        for text, p in _typed_stream(20181, 6000):
            h.update(_answer_bytes(text, p))
    assert h.hexdigest() == _STREAM_DIGEST


def _trace_inputs():
    """Descending lists on which ``_trace`` must give ``_expand``'s e1."""
    yield (0.0,) * 5
    yield (-0.0,) * 5
    yield (0.0, -0.0, 0.0, -0.0, 0.0)
    yield (-0.0, 0.0, -0.0, 0.0, -0.0)
    yield (0.0, 0.0, 0.0, -0.0, -0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", sn.BoundaryProximityWarning)
        for row in sn.sample_region(24, [0.0, 0.1, 0.35]):
            yield (1.0, row.lambda2, row.lambda3, row.lambda4, row.lambda5)
    for text, _ in _typed_stream(20181, 6000):
        yield sn.sort_descending(sn.parse_spectrum(text)).values
    # lam1 >= 2**1022: classify reads e1 at unit scale
    for vals in ((1e308, 0.9e308, 0.8e308, -0.95e308, -1e308),
                 tuple(1e308 * x for x in UNKNOWN_GOLDEN.values),
                 (2.0 ** 1022, 0.0, -0.0, -1e300, -2.0 ** 1022)):
        yield _unit_scale(sn.SortedSpectrum(vals))[0].values


def test_trace_gives_the_bits_of_the_expansion():
    want = [(_expand(*v).e1.hex(), _trace(*v).hex()) for v in _trace_inputs()]
    assert len(want) == 5 + 18_290 + 6000 + 3
    assert all(a == b for a, b in want), [p for p in want if p[0] != p[1]][:5]
    # both signed zeros survive: an all-zero list of either sign has e1 = -0.0
    assert _trace(*(0.0,) * 5).hex() == _trace(*(-0.0,) * 5).hex() == "-0x0.0p+0"


def test_trace_overflows_as_the_expansion_does():
    # the caller-scale sum overflows; is_trace_zero reads that inf
    s = sn.SortedSpectrum((1e308, 0.9e308, 0.8e308, -0.95e308, -1e308))
    assert _trace(*s.values) == _expand(*s.values).e1 == math.inf
    assert not is_trace_zero(s)
    assert "elem_syms" not in vars(s)


_EARLY = [
    (TRACE, Reason.TRACE_VIOLATED),
    (MN, Reason.MN_VIOLATED),
    (SULEIMANOVA, Certificate.SULEIMANOVA),
    (TWO_POSITIVE, Certificate.TWO_POSITIVE),
    (DIRECT_SUM, Certificate.DIRECT_SUM),
]


@pytest.mark.parametrize("text,tag", _EARLY)
def test_early_decisions_store_nothing_on_the_spectrum(text, tag):
    vals = tuple(map(float, text.split(",")))
    s = sn.SortedSpectrum(vals)
    d = sn.classify(s)
    assert d.certificate is tag or d.reason is tag
    assert "elem_syms" not in vars(s) and "uvwr" not in vars(s)
    # details read later expand then, with the eager bits
    eager = sn.SortedSpectrum(vals)
    eager.uvwr
    got = d.details.to_json_dict()
    assert got["e1"].hex() == _expand(*vals).e1.hex()
    assert [x.hex() for x in got.values()] == [
        x.hex() for x in sn.DecisionDetails(eager).to_json_dict().values()]
    # a kept decision with its spectrum is the bare spectrum plus the
    # decision and its details; storing e1..e5 added about 216 B
    kept = bytes_each(lambda: sn.classify(sn.SortedSpectrum(vals)))
    bare = bytes_each(lambda: sn.SortedSpectrum(vals))
    decision = bytes_each(lambda: sn.classify(s))
    assert kept <= bare + decision + 8, (kept, bare, decision)


_KEPT_BYTES = """
import sniep5 as sn
from support import bytes_each
for text in {texts!r}:
    vals = tuple(map(float, text.split(",")))
    print(bytes_each(lambda: sn.classify(sn.SortedSpectrum(vals))))
"""


@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="the byte count is CPython 3.11's object layout")
def test_an_early_decision_with_its_spectrum_costs_at_most_280_bytes():
    # a fresh interpreter: CPython 3.11 gives each instance a slot for every
    # attribute any instance of its class has stored, 8 B per name, so a
    # process that has stored elem_syms and uvwr keeps 16 B more per
    # spectrum.  272 B fresh; 488 B with e1..e5 stored by the trace rule
    tests = Path(__file__).resolve().parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        (str(tests.parent / "src"), str(tests))))
    code = _KEPT_BYTES.format(texts=[text for text, _ in _EARLY])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env, check=True).stdout
    kept = [float(x) for x in out.split()]
    assert len(kept) == len(_EARLY) and max(kept) <= 280, kept


def test_classify_refuses_an_unsorted_spectrum():
    # read in place, (-1, 1, 0.5, 0, 0) would fail the Perron check, though
    # the sorted list is certified two_positive
    s = sn.Spectrum((-1.0, 1.0, 0.5, 0.0, 0.0))
    with pytest.raises(TypeError, match="sort_descending"):
        sn.classify(s)
    assert sn.classify(sn.sort_descending(s)).certificate is Certificate.TWO_POSITIVE


_ENUMS = (Verdict, Certificate, Reason, sn.Sign, sn.ClosureRule)


@pytest.mark.parametrize("module,functions", [
    ("sniep5.classify", ("_rules", "classify", "realize", "classify_trace_zero")),
    ("sniep5.guo", ("apply_perturbation", "decide_perturbed")),
])
def test_enum_aliases_are_the_members_they_name(module, functions):
    # the package exports a function named classify, so look the module up
    module = importlib.import_module(module)
    aliases = {name: value for name, value in vars(module).items()
               if isinstance(value, enum.Enum)}
    assert aliases
    for name, member in aliases.items():
        assert name.startswith("_") and type(member)[name[1:]] is member, name
    # the hot function bodies read members through the aliases, never through
    # their enum class
    for fn in functions:
        names = getattr(module, fn).__code__.co_names
        assert not {e.__name__ for e in _ENUMS} & set(names), fn
