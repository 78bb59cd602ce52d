"""Perturbation moves and the closure-based decision rules."""
import dataclasses
import hashlib
import io
import json
import math
import pickle
import warnings
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

import sniep5 as sn
from sniep5 import Certificate, ClosureRule, Reason, Sign, Verdict
from sniep5.classify import is_trace_zero
from sniep5.cli import run_cli
from support import closure_size, sample_trace_zero_realizable, sample_until

EX1 = sn.SortedSpectrum((1000.0, 381.0, 360.0, -641.0, -750.0))
EX2 = sn.SortedSpectrum((1000.0, 370.0, 367.0, -637.0, -750.0))


def test_perturbation_validation():
    sn.Perturbation(i=2, sign="minus", s=1.0)
    with pytest.raises(ValueError):
        sn.Perturbation(i=1, sign="minus", s=1.0)
    with pytest.raises(ValueError):
        sn.Perturbation(i=6, sign="minus", s=1.0)
    with pytest.raises(ValueError):
        sn.Perturbation(i=3, sign="minus", s=0.0)
    with pytest.raises(ValueError):
        sn.Perturbation(i=3, sign="minus", s=-2.0)
    with pytest.raises(ValueError):
        sn.Perturbation(i=3, sign="sideways", s=1.0)


def test_perturbation_index_must_be_an_integer():
    # 2.0 is not an index: it would fail later, as a list index, in decide_perturbed
    with pytest.raises(ValueError, match="index"):
        sn.Perturbation(i=2.0, sign="minus", s=1.0)
    p = sn.Perturbation(i=np.int64(2), sign="minus", s=1.0)
    assert type(p.i) is int and p.i == 2
    assert sn.decide_perturbed(EX1, p).to_json_dict() == sn.decide_perturbed(
        EX1, sn.Perturbation(i=2, sign="minus", s=1.0)).to_json_dict()


def test_perturbation_sign_coercion():
    p = sn.Perturbation(i=4, sign="plus", s=2.0)
    assert p.sign is Sign.PLUS
    q = sn.Perturbation(i=4, sign=Sign.MINUS, s=2.0)
    assert q.sign is Sign.MINUS


def test_perturbation_positional_and_keyword_construction_agree():
    p = sn.Perturbation(3, "minus", 0.5)
    assert p == sn.Perturbation(i=3, sign=Sign.MINUS, s=0.5)
    assert p == sn.Perturbation(3, sign="minus", s=0.5)
    assert p == sn.Perturbation(3, "minus", s=0.5)
    assert (p.i, p.sign, p.s) == (3, Sign.MINUS, 0.5)
    # an integer size is stored as a float, as float() gives it
    q = sn.Perturbation(2, "plus", 1)
    assert type(q.s) is float and q.s == 1.0
    with pytest.raises(TypeError):
        sn.Perturbation(3, "minus")
    with pytest.raises(TypeError):
        sn.Perturbation(3, "minus", 0.5, 1.0)


def test_perturbation_is_a_frozen_value():
    p = sn.Perturbation(3, "minus", 0.5)
    assert repr(p) == "Perturbation(i=3, sign=<Sign.MINUS: 'minus'>, s=0.5)"
    same = sn.Perturbation(i=np.int64(3), sign="minus", s=np.float64(0.5))
    assert same == p and hash(same) == hash(p)
    assert p != sn.Perturbation(3, "plus", 0.5)
    assert p != sn.Perturbation(4, "minus", 0.5)
    assert p != sn.Perturbation(3, "minus", 0.25)
    assert len({p, same, sn.Perturbation(3, "plus", 0.5)}) == 2
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.s = 1.0
    assert not hasattr(p, "__dict__")
    assert pickle.loads(pickle.dumps(p)) == p


def test_perturbation_replace_runs_the_checks():
    p = sn.Perturbation(3, "minus", 0.5)
    q = dataclasses.replace(p, sign="plus", s=2)
    assert q == sn.Perturbation(3, Sign.PLUS, 2.0) and q.sign is Sign.PLUS
    assert dataclasses.replace(p) == p
    with pytest.raises(ValueError, match=r"^index must be one of 2\.\.5, got 6$"):
        dataclasses.replace(p, i=6)
    with pytest.raises(ValueError, match=r"^perturbation size must be finite and "
                                         r"positive, got -1\.0$"):
        dataclasses.replace(p, s=-1.0)


@pytest.mark.parametrize("args,message", [
    # a bad index is reported first, then a bad sign, then a bad size
    ((1, "sideways", 0.0), r"^index must be one of 2\.\.5, got 1$"),
    ((2.0, "sideways", 0.0), r"^index must be one of 2\.\.5, got 2\.0$"),
    ((2, "sideways", 0.0), r"^'sideways' is not a valid Sign$"),
    ((2, "minus", 0.0), r"^perturbation size must be finite and positive, got 0\.0$"),
    ((5, Sign.PLUS, -2), r"^perturbation size must be finite and positive, got -2\.0$"),
])
def test_perturbation_check_order_and_messages(args, message):
    with pytest.raises(ValueError, match=message):
        sn.Perturbation(*args)


@pytest.mark.parametrize("args,message", [
    # a refused index is named by its repr: "3" is not the allowed 3
    (("3", "minus", 1.0), r"^index must be one of 2\.\.5, got '3'$"),
    ((b"3", "minus", 1.0), r"^index must be one of 2\.\.5, got b'3'$"),
    # any other refused index keeps its str: 7, not np.int64(7)
    ((np.int64(7), "minus", 1.0), r"^index must be one of 2\.\.5, got 7$"),
    ((7.5, "minus", 1.0), r"^index must be one of 2\.\.5, got 7\.5$"),
    # a size given as text is refused, as Spectrum refuses text
    ((2, "minus", "0.5"), r"^perturbation size '0\.5' is text, not a number$"),
    ((2, "minus", b"0.5"), r"^perturbation size b'0\.5' is text, not a number$"),
    ((2, "minus", bytearray(b"0.5")),
     r"^perturbation size bytearray\(b'0\.5'\) is text, not a number$"),
    # the order stays index, sign, size
    (("3", "sideways", "0.5"), r"^index must be one of 2\.\.5, got '3'$"),
    ((3, "sideways", "0.5"), r"^'sideways' is not a valid Sign$"),
])
def test_perturbation_names_a_text_index_or_size_by_repr(args, message):
    with pytest.raises(ValueError, match=message):
        sn.Perturbation(*args)


@pytest.mark.parametrize("size", ["inf", "-inf", "nan"])
def test_perturbation_refuses_a_non_finite_size(size):
    with pytest.raises(ValueError, match=f"perturbation size .*got {size}$"):
        sn.Perturbation(i=2, sign="minus", s=float(size))


@pytest.mark.parametrize("size", ["inf", "nan"])
def test_perturb_cli_refuses_a_non_finite_size(size, capsys):
    code = run_cli(["perturb", "--spectrum", "1000,381,360,-641,-750", "--i", "2",
                    "--sign", "minus", "--s", size], out=io.StringIO())
    assert code == 2
    err = capsys.readouterr().err
    assert err == f"error: perturbation size must be finite and positive, got {size}\n"


@pytest.mark.parametrize("s,p", [
    # lam1 + s overflows to inf
    (sn.SortedSpectrum((1e308, 0.0, 0.0, -1.0, -1e308)),
     sn.Perturbation(i=2, sign="minus", s=1e308)),
    # lam1 + s and lam2 + s overflow to inf
    (sn.SortedSpectrum((1e308, 1e308, 0.0, -1.0, -1e308)),
     sn.Perturbation(i=2, sign="plus", s=1e308)),
    (sn.SortedSpectrum((1e308, 0.0, 0.0, -1.0, -1e308)),
     sn.Perturbation(i=4, sign="minus", s=1e308)),
])
def test_apply_refuses_a_non_finite_result(s, p):
    # sort_descending trusts its input, so the Spectrum step must refuse it
    with pytest.raises(sn.InvalidSpectrum):
        sn.apply_perturbation(s, p)
    with pytest.raises(sn.InvalidSpectrum):
        sn.decide_perturbed(s, p)


def test_apply_minus_golden():
    p = sn.Perturbation(i=2, sign="minus", s=10.0)
    out = sn.apply_perturbation(EX1, p)
    assert out.values == (1010.0, 371.0, 360.0, -641.0, -750.0)


def test_apply_plus_resorts():
    p = sn.Perturbation(i=5, sign="plus", s=1500.0)
    out = sn.apply_perturbation(EX1, p)
    assert out.values == (2500.0, 750.0, 381.0, 360.0, -641.0)


def test_apply_minus_preserves_trace():
    rng = np.random.default_rng(137)
    for _ in range(100):
        vals = tuple(sorted(rng.uniform(-2, 2, 5), reverse=True))
        s = sn.SortedSpectrum(vals)
        e1 = sn.elem_syms(s).e1
        i = int(rng.integers(2, 6))
        size = float(rng.uniform(0.01, 3.0))
        out = sn.apply_perturbation(s, sn.Perturbation(i=i, sign="minus", s=size))
        npt.assert_allclose(sn.elem_syms(out).e1, e1,
                            atol=1e-12 * max(1.0, abs(e1) + 2 * size))


def test_apply_plus_shifts_trace():
    p = sn.Perturbation(i=3, sign="plus", s=5.0)
    out = sn.apply_perturbation(EX1, p)
    assert sn.elem_syms(out).e1 == 360.0


def test_closure_rule_pattern_a():
    d = sn.decide_perturbed(EX1, sn.Perturbation(i=2, sign="minus", s=10.0))
    assert d.rule is ClosureRule.PATTERN_A
    assert d.decision.verdict is Verdict.REALIZABLE
    assert d.decision.certificate is Certificate.GUO_CLOSURE
    assert d.perturbed.values == (1010.0, 371.0, 360.0, -641.0, -750.0)
    # the perturbed list still passes the gate, so a witness comes along
    assert d.matrix is not None
    assert sn.verify_spectrum(d.matrix, d.perturbed, rel_tol=1e-8).passed


def test_closure_rule_pattern_b():
    d = sn.decide_perturbed(EX2, sn.Perturbation(i=4, sign="minus", s=2000.0))
    assert d.rule is ClosureRule.PATTERN_B
    assert d.decision.certificate is Certificate.GUO_CLOSURE
    assert d.perturbed.values == (3000.0, 370.0, 367.0, -750.0, -2637.0)


def test_closure_rule_trace_zero():
    s = sn.SortedSpectrum((4.0, 0.0, 0.0, -2.0, -2.0))
    d = sn.decide_perturbed(s, sn.Perturbation(i=3, sign="minus", s=7.0))
    assert d.rule is ClosureRule.TRACE_ZERO
    assert d.decision.certificate is Certificate.GUO_CLOSURE
    assert d.perturbed.values == (11.0, 0.0, -2.0, -2.0, -7.0)


def test_closure_rule_trace_zero_on_exactly_cancelling_cubes():
    # the cube sum is exactly 0.0, so the trace-zero rule applies on every
    # Python version
    s = sn.SortedSpectrum((0.43, 0.4, 0.0, -0.4, -0.43))
    d = sn.decide_perturbed(s, sn.Perturbation(i=2, sign="minus", s=0.1))
    assert d.rule is ClosureRule.TRACE_ZERO


def test_known_region_closure():
    # the original already sits in the solved band lam3 <= e1
    s = sn.SortedSpectrum((1.0, 0.9, 0.3, -0.5, -0.6))
    d = sn.decide_perturbed(s, sn.Perturbation(i=4, sign="minus", s=0.2))
    assert d.rule is ClosureRule.KNOWN_REGION
    assert d.decision.certificate is Certificate.GUO_CLOSURE


def test_direct_fallback_plus():
    # plus moves have no closure rule; classification of the
    # perturbed list answers instead
    d = sn.decide_perturbed(EX1, sn.Perturbation(i=2, sign="plus", s=10.0))
    assert d.rule is ClosureRule.DIRECT
    assert d.decision.certificate is Certificate.DIRECT_SUM
    assert d.perturbed.values == (1010.0, 391.0, 360.0, -641.0, -750.0)


def test_boundary_warning_of_the_original_list_names_guo():
    # the plus move classifies the original list, which sits on lam5 = -lam1,
    # from decide_perturbed; the perturbed list is far from the boundary
    s = sn.SortedSpectrum((1.0, 0.45, 0.4, -0.85, -1.0))
    with pytest.warns(sn.BoundaryProximityWarning) as caught:
        sn.decide_perturbed(s, sn.Perturbation(2, "plus", 0.1))
    assert [Path(w.filename).name for w in caught] == ["guo.py"]


def test_direct_fallback_can_stay_unknown():
    s = sn.SortedSpectrum((1.0, 0.415, 0.3565, -0.6815, -0.74))
    d = sn.decide_perturbed(s, sn.Perturbation(i=4, sign="plus", s=1e-6))
    assert d.rule is ClosureRule.DIRECT


def test_perturbed_json_shape():
    d = sn.decide_perturbed(EX1, sn.Perturbation(i=2, sign="minus", s=10.0))
    payload = d.to_json_dict()
    assert payload["rule"] == "pattern_a_closure"
    assert payload["verdict"] == "realizable"
    assert payload["perturbed"] == [1010.0, 371.0, 360.0, -641.0, -750.0]
    assert payload["matrix"] is not None


def test_small_minus_preserves_five_cycle_gate():
    rng = np.random.default_rng(139)
    passes = lambda t: bool(sn.pattern_a_conditions(t))
    for s in sample_until(rng, passes, 50):
        for i in (2, 3, 4, 5):
            size = closure_size(s, i, passes)
            assert size is not None and size > 0.0
            half = sn.Perturbation(i=i, sign="minus", s=size / 2.0)
            assert passes(sn.apply_perturbation(s, half))


def test_small_minus_keeps_closure_decision_realizable():
    rng = np.random.default_rng(149)
    for s in sample_trace_zero_realizable(rng, 50):
        for i in (2, 3, 4, 5):
            d = sn.decide_perturbed(s, sn.Perturbation(i=i, sign="minus", s=1e-9))
            assert d.rule is ClosureRule.TRACE_ZERO
            assert d.decision.verdict is Verdict.REALIZABLE


# a zero-sum list whose cube sum is -0.75: off the trace-zero family
_TRACE_ZERO_VIOLATOR = sn.SortedSpectrum((1.0, 0.5, 0.5, -1.0, -1.0))


@pytest.mark.parametrize("k", [-1000, -400, -100, 0, 100, 400, 1000])
def test_trace_zero_rule_does_not_depend_on_scale(k):
    # the cubes are summed at unit scale: at 2**400 they would overflow, and
    # at 2**-400 underflow to a zero sum that reads the violator realizable
    lists = sample_trace_zero_realizable(np.random.default_rng(151), 20)
    for s in lists + [_TRACE_ZERO_VIOLATOR]:
        scaled = sn.SortedSpectrum(tuple(math.ldexp(x, k) for x in s.values))
        want, got = sn.classify_trace_zero(s), sn.classify_trace_zero(scaled)
        assert (got.verdict, got.certificate, got.reason) == (
            want.verdict, want.certificate, want.reason), (s.values, k)
        for i in (2, 3, 4, 5):
            d = sn.decide_perturbed(s, sn.Perturbation(i, "minus", 0.01))
            dk = sn.decide_perturbed(
                scaled, sn.Perturbation(i, "minus", math.ldexp(0.01, k)))
            assert (dk.rule, dk.decision.verdict) == (
                d.rule, d.decision.verdict), (s.values, i, k)
    assert sn.classify_trace_zero(_TRACE_ZERO_VIOLATOR).reason is (
        Reason.TRACE_ZERO_VIOLATED)


def _gate_rule(s, sign):
    """The closure rule picked from the pattern gates, as it was before the
    rule was read from one classify of the original list."""
    minus = sign is Sign.MINUS
    if (minus and s.lam5 >= -s.lam1 and is_trace_zero(s)
            and sn.classify_trace_zero(s).verdict is Verdict.REALIZABLE):
        return ClosureRule.TRACE_ZERO
    if (s.lam3 <= sn.elem_syms(s).e1
            and sn.classify(s).verdict is Verdict.REALIZABLE):
        return ClosureRule.KNOWN_REGION
    if minus and sn.pattern_a_conditions(s).passed:
        return ClosureRule.PATTERN_A
    if (minus and sn.pattern_b_conditions(s).passed
            and sn.compute_uvwr(s).r < 0.0):
        return ClosureRule.PATTERN_B
    return ClosureRule.DIRECT


def _typed(rng):
    text = ",".join(f"{x:.4f}" for x in rng.uniform(-1.0, 1.0, 5))
    return sn.sort_descending(sn.parse_spectrum(text))


def _typed_zero_sum(rng):
    while True:
        cents = [int(c) for c in rng.integers(-100, 101, 4)]
        if -100 <= -sum(cents) <= 100:
            break
    text = ",".join(f"{c / 100:.2f}" for c in cents + [-sum(cents)])
    return sn.sort_descending(sn.parse_spectrum(text))


def _corner_b(rng):
    """A point of suite 05's box with lam2 near the trace plane and
    lam2 + lam3 + lam4 near its lower end, where pattern_b certificates sit."""
    while True:
        t = rng.uniform(0.15, 0.38)
        x = t + (1.0 - t) * (0.8 * rng.random()) ** 5
        lo = t + (x - 1.0) / 2.0
        d = lo + (t - lo) * 0.3 * rng.random()
        ymax = min(x, -x + 2.0 * d + 1.0 - t)
        if ymax <= t:
            continue
        y = ymax - (ymax - t) * 0.3 * rng.random()
        vals = (1.0, x, y, d - x - y, t - d - 1.0)
        if vals[1] >= vals[2] >= vals[3] >= vals[4] > -1.0:
            return sn.SortedSpectrum(vals)


def _aimed(rng):
    """Suite 05's box on its lam5 = -lam1 face, or within 1e-13 of it."""
    while True:
        t = rng.uniform(0.15, 0.45)
        x = t + (1.0 - t) * rng.random() ** 5
        ymax = min(x, 1.0 + t - x)
        if ymax <= t:
            continue
        y = ymax - (ymax - t) * 0.3 * rng.random()
        off = 0.0 if rng.random() < 0.5 else rng.uniform(-1e-13, 1e-13)
        vals = (1.0, x, y, t - x - y, -1.0 + off)
        if vals[1] >= vals[2] >= vals[3] >= vals[4]:
            return sn.SortedSpectrum(vals)


@pytest.mark.filterwarnings("ignore::sniep5.errors.BoundaryProximityWarning")
def test_closure_rule_matches_gate_oracle():
    rng = np.random.default_rng(151)
    seen = set()
    on_face = 0
    for draw in (_typed, _typed_zero_sum, _corner_b, _aimed):
        for _ in range(2000):
            s = draw(rng)
            if draw is _aimed and s.lam5 == -s.lam1:
                # neither the two-paths gate nor classify admits the face
                # once lam3 exceeds the trace
                assert "min_above_negated_perron" in sn.pattern_b_conditions(s).failed
                if s.lam3 > sn.elem_syms(s).e1:
                    assert sn.classify(s).reason is Reason.NEGATED_PERRON_BOUNDARY
                    on_face += 1
            for sign in (Sign.PLUS, Sign.MINUS):
                p = sn.Perturbation(i=int(rng.integers(2, 6)), sign=sign,
                                    s=float(rng.uniform(0.001, 0.5)))
                rule = sn.decide_perturbed(s, p).rule
                assert rule is _gate_rule(s, sign), (s.values, sign)
                seen.add(rule)
    assert seen == set(ClosureRule)
    assert on_face > 0



def _typed_box(rng):
    """A ``_corner_b`` point typed to four decimals."""
    text = ",".join(f"{x:.4f}" for x in _corner_b(rng).values)
    return sn.sort_descending(sn.parse_spectrum(text))


# sha256 over the answers of the stream in the test below, recorded before the
# perturbation records were filled slot by slot
_PERTURBED_DIGEST = (
    "9a914fb760501ae3437c172503d471d08f91d21853bbb9e84243e57434dec37f")


def test_perturbed_answers_are_byte_identical():
    # decide_perturbed on 4,000 typed lists (40% uniform, 40% zero-sum, 20% from
    # suite 05's two-paths corner), the index running through 2..5 and the sign
    # alternating every four lists, and on each list times 2**300 and 2**-300
    # with its size scaled alike: each answer's repr, JSON and matrix bits
    rng = np.random.default_rng(2024)
    draws = (_typed, _typed, _typed_zero_sum, _typed_zero_sum, _typed_box)
    h = hashlib.sha256()
    rules = set()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", sn.BoundaryProximityWarning)
        for j in range(4000):
            s = draws[j % 5](rng)
            i, sign = 2 + j % 4, ("plus", "minus")[j // 4 % 2]
            size = int(rng.integers(1, 51)) / 100
            for k in (0, 300, -300):
                sk = sn.SortedSpectrum(tuple(math.ldexp(x, k) for x in s.values))
                p = sn.Perturbation(i, sign, math.ldexp(size, k))
                answer = sn.decide_perturbed(sk, p)
                rules.add(answer.rule)
                parts = [repr(p), repr(answer), json.dumps(answer.to_json_dict())]
                if answer.matrix is not None:
                    parts += [x.hex() for row in answer.matrix.entries for x in row]
                h.update("\n".join(parts).encode() + b"\n\n")
    assert rules == set(ClosureRule)
    assert h.hexdigest() == _PERTURBED_DIGEST
