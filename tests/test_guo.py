"""Perturbation moves and the closure-based decision rules."""
import io

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
