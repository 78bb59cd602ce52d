"""Real-root extraction for cubics with real coefficients."""
import math
import warnings

import numpy as np
import numpy.testing as npt
import pytest

import sniep5 as sn
from sniep5 import cubic
from support import hex_bits, poly_from_roots, q_coeffs, sample_until

EX1_Q = (2.0, 780.0, -169279.0, -5139810.0)
EX2_Q = (2.0, 766.0, -189010.0, -901830.0)

# acceptance suite 05's draw, which reaches the two-paths region
B_DRAW = dict(t_lo=0.15, t_hi=0.45, x_pow=5, y_top=0.3)


def test_factored_three_roots():
    # 2z^3 - 2z = 2 z (z - 1)(z + 1)
    roots = cubic.real_roots(2.0, 0.0, -2.0, 0.0)
    npt.assert_allclose(roots, [-1.0, 0.0, 1.0], atol=1e-14)


def test_golden_cubic_roots():
    npt.assert_allclose(cubic.real_roots(*EX1_Q),
                        [-538.35237219, -27.19321311, 175.5455853], atol=1e-5)
    npt.assert_allclose(cubic.real_roots(*EX2_Q),
                        [-552.5556695, -4.683524431, 174.2391939], atol=1e-5)


def test_three_known_roots_round_trip():
    rng = np.random.default_rng(23)
    done = 0
    while done < 200:
        want = np.sort(rng.uniform(-50, 50, 3))
        if np.min(np.diff(want)) < 1e-3:
            continue  # keep roots separated so the expansion is well posed
        lead = rng.uniform(0.2, 5.0) * rng.choice([-1.0, 1.0])
        coeffs = poly_from_roots(want, lead=lead)
        got = cubic.real_roots(*coeffs)
        assert len(got) == 3
        npt.assert_allclose(got, want, atol=1e-7 * max(1.0, np.max(np.abs(want))))
        done += 1


def test_single_real_root():
    # (z - 3)(z^2 + z + 1), complex pair discarded
    roots = cubic.real_roots(1.0, -2.0, -2.0, -3.0)
    assert len(roots) == 1
    npt.assert_allclose(roots, [3.0], atol=1e-9)


def test_double_root_merges():
    # (z - 2)^2 (z + 5): the repeated root reports once
    roots = cubic.real_roots(*poly_from_roots([2.0, 2.0, -5.0]))
    assert len(roots) == 2
    npt.assert_allclose(roots, [-5.0, 2.0], atol=1e-6)


def test_double_root_with_radicand_below_zero():
    # disc rounds to -1.2e-7, so the one-real-root branch runs, but its
    # radicand q*q/4 + p**3/27 rounds to -1.9e-9 on its own
    coeffs = (1.2782256631265436, -55.532696725031215,
              -3.3806351870179214, -0.051414303837602655)
    roots = cubic.real_roots(*coeffs)
    assert roots == (-0.030406319677551252, 43.505955642663366)
    for root in roots:
        res = abs(cubic.evaluate(*coeffs, root))
        assert res <= cubic.residual_bound(*coeffs, root)


def test_triple_root():
    roots = cubic.real_roots(*poly_from_roots([4.0, 4.0, 4.0]))
    assert len(roots) == 1
    npt.assert_allclose(roots, [4.0], atol=1e-4)


def test_roots_sorted_ascending():
    rng = np.random.default_rng(9)
    for _ in range(50):
        coeffs = rng.uniform(-10, 10, 4)
        if abs(coeffs[0]) < 1e-3:
            continue
        roots = cubic.real_roots(*coeffs)
        assert list(roots) == sorted(roots)


def _assert_residuals_bounded(coeffs):
    for root in cubic.real_roots(*coeffs):
        res = abs(cubic.evaluate(*coeffs, root))
        assert res <= cubic.residual_bound(*coeffs, root), (coeffs, root)


def test_residual_bound_random():
    rng = np.random.default_rng(17)
    for _ in range(300):
        coeffs = rng.uniform(-100, 100, 4)
        if abs(coeffs[0]) < 1e-3:
            continue
        _assert_residuals_bounded(coeffs)


# _keeps_sign's "no root" rests on this bound holding for every returned
# root, so it is checked on the cubics the two-paths gate meets
def test_residual_bound_on_every_24_grid_row():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", sn.BoundaryProximityWarning)
        rows = list(sn.sample_region(24, [0.0, 0.1, 0.35]))
    assert len(rows) == 18_290
    for row in rows:
        s = sn.SortedSpectrum((1.0, row.lambda2, row.lambda3, row.lambda4,
                               row.lambda5))
        _assert_residuals_bounded(q_coeffs(sn.q_poly(s)))


def test_residual_bound_on_suite_05_draws():
    # the first draws of acceptance suite 05's stream, before its gate
    rng = np.random.default_rng(20241)
    for s in sample_until(rng, lambda s: True, 20_000, **B_DRAW):
        _assert_residuals_bounded(q_coeffs(sn.q_poly(s)))


def test_residual_bound_on_reference_cubics():
    # includes the double- and triple-root cubics
    for coeffs in _reference_cubics():
        _assert_residuals_bounded(coeffs)


def test_keeps_sign_false_with_a_root_at_an_end():
    # Q(lo) = 0 and Q(hi) = 0 exactly
    assert not cubic._keeps_sign(*poly_from_roots([0.0, 2.0, -3.0], 2.0), 0.0, 0.5)
    assert not cubic._keeps_sign(*poly_from_roots([0.5, 2.0, -3.0], 2.0), 0.0, 0.5)


def test_keeps_sign_probes_a_double_root_inside():
    # both ends are negative; only the turning point at 0.25 shows the root
    coeffs = poly_from_roots([0.25, 0.25, 3.0], 2.0)
    assert cubic.evaluate(*coeffs, 0.0) < 0.0
    assert cubic.evaluate(*coeffs, 0.5) < 0.0
    assert not cubic._keeps_sign(*coeffs, 0.0, 0.5)


@pytest.mark.parametrize("turn", [0.501, -0.001])
def test_keeps_sign_true_with_a_turning_point_just_outside(turn):
    coeffs = poly_from_roots([turn, turn, 3.0], 2.0)
    assert cubic._keeps_sign(*coeffs, 0.0, 0.5)
    assert not [x for x in cubic.real_roots(*coeffs) if 0.0 <= x <= 0.5]


def test_keeps_sign_false_near_a_zero_minimum():
    # Q < 0 on the whole window, but only by 1e-12 at 0.25: too close to say
    c3, c2, c1, c0 = poly_from_roots([0.25, 0.25, 3.0], 2.0)
    c0 -= 1e-12
    assert cubic.evaluate(c3, c2, c1, c0, 0.25) < 0.0
    assert not cubic._keeps_sign(c3, c2, c1, c0, 0.0, 0.5)


@pytest.mark.parametrize("i", range(4))
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_keeps_sign_false_on_non_finite_coefficients(i, bad):
    coeffs = [2.0, 0.0, 0.0, 1.0]  # 2z^3 + 1 > 0 on [0, 0.5]
    assert cubic._keeps_sign(*coeffs, 0.0, 0.5)
    coeffs[i] = bad
    assert not cubic._keeps_sign(*coeffs, 0.0, 0.5)


def test_keeps_sign_false_on_a_zero_leading_coefficient():
    assert not cubic._keeps_sign(0.0, 1.0, 0.0, 1.0, 0.0, 0.5)


def test_keeps_sign_true_only_without_a_root_in_the_window():
    rng = np.random.default_rng(29)
    decided = 0
    for _ in range(3000):
        coeffs = tuple(float(c) for c in rng.uniform(-10, 10, 4))
        lo, hi = sorted(float(x) for x in rng.uniform(-3, 3, 2))
        if cubic._keeps_sign(*coeffs, lo, hi):
            decided += 1
            assert not [x for x in cubic.real_roots(*coeffs) if lo <= x <= hi]
    assert decided > 1000


def test_degenerate_leading_coefficient():
    with pytest.raises(sn.DegenerateLeadingCoefficient):
        cubic.real_roots(0.0, 1.0, 2.0, 3.0)


def _evaluate_reference(c3, c2, c1, c0, x):
    return ((c3 * x + c2) * x + c1) * x + c0


def _polish_reference(c3, c2, c1, c0, x, steps=4):
    """The Newton loop as first written: the residual at each iterate is
    evaluated twice, through a call, and Q' is formed in the loop."""
    best_x, best_f = x, abs(_evaluate_reference(c3, c2, c1, c0, x))
    for _ in range(steps):
        f = _evaluate_reference(c3, c2, c1, c0, x)
        df = (3.0 * c3 * x + 2.0 * c2) * x + c1
        if df == 0.0:
            break
        x -= f / df
        fx = abs(_evaluate_reference(c3, c2, c1, c0, x))
        if fx < best_f:
            best_x, best_f = x, fx
        if fx == 0.0:
            break
    return best_x


def _reference_cubics():
    rng = np.random.default_rng(41)
    for s in sample_until(rng, lambda s: True, 300):
        q = sn.q_poly(s)
        yield (q.c3, q.c2, q.c1, q.c0)
    for s in sample_until(rng, lambda s: True, 300, **B_DRAW):
        q = sn.q_poly(s)
        yield (q.c3, q.c2, q.c1, q.c0)
    for _ in range(600):
        coeffs = tuple(float(c) for c in rng.uniform(-100, 100, 4))
        if coeffs[0] != 0.0:
            yield coeffs
    for _ in range(300):
        a, b = (float(v) for v in rng.uniform(-50, 50, 2))
        lead = float(rng.uniform(0.2, 5.0))
        yield tuple(poly_from_roots([a, a, b], lead=lead))
        yield tuple(poly_from_roots([a, a, a], lead=lead))


def test_polish_bit_identical_to_reference_loop():
    cubics = list(_reference_cubics())
    want_polish = []
    want_roots = []
    with pytest.MonkeyPatch.context() as m:
        m.setattr(cubic, "_polish", _polish_reference)
        for c in cubics:
            want_roots.append(hex_bits(cubic.real_roots(*c)))
    starts = (-60.0, -1.0, 0.0, 0.5, 3.0, 75.0)
    for c in cubics:
        want_polish.append(hex_bits(_polish_reference(*c, x) for x in starts))
    for c, roots, polished in zip(cubics, want_roots, want_polish):
        assert hex_bits(cubic.real_roots(*c)) == roots, c
        assert hex_bits(cubic._polish(*c, x) for x in starts) == polished, c


def test_thirds_are_the_angles_they_replace():
    want = tuple(2.0 * math.pi * k / 3.0 for k in (0, 1, 2))
    assert hex_bits(cubic._THIRDS) == hex_bits(want)


def _fixed_point_cubics():
    rng = np.random.default_rng(43)
    for _ in range(20_000):
        scale = 10.0 ** float(rng.integers(-6, 7))
        coeffs = tuple(float(c) * scale for c in rng.uniform(-100, 100, 4))
        if coeffs[0] != 0.0:
            yield coeffs
    # a root at exactly 0, where Newton can step between -0.0 and 0.0
    for _ in range(200):
        c3, c2, c1 = (float(c) for c in rng.uniform(-10, 10, 3))
        yield (c3 or 1.0, c2, c1, 0.0)
    # Q's from both pattern boxes, double and triple roots
    yield from _reference_cubics()


def test_polish_fixed_point_exit_keeps_every_root_bit():
    # _polish_reference has no fixed-point exit: it takes all four steps
    # unless Q' or the residual reaches zero
    cubics = list(_fixed_point_cubics())
    assert len(cubics) > 20_000
    with pytest.MonkeyPatch.context() as m:
        m.setattr(cubic, "_polish", _polish_reference)
        want = [hex_bits(cubic.real_roots(*c)) for c in cubics]
    starts = (-0.0, 0.0, -1.0, 0.5, 3.0)
    for c, roots in zip(cubics, want):
        assert hex_bits(cubic.real_roots(*c)) == roots, c
        assert (hex_bits(cubic._polish(*c, x) for x in starts)
                == hex_bits(_polish_reference(*c, x) for x in starts)), c
