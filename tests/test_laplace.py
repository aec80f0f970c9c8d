"""Laplace characters: composition algebra, moment machinery, residual moments."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lighttails as lt

import pins
from helpers import multinomial_moment, weibull_raw_moment

moment_lists = st.lists(st.floats(min_value=-1.0, max_value=1.0,
                                  allow_nan=False, allow_infinity=False),
                        min_size=1, max_size=8)


def _mv(values):
    return (1.0,) + tuple(values)


# -- characters -----------------------------------------------------------------


def test_character_from_moments_examples():
    assert lt.character_from_moments((1.0, 1.0, 2.0), 2).coeffs == (1.0, -1.0, 1.0)
    assert lt.identity_character(3).coeffs == (1.0, 0.0, 0.0, 0.0)
    assert lt.character_from_moments((1.0, 5.0, 7.0), 0).coeffs == (1.0,)


def test_character_requires_enough_moments():
    with pytest.raises(ValueError):
        lt.character_from_moments((1.0, 2.0), 2)


def test_character_moment_round_trip():
    mv = (1.0, 0.3, -0.7, 2.5, 0.1)
    ch = lt.character_from_moments(mv, 4)
    assert ch.moments() == pytest.approx(mv, rel=1e-14)


def test_compose_worked_example():
    a = lt.character_from_moments((1.0, 1.0, 2.0), 2)
    b = lt.character_from_moments((1.0, 3.0, 10.0), 2)
    assert lt.compose(a, b).coeffs == (1.0, -4.0, 9.0)
    conv = lt.convolve_moments((1.0, 1.0, 2.0), (1.0, 3.0, 10.0))
    assert conv == (1.0, 4.0, 18.0)
    assert lt.character_from_moments(conv, 2).coeffs == (1.0, -4.0, 9.0)


def test_compose_unit_law():
    ch = lt.character_from_moments((1.0, 0.5, 2.0, -1.0), 3)
    ident = lt.identity_character(3)
    assert lt.compose(ch, ident).coeffs == ch.coeffs
    assert lt.compose(ident, ch).coeffs == ch.coeffs


def test_compose_order_mismatch():
    with pytest.raises(ValueError):
        lt.compose(lt.identity_character(2), lt.identity_character(3))


@given(a=moment_lists, b=moment_lists)
@settings(max_examples=200, deadline=None)
def test_morphism_and_commutativity(a, b):
    m = min(len(a), len(b))
    ca = lt.character_from_moments(_mv(a), m)
    cb = lt.character_from_moments(_mv(b), m)
    left = lt.compose(ca, cb).coeffs
    right = lt.compose(cb, ca).coeffs
    morphism = lt.character_from_moments(
        lt.convolve_moments(_mv(a), _mv(b)), m).coeffs
    assert left == pytest.approx(right, rel=1e-12, abs=1e-12)
    assert left == pytest.approx(morphism, rel=1e-12, abs=1e-12)


@given(a=moment_lists, b=moment_lists, c=moment_lists)
@settings(max_examples=100, deadline=None)
def test_associativity(a, b, c):
    m = min(len(a), len(b), len(c))
    ca, cb, cc = (lt.character_from_moments(_mv(v), m) for v in (a, b, c))
    left = lt.compose(lt.compose(ca, cb), cc).coeffs
    right = lt.compose(ca, lt.compose(cb, cc)).coeffs
    assert left == pytest.approx(right, rel=1e-12, abs=1e-12)


# -- cumulants ---------------------------------------------------------------------


def test_cumulant_round_trip():
    rng = np.random.default_rng(3)
    for _ in range(20):
        mu = (1.0,) + tuple(rng.uniform(-1.5, 1.5, size=6))
        back = lt.cumulants_to_raw(lt.raw_to_cumulants(mu))
        assert back == pytest.approx(mu, rel=1e-12, abs=1e-12)


def test_known_cumulants():
    # moments of a standard normal: 0, 1, 0, 3 -> cumulants 0, 1, 0, 0
    kappa = lt.raw_to_cumulants((1.0, 0.0, 1.0, 0.0, 3.0))
    assert kappa == pytest.approx((0.0, 1.0, 0.0, 0.0), abs=1e-14)


def test_scale_moments():
    assert lt.scale_moments((1.0, 2.0, 5.0), 0.5) == (1.0, 1.0, 1.25)


# -- residual moments ---------------------------------------------------------------


def test_residual_moments_symmetric_odd_vanish():
    d = lt.weibull_type(0.5, symmetric=True)
    seq = lt.WeightSequence([1.0], ratio=0.5)
    mv = lt.residual_moments(d, seq, 1, 5)
    assert mv[1] == 0.0 and mv[3] == 0.0 and mv[5] == 0.0


def test_residual_moments_geometric_closed_form():
    d = lt.weibull_type(0.5, symmetric=True)
    seq = lt.WeightSequence([1.0], ratio=0.5)
    mv = lt.residual_moments(d, seq, 1, 4)
    mu2, mu4 = d.moment(2), d.moment(4)
    c2, c4 = 1.0 / 3.0, 1.0 / 15.0
    assert mv[2] == pytest.approx(c2 * mu2, rel=1e-12)
    assert mv[4] == pytest.approx(3 * (c2**2 - c4) * mu2**2 + c4 * mu4, rel=1e-12)


def test_residual_moments_brute_force_explicit():
    # multinomial expansion over a four-weight truncation
    d = lt.weibull_type(0.5)
    weights = [1.0, 0.5, 0.25, 0.125]
    seq = lt.WeightSequence(weights)
    base = [weibull_raw_moment(0.5, k) for k in range(5)]
    for removed in (1, 2):
        mv = lt.residual_moments(d, seq, removed, 4)
        kept = [w for i, w in enumerate(weights, start=1) if i != removed]
        for n in range(1, 5):
            brute = multinomial_moment(kept, base, n)
            assert mv[n] == pytest.approx(brute, rel=1e-10)


def test_residual_moments_brute_force_signed():
    d = lt.weibull_type(0.5, symmetric=True)
    weights = [1.0, -0.5, 0.25]
    seq = lt.WeightSequence(weights)
    base = [weibull_raw_moment(0.5, k, symmetric=True) for k in range(5)]
    mv = lt.residual_moments(d, seq, 2, 4)
    kept = [1.0, 0.25]
    for n in range(1, 5):
        assert mv[n] == pytest.approx(multinomial_moment(kept, base, n),
                                      rel=1e-10, abs=1e-12)


def test_residual_moments_single_entry_is_point_mass():
    d = lt.weibull_type(0.5)
    seq = lt.WeightSequence([1.0])
    # the moment machinery reports the empty sum directly
    mv = lt.residual_moments(d, seq, 1, 3)
    assert mv == (1.0, 0.0, 0.0, 0.0)


def test_residual_moments_scaling_property():
    # a single remaining entry c X has moments c^n mu_n
    d = lt.weibull_type(0.5)
    seq = lt.WeightSequence([1.0, 0.7])
    mv = lt.residual_moments(d, seq, 1, 3)
    expected = lt.scale_moments(tuple(d.moment(i) for i in range(4)), 0.7)
    assert mv == pytest.approx(expected, rel=1e-12)


# -- applying characters --------------------------------------------------------------


def test_apply_identity_character():
    d = lt.weibull_type(0.5)
    ch = lt.identity_character(0)
    assert lt.apply_character(ch, d, 1.0, 50.0) == pytest.approx(d.sf(50.0), rel=1e-14)


def test_apply_order_one():
    d = lt.weibull_type(0.5)
    mu1 = 0.4
    ch = lt.character_from_moments((1.0, mu1), 1)
    t = 50.0
    h = d.upper.hazard(t)
    # S - mu1 S' = S (1 + mu1 h)
    assert lt.apply_character(ch, d, 1.0, t) == pytest.approx(
        d.sf(t) * (1.0 + mu1 * h), rel=1e-12)


def test_apply_truncation_difference():
    d = lt.weibull_type(0.5)
    mv = (1.0, 0.3, 0.7, 1.9)
    t = 40.0
    full = lt.apply_character(lt.character_from_moments(mv, 3), d, 1.0, t)
    partial = lt.apply_character(lt.character_from_moments(mv, 2), d, 1.0, t)
    sign, logabs = d.upper.survival_derivative_signed_log(3, t)
    last = lt.character_from_moments(mv, 3).coeffs[3] * sign * math.exp(logabs)
    assert full - partial == pytest.approx(last, rel=1e-10)


def test_apply_insufficient_smoothness():
    # the weibull_type(0.5) hazard, differentiable twice only
    d = lt.custom_hazard([(0.5, -0.5, 0.0)], rv_index=-0.5, smooth_order=2)
    ch = lt.character_from_moments((1.0, 1.0, 1.0, 1.0), 3)
    with pytest.raises(lt.SmoothnessError) as exc:
        lt.apply_character(ch, d, 1.0, 50.0)
    assert exc.value.required == 3


APPLY_CHARACTER_POINTS = [
    (1.0, 10.0), (1.0, 100.0), (1.0, 1000.0), (0.5, 10.0), (0.5, 100.0), (0.5, 1000.0),
    # points where numpy's pow loop and libm's pow give some h^(j)(t/c) one ulp
    # apart and the result shows it (found over geomspace(2.5, 1e4, 400))
    (1.0, 3.788736432816946), (1.0, 44.03168130104968), (0.5, 13.747160063176462),
]


def _apply_character_key(c, t):
    return f"laplace/apply_character/{c!r}@{t!r}"


# each id ends in the pinned value, as it did when the value was a parameter
@pytest.mark.parametrize("c,t", APPLY_CHARACTER_POINTS, ids=[
    f"{c!r}-{t!r}-{pins.LEDGER.get(_apply_character_key(c, t))}"
    for c, t in APPLY_CHARACTER_POINTS])
def test_apply_character_keeps_its_bits(c, t):
    w = lt.weibull_type(0.4)
    seq = lt.WeightSequence([1.0, 0.5, 0.25])
    ch = lt.character_from_moments(lt.residual_moments(w, seq, 1, 3), 3)
    pins.check(_apply_character_key(c, t), lt.apply_character(ch, w, c, t))
