"""Hazard models: survival values, exact derivatives, metadata diagnostics."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

import lighttails as lt
from lighttails.hazardpoly import (monomial_weight, poly_value,
                                   survival_derivative_polys)

from helpers import (faa_di_bruno_ratio, hand_survival_ratio, log_power_sum_reference,
                     richardson_derivative)

FAMILIES = {
    "weibull": lt.weibull_type(0.5),
    "weibull_light": lt.weibull_type(0.3),
    "logweibull": lt.log_weibull(1.5),
    "lognormal2": lt.lognormal_type(0.5),
}


# -- derivative polynomial machinery ---------------------------------------


def test_polys_match_composition_sum():
    # the recursion must reproduce the full composition sum, checked on
    # arbitrary hazard-derivative values up to order 5
    rng = np.random.default_rng(7)
    polys = survival_derivative_polys(5)
    for _ in range(25):
        hvals = rng.uniform(-2, 2, size=5)
        for k in range(6):
            assert poly_value(polys[k], hvals) == pytest.approx(
                faa_di_bruno_ratio(hvals, k), rel=1e-12, abs=1e-12)


def test_poly_monomials_have_weight_k():
    for k, poly in enumerate(survival_derivative_polys(8)):
        for mono in poly:
            assert monomial_weight(mono) == k


# -- survival evaluation ----------------------------------------------------


def test_survival_anchor_and_closed_forms():
    w = lt.weibull_type(0.5)
    assert w.upper.survival(w.upper.t0) == pytest.approx(w.upper.sbar_t0, rel=1e-15)
    assert w.sf(100.0) == pytest.approx(math.exp(-10.0), rel=1e-13)
    ln = lt.lognormal_type(0.5)
    assert ln.sf(math.e**2) == pytest.approx(math.exp(-2.0), rel=1e-13)


def test_survival_below_anchor_raises():
    w = lt.weibull_type(0.5)
    with pytest.raises(lt.DomainError):
        w.upper.survival(1.0)


def test_survival_monotone_positive():
    # beyond float range the log-survival is the contract; it must keep
    # decreasing even where exp() underflows
    for dist in FAMILIES.values():
        grid = np.geomspace(dist.upper.t0 * 1.01, 1e7, 50)
        logs = [dist.upper.log_survival(t) for t in grid]
        assert all(np.isfinite(logs))
        assert all(b < a for a, b in zip(logs, logs[1:]))
        assert all(dist.upper.survival(t) >= 0 for t in grid)


def test_representation_consistency():
    # survival(t2)/survival(t1) must equal exp(-integral of h) computed by
    # independent quadrature of the hazard rate
    for dist in FAMILIES.values():
        m = dist.upper
        for t1, t2 in [(m.t0 + 1.0, 3 * m.t0 + 2.0), (10.0, 500.0), (50.0, 60.0)]:
            integral, _ = quad(m.hazard, t1, t2, epsabs=1e-14, epsrel=1e-12)
            ratio = m.survival(t2) / m.survival(t1)
            assert ratio == pytest.approx(math.exp(-integral), rel=1e-10)


def test_rapid_variation():
    # survival(t)/survival(a t) -> 0 along a geometric grid, for a < 1;
    # the ratio is formed in log space so deep tails stay representable
    for dist in FAMILIES.values():
        grid = np.geomspace(max(20.0, 4 * dist.upper.t0), 1e7, 12)
        ratios = [dist.upper.log_survival(t) - dist.upper.log_survival(0.5 * t)
                  for t in grid]
        assert all(b < a for a, b in zip(ratios, ratios[1:]))
        # the slowest family (log-scale tail) only reaches ~0.02 by t = 1e7
        assert ratios[-1] < math.log(0.05)


# -- bits of the hazard rate --------------------------------------------------

BIT_POINTS = np.geomspace(1.01, 1e12, 10_000)
BIT_INPUTS = list(zip(BIT_POINTS.tolist(), BIT_POINTS, [np.asarray(x) for x in BIT_POINTS]))


def _assert_reference_bits(h, every=1):
    # a Python float, an np.float64 and a 0-d array each give the reference's
    # float exactly, and an array its array
    bad = []
    for x, x64, x0 in BIT_INPUTS[::every]:
        want = log_power_sum_reference(h.terms, x0)
        got = (h(x), h(x64), h(x0))
        if not (got == (want,) * 3 and all(type(v) is float for v in got)):
            bad.append((x, want, got))
    assert not bad, f"{len(bad)} points differ, first {bad[0]}"
    np.testing.assert_array_equal(h(BIT_POINTS), log_power_sum_reference(h.terms, BIT_POINTS))


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_family_hazard_derivatives_keep_reference_bits(name):
    m = FAMILIES[name].upper
    _assert_reference_bits(m.hazard_derivs[0])
    # every tenth point for the derivatives, which hold up to nine terms each,
    # so the test stays within a few seconds
    for h in m.hazard_derivs[1:m.smooth_order + 1]:
        _assert_reference_bits(h, every=10)


@pytest.mark.parametrize("rho", [-1.0, -2.0, -0.6, 0.5, 2.0])
@pytest.mark.parametrize("gamma", [0.0, 1.0, 0.5, -1.5])
def test_custom_hazard_terms_keep_reference_bits(rho, gamma):
    dist = lt.custom_hazard([(1.3, rho, gamma)], t0=2.0, sbar_t0=0.5, rv_index=-0.5)
    _assert_reference_bits(dist.upper.hazard_derivs[0])


# -- exact derivatives -------------------------------------------------------


@pytest.mark.parametrize("name", sorted(FAMILIES))
@pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
def test_derivatives_match_hand_forms(name, k):
    dist = FAMILIES[name]
    m = dist.upper
    for t in (10.0, 100.0, 1000.0):
        hvals = [m.hazard_derivs[j](t) for j in range(max(k, 1))]
        expected = hand_survival_ratio(hvals, k) * m.survival(t)
        assert m.survival_derivative(k, t) == pytest.approx(expected, rel=1e-10)


def test_derivative_spot_value():
    # S = exp(-sqrt(t)) at t = 100: S'' = (-h' + h^2) S with h = 1/(2 sqrt t)
    m = lt.weibull_type(0.5).upper
    expected = (2.5e-4 + 2.5e-3) * math.exp(-10.0)
    assert m.survival_derivative(2, 100.0) == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(1.24850e-7, rel=1e-5)


@pytest.mark.parametrize("name", sorted(FAMILIES))
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_derivatives_match_finite_differences(name, k):
    dist = FAMILIES[name]
    m = dist.upper

    def sf(x):
        return m.survival(x)

    for t in (15.0, 40.0):
        step = 0.01 * t
        fd = richardson_derivative(sf, t, k, step)
        assert m.survival_derivative(k, t) == pytest.approx(fd, rel=1e-6)


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_derivative_hazard_power_trend(name):
    # |S^(k) / ((-1)^k h^k S) - 1| is nonincreasing along a geometric grid
    dist = FAMILIES[name]
    m = dist.upper
    grid = np.geomspace(100.0, 1e8, 13)
    for k in range(1, 5):
        devs = []
        for t in grid:
            sign, logabs = m.survival_derivative_signed_log(k, t)
            # ratio against (-1)^k h^k S formed in log space, sign separately
            log_ref = k * math.log(m.hazard(t)) + m.log_survival(t)
            ratio = sign * (-1.0) ** k * math.exp(logabs - log_ref)
            devs.append(abs(ratio - 1.0))
        assert all(b <= a + 1e-12 for a, b in zip(devs, devs[1:]))


def test_derivative_beyond_smoothness_raises():
    m = lt.weibull_type(0.5, smooth_order=3).upper
    with pytest.raises(lt.SmoothnessError):
        m.survival_derivative(4, 50.0)


def test_sympy_cross_check_weibull():
    sympy = pytest.importorskip("sympy")
    t = sympy.symbols("t", positive=True)
    a = sympy.Rational(2, 5)
    sf_expr = sympy.exp(-(t**a))
    m = lt.weibull_type(0.4).upper
    for k in range(1, 5):
        expr = sympy.diff(sf_expr, t, k)
        val = float(expr.subs(t, 80).evalf(30))
        assert m.survival_derivative(k, 80.0) == pytest.approx(val, rel=1e-11)


# -- metadata validation ------------------------------------------------------


def test_validate_metadata_weibull():
    diag = lt.validate_metadata(lt.weibull_type(0.3).upper,
                                np.geomspace(50, 1e8, 40))
    assert diag.rv_index_est == pytest.approx(-0.7, abs=1e-6)
    assert not diag.flags and not diag.inconclusive


def test_validate_metadata_logweibull():
    diag = lt.validate_metadata(lt.log_weibull(1.5).upper,
                                np.geomspace(50, 1e8, 40))
    assert diag.rv_index_est == pytest.approx(-1.0, abs=1e-6)
    assert diag.log_exponent_est == pytest.approx(0.5, abs=1e-6)
    assert diag.subcritical_bounded
    assert not diag.flags and not diag.inconclusive


def test_validate_metadata_lognormal_with_correction():
    # h(t) = t^-1 log t + t^-1: the critical coefficient extrapolates to 1
    dist = lt.custom_hazard([(1.0, -1.0, 1.0), (1.0, -1.0, 0.0)], t0=2.0,
                            sbar_t0=0.5, rv_index=-1.0, log_exponent=1.0,
                            lambda_coeff=1.0)
    diag = lt.validate_metadata(dist.upper, np.geomspace(50, 1e8, 40))
    assert diag.lambda_est == pytest.approx(1.0, abs=1e-6)
    assert not diag.flags and not diag.inconclusive


def test_validate_metadata_flags_wrong_declaration():
    lying = lt.custom_hazard([(0.4, -0.6, 0.0)], t0=2.0, sbar_t0=0.5,
                             rv_index=-0.9)
    diag = lt.validate_metadata(lying.upper, np.geomspace(50, 1e8, 40))
    assert any("rv_index" in f for f in diag.flags)


def test_validate_metadata_short_grid_inconclusive():
    diag = lt.validate_metadata(lt.weibull_type(0.5).upper,
                                np.geomspace(10, 200, 8))
    assert diag.inconclusive
    assert not diag.flags


def test_validate_metadata_requires_increasing_grid():
    with pytest.raises(ValueError):
        lt.validate_metadata(lt.weibull_type(0.5).upper, [10.0, 9.0, 11.0])


def test_metadata_constructor_guards():
    with pytest.raises(ValueError):
        lt.weibull_type(1.2)
    with pytest.raises(ValueError):
        lt.log_weibull(2.5)
    with pytest.raises(ValueError):
        lt.lognormal_type(-1.0)
    with pytest.raises(ValueError):
        lt.weibull_type(0.5, t0=0.8)
