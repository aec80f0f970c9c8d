"""Hazard models: survival values, exact derivatives, metadata diagnostics."""

import hashlib
import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

import lighttails as lt
from lighttails import hazard
from lighttails.hazardpoly import poly_values, survival_derivative_polys

import pins
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
    # arbitrary hazard-derivative values up to order 5, one row per draw
    rng = np.random.default_rng(7)
    polys = survival_derivative_polys(5)
    hvals = rng.uniform(-2, 2, size=(25, 5))
    for k in range(6):
        got = poly_values(polys[k], lambda j, e: hvals[:, j] ** e) * np.ones(25)
        want = [faa_di_bruno_ratio(row, k) for row in hvals]
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


def test_poly_monomials_have_weight_k():
    for k, poly in enumerate(survival_derivative_polys(8)):
        for mono in poly:
            # differentiation weight: h^(j) counts for j + 1
            assert sum(ej * (j + 1) for j, ej in enumerate(mono)) == k


def test_poly_monomials_end_in_a_nonzero_exponent():
    # differentiating moves one exponent up a slot, so the last never empties
    for poly in survival_derivative_polys(12):
        assert all(mono[-1] != 0 for mono in poly if mono)


def test_poly_coefficient_sign_follows_degree():
    # P' keeps each degree and -h * P raises it by one with a sign flip, so a
    # monomial of degree s always has sign (-1)^s and no coefficient cancels
    for poly in survival_derivative_polys(12):
        assert all(math.copysign(1.0, c) == (-1) ** sum(mono) for mono, c in poly.items())


def test_poly_key_order_is_pinned():
    # poly_values sums in dict order, so evaluate's bits depend on the key order
    text = repr([list(p.items()) for p in survival_derivative_polys(8)])
    pins.check("hazard/poly_key_order", hashlib.sha256(text.encode()).hexdigest())


# -- survival evaluation ----------------------------------------------------


def test_survival_anchor_and_closed_forms():
    w = lt.weibull_type(0.5)
    assert math.exp(w.upper.log_survival(w.upper.t0)) == pytest.approx(w.upper.sbar_t0, rel=1e-15)
    assert w.sf(100.0) == pytest.approx(math.exp(-10.0), rel=1e-13)
    ln = lt.lognormal_type(0.5)
    assert ln.sf(math.e**2) == pytest.approx(math.exp(-2.0), rel=1e-13)


def test_survival_below_anchor_raises():
    w = lt.weibull_type(0.5)
    with pytest.raises(lt.DomainError):
        math.exp(w.upper.log_survival(1.0))


def test_survival_derivatives_below_anchor_raise_on_an_array():
    # the first point below t0 = 2 is named, wherever it sits in the array
    model = lt.weibull_type(0.5).upper
    with pytest.raises(lt.DomainError, match="t = 1.5 below tail anchor t0 = 2.0"):
        model.tail_reads(2, np.array([3.0, 1.5, 1.0, 4.0]))


def test_survival_monotone_positive():
    # beyond float range the log-survival is the contract; it must keep
    # decreasing even where exp() underflows
    for dist in FAMILIES.values():
        grid = np.geomspace(dist.upper.t0 * 1.01, 1e7, 50)
        logs = [dist.upper.log_survival(t) for t in grid]
        assert all(np.isfinite(logs))
        assert all(b < a for a, b in zip(logs, logs[1:]))
        assert all(math.exp(dist.upper.log_survival(t)) >= 0 for t in grid)


def test_representation_consistency():
    # survival(t2)/survival(t1) must equal exp(-integral of h) computed by
    # independent quadrature of the hazard rate
    for dist in FAMILIES.values():
        m = dist.upper
        for t1, t2 in [(m.t0 + 1.0, 3 * m.t0 + 2.0), (10.0, 500.0), (50.0, 60.0)]:
            integral, _ = quad(m.hazard, t1, t2, epsabs=1e-14, epsrel=1e-12)
            ratio = math.exp(m.log_survival(t2)) / math.exp(m.log_survival(t1))
            assert ratio == pytest.approx(math.exp(-integral), rel=1e-10)


# -- the QUADPACK wrapper --------------------------------------------------------


def _moment_integrand(x):
    return x ** 2 * math.exp(-x ** 0.4)


# every argument pattern the library passes; scipy's quad is the reference
QUAD_CALLS = {
    "finite": (0.0, 30.0, None),
    # repeated, at an end and outside the interval
    "points": (0.0, 30.0, [12.0, 5.0, 5.0, 0.0, 31.0]),
    "to_inf": (2.0, math.inf, None),
    "empty": (3.0, 3.0, None),
    "reversed": (30.0, 2.0, None),
    "reversed_points": (30.0, 0.0, [5.0, 12.0]),
}


@pytest.mark.parametrize("a, b, points", QUAD_CALLS.values(), ids=QUAD_CALLS.keys())
@pytest.mark.parametrize("limit", [400, 3])
def test_quad_is_scipys_quad(a, b, points, limit):
    # at limit 3 QUADPACK stops early: scipy warns, the wrapper stays silent
    # and leaves the error estimate to its caller
    kw = dict(epsabs=1e-13, epsrel=1e-11, limit=limit, points=points)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ours = hazard.quad(_moment_integrand, a, b, **kw)
        warnings.simplefilter("ignore")
        theirs = quad(_moment_integrand, a, b, **kw)
    assert [v.hex() for v in ours] == [float(v).hex() for v in theirs]


@pytest.mark.parametrize("a, b, points", [QUAD_CALLS[k] for k in ("finite", "points", "to_inf")],
                         ids=["qagse", "qagpe", "qagie"])
def test_quad_refuses_bad_input_and_passes_integrand_errors_on(a, b, points):
    with pytest.raises(ValueError, match="QUADPACK refused"):
        hazard.quad(_moment_integrand, a, b, 1e-13, 1e-11, 0, points)

    def broken(x):
        raise ZeroDivisionError("from the integrand")

    with pytest.raises(ZeroDivisionError, match="from the integrand"):
        hazard.quad(broken, a, b, 1e-13, 1e-11, 400, points)


def test_antiderivative_quadrature_out_of_tolerance_raises(monkeypatch):
    # t^-0.5 log t has no closed-form antiderivative: its quadrature is held
    # to epsrel 1e-12, and an estimate past that fails loudly
    cum = lt.LogPowerSum(((1.0, -0.5, 1.0),)).antiderivative_from(2.0)
    value = cum(50.0)
    monkeypatch.setattr(hazard, "quad", lambda *args, **kw: (value, 1e-12 * value))
    assert cum(50.0) == value
    monkeypatch.setattr(hazard, "quad", lambda *args, **kw: (value, 2e-12 * value))
    for t in (50.0, np.array([50.0, 60.0])):
        with pytest.raises(lt.QuadratureToleranceError) as exc:
            cum(t)
        assert exc.value.achieved == pytest.approx(2e-12) and exc.value.requested == 1e-12


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


def survival_derivative(m, k, t):
    """S^(k)(t) from its sign and log-magnitude."""
    sign, logabs = m.survival_derivative_signed_log(k, t)
    return sign * math.exp(logabs)


@pytest.mark.parametrize("name", sorted(FAMILIES))
@pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
def test_derivatives_match_hand_forms(name, k):
    dist = FAMILIES[name]
    m = dist.upper
    for t in (10.0, 100.0, 1000.0):
        hvals = [m.hazard_derivs[j](t) for j in range(max(k, 1))]
        expected = hand_survival_ratio(hvals, k) * math.exp(m.log_survival(t))
        assert survival_derivative(m, k, t) == pytest.approx(expected, rel=1e-10)


def test_derivative_spot_value():
    # S = exp(-sqrt(t)) at t = 100: S'' = (-h' + h^2) S with h = 1/(2 sqrt t)
    m = lt.weibull_type(0.5).upper
    expected = (2.5e-4 + 2.5e-3) * math.exp(-10.0)
    assert survival_derivative(m, 2, 100.0) == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(1.24850e-7, rel=1e-5)


@pytest.mark.parametrize("name", sorted(FAMILIES))
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_derivatives_match_finite_differences(name, k):
    dist = FAMILIES[name]
    m = dist.upper

    def sf(x):
        return math.exp(m.log_survival(x))

    for t in (15.0, 40.0):
        step = 0.01 * t
        fd = richardson_derivative(sf, t, k, step)
        assert survival_derivative(m, k, t) == pytest.approx(fd, rel=1e-6)


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
    # the weibull_type(0.5) hazard, differentiable three times only
    m = lt.custom_hazard([(0.5, -0.5, 0.0)], rv_index=-0.5, smooth_order=3).upper
    # the order is read off the derivatives the model carries
    assert m.smooth_order == 3 == len(m.hazard_derivs) - 1
    with pytest.raises(lt.SmoothnessError):
        survival_derivative(m, 4, 50.0)


def test_sympy_cross_check_weibull():
    sympy = pytest.importorskip("sympy")
    t = sympy.symbols("t", positive=True)
    a = sympy.Rational(2, 5)
    sf_expr = sympy.exp(-(t**a))
    m = lt.weibull_type(0.4).upper
    for k in range(1, 5):
        expr = sympy.diff(sf_expr, t, k)
        val = float(expr.subs(t, 80).evalf(30))
        assert survival_derivative(m, k, 80.0) == pytest.approx(val, rel=1e-11)


# every family the library builds: the closed forms, a custom hazard with and
# without logs, and a mixture with a negative piece (smoothness order 0)
ARRAY_FAMILIES = {
    **FAMILIES,
    "custom": lt.custom_hazard([(0.4, -0.6, 0.0), (0.1, -1.0, 1.0)], t0=2.0,
                               sbar_t0=0.5, rv_index=-0.6),
    "mixture": lt.log_power_mixture([(1.0, 1.0, [(1.0, 1.5)]),
                                     (-0.5, 2.0, [(1.0, 1.5)])], t0=2.0),
}


@pytest.mark.parametrize("name", sorted(ARRAY_FAMILIES))
def test_scalar_derivatives_are_entries_of_the_array_call(name):
    # a float t goes through the array code as one element: each of its
    # orders equals the array call's entry at that t, bit for bit
    m = ARRAY_FAMILIES[name].upper
    t = np.geomspace(m.t0, 1e9, 40)
    bits = lambda pair: tuple(float(v).hex() for v in pair)
    for k in range(m.smooth_order + 1):
        orders = m.tail_reads(k, t)[0]
        assert all(len(s) == len(l) == len(t) for s, l in orders)
        for i, x in enumerate(t.tolist()):
            scalar = m.tail_reads(k, x)[0]
            assert all(type(v) is float for pair in scalar for v in pair)
            assert [bits(pair) for pair in scalar] == [bits((s[i], l[i])) for s, l in orders]


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


# h(t) = 2 t^-1 log t: critical with lambda = 2, on a grid wide enough to conclude
CRITICAL_TWO = [(2.0, -1.0, 1.0)]
CRITICAL_GRID = np.geomspace(20, 2e7, 40)


def test_validate_metadata_flags_wrong_lambda():
    dist = lt.custom_hazard(CRITICAL_TWO, rv_index=-1.0, log_exponent=1.0,
                            lambda_coeff=1.0)
    diag = lt.validate_metadata(dist.upper, CRITICAL_GRID)
    assert diag.lambda_est == pytest.approx(2.0, abs=1e-6)
    assert len(diag.flags) == 1 and diag.flags[0].startswith("estimated lambda")


def test_validate_metadata_flags_wrong_log_exponent():
    dist = lt.custom_hazard(CRITICAL_TWO, rv_index=-1.0, log_exponent=1.5)
    diag = lt.validate_metadata(dist.upper, CRITICAL_GRID)
    assert diag.log_exponent_est == pytest.approx(1.0, abs=1e-6)
    assert len(diag.flags) == 1 and diag.flags[0].startswith("estimated log_exponent")


@pytest.mark.parametrize("lam", [0.0, -1.0])
def test_model_rejects_nonpositive_lambda(lam):
    with pytest.raises(ValueError, match="lambda_coeff must be positive"):
        lt.custom_hazard(CRITICAL_TWO, rv_index=-1.0, log_exponent=1.0, lambda_coeff=lam)


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


def _model(sbar_t0=0.5, hazard_derivs=(lambda t: 0.5 * t ** -0.5,)):
    return lt.HazardModel(hazard_derivs=hazard_derivs, t0=2.0,
                          sbar_t0=sbar_t0, cum_hazard=lambda t: 0.0, rv_index=-0.5)


@pytest.mark.parametrize("build, error, match", [
    (lambda: _model(sbar_t0=0.0), ValueError, "sbar_t0 must lie in"),
    (lambda: _model(sbar_t0=1.5), ValueError, "sbar_t0 must lie in"),
    (lambda: _model(hazard_derivs=()), ValueError, "hazard_derivs must provide"),
    (lambda: lt.custom_hazard([(0.5, -0.5, 0.0)], rv_index=-0.5, smooth_order=-1),
     ValueError, "smooth_order must be nonnegative"),
    (lambda: _model().tail_reads(-1, 50.0), ValueError, "nonnegative"),
    (lambda: lt.validate_metadata(_model(), [2.0, 20.0, 200.0]), lt.DomainError,
     "start above"),
], ids=["sbar_t0_zero", "sbar_t0_above_one", "too_few_hazard_derivs", "negative_smooth_order",
        "negative_derivative_order", "grid_starting_at_t0"])
def test_hazard_refusals(build, error, match):
    with pytest.raises(error, match=match):
        build()
