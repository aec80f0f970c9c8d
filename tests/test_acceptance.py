"""Acceptance suite: one test per exit criterion, each printing PASS/FAIL.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Budgets (sample counts, seeds, grids, tolerances) are pinned here.
"""

import functools
import json
import math
import os
import time

import numpy as np
import pytest

import lighttails as lt
from lighttails.cli import EXIT_OK, main

from helpers import (multinomial_moment, richardson_derivative,
                     weibull_raw_moment)

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")

E1 = lambda t: math.exp(-math.log(t) ** 1.5)


def criterion(number, label):
    def deco(fn):
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number} ({label}): FAIL")
                raise
            print(f"ACCEPTANCE {number} ({label}): PASS")
            return result
        return wrapped
    return deco


# -- 1: Laplace character morphism --------------------------------------------------


@criterion(1, "laplace morphism")
def test_criterion_1_laplace_morphism():
    rng = np.random.default_rng(42)
    start = time.perf_counter()
    for _ in range(200):
        m = int(rng.integers(1, 9))
        ma = (1.0,) + tuple(rng.uniform(-1, 1, size=m))
        mb = (1.0,) + tuple(rng.uniform(-1, 1, size=m))
        mc = (1.0,) + tuple(rng.uniform(-1, 1, size=m))
        ca, cb, cc = (lt.character_from_moments(v, m) for v in (ma, mb, mc))
        composed = lt.compose(ca, cb)
        morphism = lt.character_from_moments(lt.convolve_moments(ma, mb), m)
        np.testing.assert_allclose(composed.coeffs, morphism.coeffs,
                                   rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(composed.coeffs, lt.compose(cb, ca).coeffs,
                                   rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(
            lt.compose(lt.compose(ca, cb), cc).coeffs,
            lt.compose(ca, lt.compose(cb, cc)).coeffs, rtol=1e-12, atol=1e-12)
    assert time.perf_counter() - start < 1.0


# -- 2: derivative engine ---------------------------------------------------------


@criterion(2, "derivative engine")
def test_criterion_2_derivative_engine():
    start = time.perf_counter()
    families = [lt.weibull_type(0.5), lt.log_weibull(1.5), lt.lognormal_type(0.5)]

    def hand_ratio(m, k, t):
        h = m.hazard(t)
        h1, h2, h3 = (m.hazard_derivs[j](t) for j in (1, 2, 3))
        return {0: 1.0, 1: -h, 2: -h1 + h**2, 3: -h2 + 3 * h1 * h - h**3,
                4: -h3 + 4 * h * h2 + 3 * h1**2 - 6 * h1 * h**2 + h**4}[k]

    def derivative(m, k, t):
        sign, logabs = m.survival_derivative_signed_log(k, t)
        return sign * math.exp(logabs)

    for dist in families:
        m = dist.upper
        # hand-derived closed forms, relative 1e-10
        for t in (20.0, 200.0):
            for k in range(5):
                expected = hand_ratio(m, k, t) * math.exp(m.log_survival(t))
                assert derivative(m, k, t) == pytest.approx(
                    expected, rel=1e-10)
        # central finite differences, relative 1e-6
        for k in (1, 2, 3, 4):
            t = 40.0
            fd = richardson_derivative(lambda x: math.exp(m.log_survival(x)), t, k, 0.01 * t)
            assert derivative(m, k, t) == pytest.approx(fd, rel=1e-6)
        # ratio against (-1)^k h^k S approaches 1 monotonely on t = 1e2..1e8
        grid = np.geomspace(1e2, 1e8, 13)
        for k in (1, 2, 3, 4):
            devs = []
            for t in grid:
                sign, logabs = m.survival_derivative_signed_log(k, t)
                log_ref = k * math.log(m.hazard(t)) + m.log_survival(t)
                devs.append(abs(sign * (-1.0) ** k * math.exp(logabs - log_ref) - 1.0))
            assert all(b <= a + 1e-12 for a, b in zip(devs, devs[1:]))
    assert time.perf_counter() - start < 5.0


# -- 3: symmetric geometric residual moments ---------------------------------------


@criterion(3, "residual moment identities")
def test_criterion_3_residual_moment_identities():
    d = lt.weibull_type(0.5, symmetric=True)
    seq = lt.WeightSequence([1.0], ratio=0.5)
    c2, c4 = 1.0 / 3.0, 1.0 / 15.0
    assert seq.residual_power_sum(1, 2) == pytest.approx(c2, rel=1e-14)
    assert seq.residual_power_sum(1, 4) == pytest.approx(c4, rel=1e-14)
    mv = lt.residual_moments(d, seq, 1, 4)
    mu2, mu4 = d.moment(2), d.moment(4)
    assert mv[2] == pytest.approx(c2 * mu2, rel=1e-10)
    assert mv[4] == pytest.approx(3 * (c2**2 - c4) * mu2**2 + c4 * mu4, rel=1e-10)
    assert mv[1] == 0.0 and mv[3] == 0.0
    # brute-force multinomial oracle on a four-weight truncation
    weights = [1.0, 0.5, 0.25, 0.125]
    trunc = lt.WeightSequence(weights)
    base = [weibull_raw_moment(0.5, k, symmetric=True) for k in range(5)]
    mv4 = lt.residual_moments(d, trunc, 1, 4)
    for n in (2, 4):
        brute = multinomial_moment(weights[1:], base, n)
        assert mv4[n] == pytest.approx(brute, rel=1e-10)


# -- 4: critical-regime term gate ----------------------------------------------------


@criterion(4, "critical regime gate")
def test_criterion_4_critical_regime_gate():
    ln = lt.lognormal_type(0.5)  # lambda = 1
    assert lt.classify(ln.upper).lam == 1.0
    mu1 = ln.moment(1)

    below = lt.expand(ln, lt.WeightSequence([1.0, 0.3]), 1)
    assert [(t.scale, t.deriv_index) for t in below.terms] == [(1.0, 0), (1.0, 1)]
    assert below.terms[0].coeff == 1.0
    assert below.terms[1].coeff == -(0.3 * mu1)

    above = lt.expand(ln, lt.WeightSequence([1.0, 0.5]), 1)
    assert [(t.scale, t.deriv_index, t.coeff) for t in above.terms] == [
        (1.0, 0, 1.0), (0.5, 0, 1.0)]

    boundary = lt.expand(ln, lt.WeightSequence([1.0, math.exp(-1.0)]), 1)
    scaled = [t for t in boundary.terms if t.scale == math.exp(-1.0)]
    assert len(scaled) == 1
    assert scaled[0].deriv_index == 0
    assert scaled[0].operator_order == 0


# -- 5: cancellation detection -------------------------------------------------------


@criterion(5, "cancellation detection")
def test_criterion_5_cancellation():
    mix = lt.log_power_mixture(
        [(1.0, 1.0, [(1.0, 1.5)]), (-1.0, 2.0, [(1.0, 1.5)])], t0=2.0)
    seq = lt.WeightSequence([1.0, 0.5])
    exp = lt.expand(mix, seq, 2)
    assert exp.regime.kind is lt.RegimeKind.SUBCRITICAL
    grid = np.geomspace(10.0, 1e5, 6)
    table = lt.evaluate(exp, mix, grid)
    trend = []
    for i, t in enumerate(grid):
        closed = E1(t) - E1(4.0 * t)
        assert table.totals[i] == pytest.approx(closed, rel=1e-12)
        assert table.cancellation[i]
        trend.append(abs(table.totals[i] - E1(t)) / mix.sf(2.0 * t))
    assert all(b < a for a, b in zip(trend, trend[1:]))
    assert trend[-1] < trend[0] / 3.0


# -- 6/7: oracle cross-validation and expansion improvement -------------------------


@pytest.fixture(scope="module")
def weibull_oracle_setup():
    dist = lt.weibull_type(0.4)
    seq = lt.WeightSequence([1.0, 0.5])
    grid = np.geomspace(136.0, 700.0, 5)
    return dist, seq, grid


@criterion(6, "oracle cross-validation")
def test_criterion_6_oracle_cross_validation(weibull_oracle_setup):
    dist, seq, grid = weibull_oracle_setup
    start = time.perf_counter()
    for t in grid:
        q = lt.quadrature_estimate(dist, seq, float(t))
        assert 1e-6 <= q.p_hat <= 1e-3
        mc = lt.conditional_mc(dist, seq, float(t), 10**6, seed=9)
        band = 3.0 * mc.std_err + mc.truncation_bias_bound
        assert abs(mc.p_hat - q.p_hat) <= band
    assert time.perf_counter() - start < 60.0


@pytest.fixture(scope="module")
def high_budget_estimates(weibull_oracle_setup):
    dist, seq, grid = weibull_oracle_setup
    return [lt.conditional_mc(dist, seq, float(t), 10**7, seed=9) for t in grid]


@criterion(7, "expansion-vs-oracle improvement")
def test_criterion_7_improvement(weibull_oracle_setup, high_budget_estimates):
    dist, seq, grid = weibull_oracle_setup
    start = time.perf_counter()
    table0 = lt.evaluate(lt.expand(dist, seq, 0), dist, grid)
    table2 = lt.evaluate(lt.expand(dist, seq, 2), dist, grid)
    for i, est in enumerate(high_budget_estimates):
        dev0 = abs(est.p_hat - table0.totals[i])
        dev2 = abs(est.p_hat - table2.totals[i])
        assert dev0 / table0.benchmark[i] <= 10.0
        assert dev2 < dev0  # strict pointwise improvement
    assert time.perf_counter() - start < 600.0


@criterion(7, "order-2 deviation over its remainder benchmark")
def test_criterion_7_order2_benchmark_ratio(weibull_oracle_setup):
    # The supercritical remainder is o(h^2 S): it is checked where that claim
    # is asymptotic, on a deep grid from the last Monte Carlo point (700) to
    # 1e6, against the pair-quadrature oracle.  Until the crossover near
    # t ~ 1e4 the deviation is dominated by the second scale's whole tail
    # S(t / 0.5), which the expansion rightly leaves out; past it the ratio
    # must sit within the stated bound of 10.  Measured deviation/benchmark:
    # 215, 91.5, 17.6, 1.45, 0.30, 0.16, 0.092, 0.052, 0.030.  The grid stops
    # at 1e6 because the quadrature error bound grows relative to h^2 S with
    # t; at 1e6 the deviation is still 22x that bound.
    dist, seq, _ = weibull_oracle_setup
    c1, c2 = seq.weight(1), seq.weight(2)
    deep = np.geomspace(700.0, 1e6, 9)
    table2 = lt.evaluate(lt.expand(dist, seq, 2), dist, deep)
    values, ratios = [], []
    for i, t in enumerate(deep):
        t = float(t)
        value, err = lt.convolve_pair_sf(lt.ScaledFactor(dist, c1),
                                         lt.ScaledFactor(dist, c2), t)
        # truncation keeps exactly the two factors, so the oracle is this pair
        assert lt.quadrature_estimate(dist, seq, t).p_hat == value, f"t={t:.4g}"
        dev2 = abs(value - table2.totals[i])
        ratio = dev2 / table2.benchmark[i]
        assert dev2 >= 10.0 * err, (
            f"t={t:.4g}: deviation {dev2:.3g} (ratio {ratio:.3g}) not resolved "
            f"by quadrature error {err:.3g}")
        values.append(value)
        ratios.append(ratio)
    assert all(b < a for a, b in zip(ratios, ratios[1:])), ratios
    # crossover: the first point where the dropped tail S(t / c2) no longer
    # exceeds the remainder benchmark h^2 S
    crossover = next(i for i, t in enumerate(deep)
                     if dist.sf(float(t) / c2) <= table2.benchmark[i])
    assert len(deep) - crossover >= 5, f"crossover at t={deep[crossover]:.4g}"
    for t, ratio in zip(deep[crossover:], ratios[crossover:]):
        assert ratio <= 10.0, f"t={t:.4g}: deviation/benchmark {ratio:.3g} > 10"
    # tie the deep oracle to the independent Monte Carlo one at both ends
    for i in (0, len(deep) - 1):
        t = float(deep[i])
        mc = lt.conditional_mc(dist, seq, t, 10**6, seed=9)
        band = 3.0 * mc.std_err + mc.truncation_bias_bound
        assert abs(mc.p_hat - values[i]) <= band, (
            f"t={t:.4g}: MC {mc.p_hat:.6g} vs quadrature {values[i]:.6g}, "
            f"band {band:.3g}")


# -- 8: leading multiplicity ----------------------------------------------------------


@criterion(8, "leading multiplicity")
def test_criterion_8_leading_multiplicity():
    dist = lt.weibull_type(0.4)
    seq = lt.WeightSequence([1.0, 1.0, 0.5])
    exp = lt.expand(dist, seq, 0)
    assert [(t.scale, t.deriv_index, t.coeff) for t in exp.terms] == [(1.0, 0, 2.0)]
    grid = np.geomspace(125.3, 258.0, 4)
    t = float(grid[-1])
    mc = lt.conditional_mc(dist, seq, t, 10**6, seed=9)
    ratio = mc.p_hat / (2.0 * dist.sf(t))
    assert 0.8 <= ratio <= 1.2


# -- 9: subexponentiality witness ------------------------------------------------------


@criterion(9, "subexponentiality witness")
def test_criterion_9_subexponentiality():
    windows = [(lt.weibull_type(0.5), (100.0, 2000.0)),
               (lt.log_weibull(1.5), (1e3, 1e6)),
               (lt.lognormal_type(0.5), (1e2, 1e5))]
    for dist, (lo, hi) in windows:
        factor = lt.ScaledFactor(dist, 1.0)
        ratios = []
        for t in np.geomspace(lo, hi, 5):
            value, _ = lt.convolve_pair_sf(factor, factor, float(t))
            ratios.append(value / dist.sf(float(t)))
        assert all(abs(b - 2.0) < abs(a - 2.0) for a, b in zip(ratios, ratios[1:]))
        assert 1.9 <= ratios[-1] <= 2.1


# -- 10: CLI determinism and round-trip -------------------------------------------------


@criterion(10, "CLI determinism and round-trip")
def test_criterion_10_cli(tmp_path):
    # every shipped config classifies, expands and evaluates end to end
    for name in sorted(os.listdir(CONFIG_DIR)):
        config = os.path.join(CONFIG_DIR, name)
        out = str(tmp_path / name)
        assert main(["classify", "--config", config, "--out", out]) == EXIT_OK
        assert main(["expand", "--config", config, "--out", out]) == EXIT_OK
        assert main(["evaluate", "--config", config, "--out", out]) == EXIT_OK

    # byte-identical comparison artifacts for identical config and seed
    config = os.path.join(CONFIG_DIR, "weibull_oracle_check.json")
    runs = []
    for tag in ("r1", "r2"):
        out = tmp_path / tag
        assert main(["compare", "--config", config, "--out", str(out)]) == EXIT_OK
        runs.append((out / "compare.csv").read_bytes())
    assert runs[0] == runs[1]

    # report JSON re-ingestion reproduces the evaluation tables exactly
    config = os.path.join(CONFIG_DIR, "cancellation_pair.json")
    out = tmp_path / "roundtrip"
    assert main(["evaluate", "--config", config, "--out", str(out)]) == EXIT_OK
    report = out / "report.json"
    assert main(["report", "--config", str(report), "--out", str(out)]) == EXIT_OK
    verdict = json.loads((out / "report_verified.json").read_text())
    assert verdict["roundtrip_ok"] is True
