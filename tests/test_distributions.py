"""Assembled distributions: CDF consistency, moments, quantiles, scaled tails."""

import math
import os
import re

import numpy as np
import pytest
from scipy.integrate import quad

import lighttails as lt
from lighttails.config import build_distribution, load_config
from lighttails.oracle import _CHUNK

from helpers import brentq_quantile, two_branch_symmetric_ppf, weibull_raw_moment


def all_families():
    return [
        lt.weibull_type(0.5),
        lt.weibull_type(0.4),
        lt.weibull_type(0.5, symmetric=True),
        lt.log_weibull(1.5),
        lt.log_weibull(1.5, symmetric=True),
        lt.lognormal_type(0.5),
        lt.lognormal_type(0.5, symmetric=True),
    ]


# -- CDF assembly -------------------------------------------------------------


@pytest.mark.parametrize("dist", all_families(), ids=lambda d: d.name)
def test_cdf_monotone_and_junction_continuous(dist):
    lo = dist.body_left - 2.0 if dist.symmetric else dist.body_left
    grid = np.concatenate([
        np.linspace(lo, dist.upper.t0 + 2.0, 100),
        np.geomspace(dist.upper.t0 + 2.0, 1e5, 40),
    ])
    vals = [dist.cdf(x) for x in grid]
    assert all(0.0 <= v <= 1.0 for v in vals)
    assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))
    # junction continuity at the tail anchors
    t0 = dist.upper.t0
    assert dist.cdf(t0 - 1e-9) == pytest.approx(dist.cdf(t0 + 1e-9), abs=1e-8)
    assert abs(dist.body_cdf(t0) - (1.0 - dist.upper.sbar_t0)) <= 1e-12
    if dist.symmetric:
        bl = dist.body_left
        assert dist.cdf(bl - 1e-9) == pytest.approx(dist.cdf(bl + 1e-9), abs=1e-8)
    assert dist.cdf(grid[-1]) > 1.0 - 1e-10  # total mass


@pytest.mark.parametrize("dist", all_families(), ids=lambda d: d.name)
def test_sf_complements_cdf(dist):
    for x in (-20.0, -1.5, 0.0, 1.2, dist.upper.t0 + 0.5, 30.0):
        assert dist.sf(x) + dist.cdf(x) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("dist", all_families(), ids=lambda d: d.name)
def test_ppf_round_trip(dist):
    ps = np.array([1e-6, 0.01, 0.2, 0.5, 0.8, 0.99, 1 - 1e-9])
    xs = np.asarray(dist.ppf(ps), dtype=float)
    assert all(b >= a for a, b in zip(xs, xs[1:]))
    for p, x in zip(ps, xs):
        assert dist.cdf(float(x)) == pytest.approx(p, abs=1e-9)


def closed_form_reference(name, t0):
    """A built-in family's one-sided closed forms, each written out in the
    arithmetic the family evaluates it with: survival and density in math,
    hazard, cumulated hazard and quantile in numpy.  Returns (support_left,
    sf, pdf, hazard, cum_hazard, psi_inv, symmetric); psi_inv maps
    -log(1 - p) to the quantile."""
    family, value, mirrored = re.fullmatch(r"(\w+)\(\w+=([\d.]+)\)(_symmetric)?",
                                           name).groups()
    a = float(value)
    if family == "weibull_type":
        forms = (0.0,
                 lambda x: math.exp(-(x ** a)) if x > 0 else 1.0,
                 lambda x: a * x ** (a - 1.0) * math.exp(-(x ** a)) if x > 0 else 0.0,
                 lambda t: a * t ** (a - 1.0),
                 lambda t: t**a - t0**a,
                 lambda y: y ** (1.0 / a))
    elif family == "log_weibull":
        forms = (1.0,
                 lambda x: math.exp(-(math.log(x) ** a)) if x > 1.0 else 1.0,
                 lambda x: (a * math.log(x) ** (a - 1.0) / x
                            * math.exp(-(math.log(x) ** a))) if x > 1.0 else 0.0,
                 lambda t: a * t ** -1.0 * np.log(t) ** (a - 1.0),
                 lambda t: np.log(t) ** a - math.log(t0) ** a,
                 lambda y: np.exp(y ** (1.0 / a)))
    else:
        assert family == "lognormal_type"
        forms = (1.0,
                 lambda x: math.exp(-a * math.log(x) ** 2) if x > 1.0 else 1.0,
                 lambda x: (2.0 * a * math.log(x) / x
                            * math.exp(-a * math.log(x) ** 2)) if x > 1.0 else 0.0,
                 lambda t: 2.0 * a * t ** -1.0 * np.log(t) ** 1.0,
                 lambda t: a * (np.log(t) ** 2 - math.log(t0) ** 2),
                 lambda y: np.exp(np.sqrt(y / a)))
    return forms + (mirrored is not None,)


@pytest.mark.parametrize("dist", all_families(), ids=lambda d: d.name)
def test_closed_forms_bit_for_bit(dist):
    # exact equality: the shipped configs cover only some of these families,
    # so the artifact hashes alone would not see a last-bit change in the rest
    t0 = dist.upper.t0
    left, sf, pdf, hazard, cum, psi_inv, mirrored = closed_form_reference(dist.name, t0)
    sbar = 0.5 * sf(t0) if mirrored else sf(t0)

    def tail_sf(s):
        return math.exp(math.log(sbar) - cum(s))

    def tail_pdf(s):
        return float(hazard(np.asarray(s, dtype=float))) * tail_sf(s)

    def cdf(x):
        if x >= t0:
            return 1.0 - tail_sf(x)
        if mirrored:
            if x <= -t0:
                return tail_sf(-x)
            base_cdf = 1.0 - sf(abs(x))
            return 1.0 - 0.5 * (1.0 - base_cdf) if x >= 0 else 0.5 * (1.0 - base_cdf)
        return 1.0 - sf(x) if x > left else 0.0

    def expected_pdf(x):
        if x >= t0:
            return tail_pdf(x)
        if mirrored:
            return tail_pdf(-x) if x <= -t0 else 0.5 * pdf(abs(x))
        return pdf(x) if x > left else 0.0

    points = [left - 0.5, left + 0.25, 0.5 * (left + t0), t0 - 1e-3, t0,
              7.5, 60.0, 900.0, 1e4]
    if mirrored:
        points += [0.0] + [-x for x in points]
    for x in points:
        assert dist.cdf(x) == cdf(x), x
        assert dist.sf(x) == (tail_sf(x) if x >= t0 else 1.0 - cdf(x)), x
        assert dist.logsf(x) == (math.log(sbar) - cum(x) if x >= t0
                                 else math.log1p(-cdf(x))), x
        assert dist.pdf(x) == expected_pdf(x), x

    def base_ppf(p):
        out = psi_inv(-np.log1p(-np.asarray(p, dtype=float)))
        return float(out) if out.ndim == 0 else out

    def ppf(p):
        if not mirrored:
            return base_ppf(p)
        p = np.asarray(p, dtype=float)
        top = np.nextafter(1.0, 0.0)
        out = np.where(p >= 0.5, base_ppf(np.clip(1.0 - 2.0 * (1.0 - p), 0.0, top)),
                       -base_ppf(np.clip(1.0 - 2.0 * p, 0.0, top)))
        return float(out) if out.ndim == 0 else out

    ps = np.array([1e-9, 0.01, 0.3, 0.5, 0.7, 0.99, 1.0 - 1e-12])
    for p in ps:
        assert dist.ppf(float(p)) == ppf(float(p)), p
    np.testing.assert_array_equal(dist.ppf(ps), ppf(ps))
    ts = np.geomspace(t0, 1e6, 17)
    np.testing.assert_array_equal(dist.upper.cum_hazard(ts), cum(ts))


def test_pdf_integrates_to_cdf():
    for dist in (lt.weibull_type(0.5), lt.weibull_type(0.5, symmetric=True),
                 lt.lognormal_type(0.5)):
        lo = -8.0 if dist.symmetric else dist.body_left
        for hi in (1.9, 5.0, 12.0):
            val, _ = quad(dist.pdf, lo, hi, points=[p for p in dist.quad_breaks
                                                    if lo < p < hi],
                          epsabs=1e-12, epsrel=1e-10, limit=300)
            assert val == pytest.approx(dist.cdf(hi) - dist.cdf(lo), abs=1e-9)


# -- moments -------------------------------------------------------------------


def test_moments_against_gamma_closed_form():
    d = lt.weibull_type(0.5)
    for k in range(1, 7):
        assert d.moment(k) == pytest.approx(weibull_raw_moment(0.5, k), rel=1e-10)
    s = lt.weibull_type(0.5, symmetric=True)
    for k in (2, 4, 6):
        assert s.moment(k) == pytest.approx(
            weibull_raw_moment(0.5, k, symmetric=True), rel=1e-10)
    for k in (1, 3, 5):
        assert s.moment(k) == 0.0


def test_moments_against_density_quadrature():
    # independent route: integrate x^k against the density
    for dist in (lt.log_weibull(1.5), lt.lognormal_type(0.5)):
        for k in (1, 2, 3):
            direct = quad(lambda x: x**k * dist.pdf(x), dist.body_left, np.inf,
                          epsabs=1e-13, epsrel=1e-11, limit=300)[0]
            assert dist.moment(k) == pytest.approx(direct, rel=1e-9)


def test_moments_of_one_sided_law_with_body_below_zero():
    # a one-sided law whose linear body starts below 0: the negative half-axis
    # holds body mass only, which the survival decomposition integrates apart
    laws = (lt.custom_hazard([(0.5, -0.5, 0.0)], t0=2.0, sbar_t0=0.4, rv_index=-0.5,
                             body_left=-1.0),
            lt.log_power_mixture([(1.0, 1.0, [(1.0, 1.5)]), (-1.0, 2.0, [(1.0, 1.5)])],
                                 t0=2.0, body_left=-0.5))
    for dist in laws:
        assert dist.support_left < 0.0 and not dist.symmetric
        for k in (1, 2, 3):
            f = lambda x: x**k * dist.pdf(x)
            body = quad(f, dist.body_left, dist.upper.t0, points=[0.0],
                        epsabs=0.0, epsrel=1e-13)[0]
            tail = quad(f, dist.upper.t0, np.inf, epsabs=0.0, epsrel=1e-13, limit=400)[0]
            assert dist.moment(k) == pytest.approx(body + tail, rel=1e-12)


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
def test_moment_quadrature_out_of_tolerance_raises():
    # quad's estimate for the x^3 S(x) integral of weibull_type(0.25) is about
    # as large as the moment (true error 2.6e-3): that must not pass silently
    with pytest.raises(lt.QuadratureToleranceError) as exc:
        lt.weibull_type(0.25).moment(4)
    assert exc.value.achieved > exc.value.requested == 1e-8
    assert lt.oracle.QuadratureToleranceError is lt.QuadratureToleranceError
    # the orders below stay within tolerance, at their Gamma closed form
    d = lt.weibull_type(0.25)
    for k in (1, 2, 3):
        assert d.moment(k) == pytest.approx(math.gamma(1 + k / 0.25), rel=1e-12)


def test_moment_cache_idempotent():
    d = lt.weibull_type(0.5)
    v1 = d.moment(3)
    v2 = d.moment(3)
    assert v1 is v2 or v1 == v2
    assert 3 in d._moment_cache


# -- scaled tails ----------------------------------------------------------------


def test_scaled_sf_positive_scale():
    d = lt.weibull_type(0.5)
    assert lt.ScaledFactor(d, 0.5).sf(50.0) == pytest.approx(math.exp(-10.0), rel=1e-13)
    assert lt.ScaledFactor(d, 1.0).sf(100.0) == d.sf(100.0)


def _deriv(factor, k, t):
    sign, logabs = factor.tail_derivs_signed_log(k, t)[k]
    return sign * math.exp(logabs)


def test_scaled_sf_negative_scale_mirrors_symmetric():
    s = lt.weibull_type(0.5, symmetric=True)
    neg, pos = lt.ScaledFactor(s, -1.0), lt.ScaledFactor(s, 1.0)
    for t in (5.0, 20.0, 80.0):
        assert neg.sf(t) == pytest.approx(s.sf(t), rel=1e-13)
        assert neg.log_tail_sf(t) == pos.log_tail_sf(t)
        for k in (0, 1, 2, 3):
            assert _deriv(neg, k, t) == pytest.approx(_deriv(pos, k, t), rel=1e-12)


def test_scaled_sf_deriv_scaling_rule():
    # D^k of t -> S(t/c) pulls out c^-k
    d = lt.weibull_type(0.5)
    c, t = 0.5, 60.0
    for k in (0, 1, 2, 3):
        assert _deriv(lt.ScaledFactor(d, c), k, t) == pytest.approx(
            d.upper.survival_derivative(k, t / c) / c**k, rel=1e-12)


def test_scaled_sf_negative_derivative_sign():
    # P(cX > t) is nonincreasing in t for either sign of c
    s = lt.weibull_type(0.5, symmetric=True)
    for c in (1.0, -1.0, -0.5):
        assert lt.ScaledFactor(s, c).tail_derivs_signed_log(1, 40.0)[1][0] < 0.0


def test_scale_errors():
    # a zero scale is refused once, when the factor is built; a negative scale
    # on a one-sided law has a full-range survival F(x/c) but no tail model
    d = lt.weibull_type(0.5)
    with pytest.raises(lt.DegenerateWeightError):
        lt.ScaledFactor(d, 0.0)
    neg = lt.ScaledFactor(d, -1.0)
    assert neg.sf(10.0) == 0.0 and neg.sf(-10.0) == d.cdf(10.0)
    for tail_read in (neg.log_tail_sf, lambda t: neg.tail_derivs_signed_log(1, t),
                      neg.tail_components):
        with pytest.raises(lt.UnsupportedSignError):
            tail_read(10.0)


def test_batch_paths_match_scalar():
    for dist in (lt.weibull_type(0.4), lt.weibull_type(0.5, symmetric=True),
                 lt.log_weibull(1.5)):
        xs = np.array([-30.0, -2.0, 0.5, 1.5, 3.0, 50.0, 400.0])
        np.testing.assert_allclose(dist.sf_batch(xs),
                                   [dist.sf(x) for x in xs], rtol=1e-13)
        np.testing.assert_allclose(dist.cdf_batch(xs),
                                   [dist.cdf(x) for x in xs], rtol=1e-13)


def test_all_tail_batch_matches_masked_path():
    # with every point in the tail the batch skips the gather; the bits stay
    d = lt.weibull_type(0.5, symmetric=True)
    xs = np.geomspace(d.upper.t0, 1e4, 50)
    assert np.array_equal(d.sf_batch(xs), d.sf_batch(np.append(xs, 0.5))[:-1])
    assert np.array_equal(d.cdf_batch(-xs), d.cdf_batch(np.append(-xs, 0.5))[:-1])


# -- custom constructors -----------------------------------------------------------


def test_custom_hazard_matches_closed_form():
    # h(t) = 0.5 t^-0.5 reproduces the stretched-exponential tail shape
    cu = lt.custom_hazard([(0.5, -0.5, 0.0)], t0=2.0, sbar_t0=0.4, rv_index=-0.5)
    ref = lt.weibull_type(0.5)
    for t in (5.0, 50.0, 500.0):
        ratio = cu.upper.survival(t) / cu.upper.survival(5.0)
        ref_ratio = ref.upper.survival(t) / ref.upper.survival(5.0)
        assert ratio == pytest.approx(ref_ratio, rel=1e-10)


def test_custom_hazard_quantile_and_junction():
    cu = lt.custom_hazard([(0.5, -0.5, 0.0)], t0=2.0, sbar_t0=0.4, rv_index=-0.5)
    for p in (0.1, 0.59, 0.61, 0.9, 0.999):
        assert cu.cdf(float(cu.ppf(p))) == pytest.approx(p, abs=1e-9)


def test_mixture_components_and_validity():
    e1 = lambda t: math.exp(-math.log(t) ** 1.5)
    mix = lt.log_power_mixture(
        [(1.0, 1.0, [(1.0, 1.5)]), (-1.0, 2.0, [(1.0, 1.5)])], t0=2.0)
    for t in (3.0, 30.0, 3000.0):
        assert mix.sf(t) == pytest.approx(e1(t) - e1(2 * t), rel=1e-13)
        comps = lt.ScaledFactor(mix, 1.0).tail_components(t)
        assert comps[0] == pytest.approx(e1(t), rel=1e-13)
        assert comps[1] == pytest.approx(-e1(2 * t), rel=1e-13)
    # scaled components evaluate at t / c
    comps = lt.ScaledFactor(mix, 0.5).tail_components(10.0)
    assert comps[0] == pytest.approx(e1(20.0), rel=1e-13)


def test_mixture_rejects_invalid_tail():
    # dominant negative piece: survival goes negative
    with pytest.raises(ValueError):
        lt.log_power_mixture([(1.0, 1.0, [(1.0, 1.5)]),
                              (-2.0, 1.0, [(1.0, 1.4)])], t0=2.0)


# -- quantiles and survival without closed forms -----------------------------------


def shipped(name):
    return build_distribution(load_config(
        os.path.join(os.path.dirname(__file__), "..", "configs", name + ".json")))


def root_find_families():
    return [
        shipped("cancellation_pair"),
        shipped("logweibull_second_order"),
        lt.custom_hazard([(0.5, -0.5, 0.0), (1.0, -1.0, 0.5)], t0=2.0, sbar_t0=0.4,
                         rv_index=-0.5, name="custom_closed_form"),
    ]


ROOT_FIND_IDS = ["cancellation_pair", "logweibull_second_order", "custom_closed_form"]
# a p within 1e-15 of 1 included: its quantile sits deepest in the tail
TAIL_PS = np.concatenate([np.linspace(0.01, 0.99, 99),
                          1.0 - np.geomspace(1e-3, 1e-15, 25),
                          [np.nextafter(1.0, 0.0)]])


@pytest.mark.parametrize("dist", root_find_families(), ids=ROOT_FIND_IDS)
def test_root_find_quantiles_match_brentq(dist):
    np.testing.assert_allclose(dist.ppf(TAIL_PS),
                               [brentq_quantile(dist, p) for p in TAIL_PS], rtol=1e-12)


@pytest.mark.parametrize("dist", root_find_families(), ids=ROOT_FIND_IDS)
def test_root_find_quantile_at_body_mass(dist):
    body_mass = 1.0 - dist.upper.sbar_t0
    ps = np.array([np.nextafter(body_mass, 0.0), body_mass, np.nextafter(body_mass, 1.0)])
    got = dist.ppf(ps)
    np.testing.assert_allclose(got, [brentq_quantile(dist, p) for p in ps], rtol=1e-12)
    assert got[0] < dist.upper.t0 and got[2] >= got[1]
    assert got[1] == pytest.approx(dist.upper.t0, rel=1e-15)


@pytest.mark.parametrize("dist", root_find_families(), ids=ROOT_FIND_IDS)
def test_root_find_quantiles_monotone(dist):
    ps = np.sort(np.concatenate([np.linspace(1e-6, 1.0 - 1e-6, 4001),
                                 1.0 - np.geomspace(1e-6, 1e-16, 200)]))
    assert np.all(np.diff(dist.ppf(ps)) >= 0.0)


@pytest.mark.parametrize("dist", root_find_families(), ids=ROOT_FIND_IDS)
def test_root_find_quantile_domain(dist):
    for p in (0.0, 1.0, -0.2, 1.5, math.nan):
        with pytest.raises(ValueError):
            dist.ppf(p)
    with pytest.raises(ValueError):
        dist.ppf(np.array([0.5, 1.0]))
    with pytest.raises(ValueError):
        dist.ppf(np.array([[0.0, 0.5]]))


@pytest.mark.parametrize("dist", root_find_families(), ids=ROOT_FIND_IDS)
def test_root_find_quantile_partition_independent(dist):
    # the (seed, variable, block) stream contract: a draw may not depend on
    # which other draws share its array
    u = np.concatenate([np.random.default_rng(3).random(400), TAIL_PS])
    whole = dist.ppf(u)
    assert [dist.ppf(u[k:k + 1])[0] for k in range(u.size)] == whole.tolist()
    assert [dist.ppf(float(v)) for v in u[:50]] == whole[:50].tolist()
    assert dist.ppf(u[:500].reshape(-1, 4)).ravel().tolist() == whole[:500].tolist()


@pytest.mark.parametrize("dist", all_families() + root_find_families(),
                         ids=lambda d: d.name)
def test_ppf_chunk_independent(dist):
    # the Monte Carlo kernels map each block of uniforms in chunks of _CHUNK
    u = np.random.default_rng(11).random(3 * _CHUNK + 100)
    chunked = np.concatenate([dist.ppf(u[lo:lo + _CHUNK]) for lo in range(0, u.size, _CHUNK)])
    assert np.array_equal(chunked, dist.ppf(u))


SYMMETRIC_EDGES = [0.0, 5e-324, 2.0**-60, 1e-5, np.nextafter(0.5, 0.0), 0.5,
                   np.nextafter(0.5, 1.0), 1.0 - 1e-5, 1.0 - 2.0**-53]


@pytest.mark.parametrize("family,param", [(lt.weibull_type, 0.5), (lt.weibull_type, 0.4),
                                          (lt.log_weibull, 1.5), (lt.lognormal_type, 0.5)])
def test_symmetric_quantile_keeps_its_bits(family, param):
    # one base quantile at |2p - 1| with the sign of 2p - 1, against the
    # two-branch formula; int64 views so that the sign of a zero counts
    dist, one_sided = family(param, symmetric=True), family(param)
    u = np.concatenate([np.random.default_rng(5).random(10**6), SYMMETRIC_EDGES])
    got, want = dist.ppf(u), two_branch_symmetric_ppf(one_sided, u)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    for p in SYMMETRIC_EDGES:
        got = dist.ppf(float(p))
        assert type(got) is float
        assert got.hex() == two_branch_symmetric_ppf(one_sided, float(p)).hex()


@pytest.mark.parametrize("name", ["cancellation_pair", "logweibull_second_order"])
def test_mixture_sf_batch_matches_scalar(name):
    dist = shipped(name)
    xs = np.concatenate([[0.5, 1.0, 1.999, 2.0], np.geomspace(2.0, 1e6, 200)])
    np.testing.assert_allclose(dist.sf_batch(xs), [dist.sf(x) for x in xs], rtol=1e-14)


def test_mixture_array_survival_rejects_nonpositive():
    # valid on the checked grid [2, 20]; the negative piece dominates past t ~ 36
    mix = lt.log_power_mixture([(1.0, 1.0, [(1.0, 1.5)]), (-0.5, 1.0, [(1.0, 1.4)])],
                               t0=2.0, check_grid_decades=1.0)
    assert mix.sf_batch(np.array([3.0, 10.0])).min() > 0.0
    with pytest.raises(ValueError, match="nonpositive"):
        mix.upper.cum_hazard(np.array([10.0, 100.0]))
    with pytest.raises(ValueError, match="nonpositive"):
        mix.sf_batch(np.array([10.0, 100.0]))


def test_custom_hazard_quadrature_term_samples():
    # t^-0.5 log t has no closed-form antiderivative here: the cumulated
    # hazard integrates it by quad, one element at a time
    cu = lt.custom_hazard([(1.0, -0.5, 1.0)], t0=2.0, sbar_t0=0.4, rv_index=-0.5)
    ps = np.array([0.1, 0.6, 0.61, 0.9, 0.999, 1.0 - 1e-12])
    np.testing.assert_allclose(cu.ppf(ps), [brentq_quantile(cu, p) for p in ps], rtol=1e-12)
    xs = np.array([1.0, 3.0, 30.0, 300.0])
    np.testing.assert_allclose(cu.sf_batch(xs), [cu.sf(x) for x in xs], rtol=1e-13)


def test_symmetric_requires_mirrored_junction():
    # the body meets the upper tail at t0 but leaves mass 0, not S(t0), below
    # its left end -t0, where the mirrored tail takes over
    up = lt.weibull_type(0.5).upper
    body_cdf = lambda x: 0.0 if x <= -up.t0 else 1 - up.sbar_t0
    kw = dict(upper=up, body_cdf=body_cdf, body_pdf=lambda x: 0.0,
              ppf=lambda p: p, body_left=-up.t0)
    lt.TailDistribution(**kw)
    with pytest.raises(ValueError, match="lower-tail junction"):
        lt.TailDistribution(**kw, symmetric=True)
