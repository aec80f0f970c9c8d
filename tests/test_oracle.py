"""Monte Carlo and quadrature oracles: unbiasedness, determinism, ConvTM checks."""

import dataclasses
import math
import os
import time
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import dblquad, quad

import lighttails as lt
from lighttails.config import build_distribution, build_weights, load_config
from lighttails import oracle
from lighttails.oracle import _residual_maxima

import pins
from helpers import brentq_quantile


@pytest.fixture(scope="module")
def weibull04():
    return lt.weibull_type(0.4)


@pytest.fixture(scope="module")
def pair_seq():
    return lt.WeightSequence([1.0, 0.5])


def _shipped(name):
    doc = load_config(os.path.join(os.path.dirname(__file__), "..", "configs", name))
    dist = build_distribution(doc)
    return dist, build_weights(doc, dist)


# -- conditional Monte Carlo ---------------------------------------------------


def test_single_weight_estimator_is_constant(weibull04):
    def ppf(u):
        raise AssertionError("one variable is integrated out: nothing to draw")

    seq = lt.WeightSequence([1.0])
    est = lt.conditional_mc(dataclasses.replace(weibull04, ppf=ppf), seq, 50.0,
                            (1 << 18) + 1000, seed=1)
    assert est.p_hat == pytest.approx(weibull04.sf(50.0), rel=1e-14)
    assert est.std_err == 0.0
    assert est.truncation_bias_bound == 0.0
    assert est.n_samples == (1 << 18) + 1000


def _residual_maxima_by_row(m):
    """_residual_maxima's tiles put back together: M'_i per row i, checking
    that each tile visits every row once, in index order."""
    got = np.full(m.shape, np.nan)
    order = []
    for cols, i, resid_max in _residual_maxima(m):
        got[i, cols] = resid_max
        order.append(i)
    assert order == list(range(len(m))) * (len(order) // len(m))
    return got


@pytest.mark.parametrize("rows", [2, 3, 31])
def test_residual_maxima_match_brute_force(rows):
    rng = np.random.default_rng(rows)
    ties = rng.integers(-3, 4, size=(rows, 300)).astype(float)
    spread = rng.standard_normal((rows, 300))
    dup_max = np.linspace(-1.0, 1.0, rows)
    dup_max[0] = dup_max[-1] = 7.0
    zeros = np.full(rows, -2.0)
    zeros[:2] = (-0.0, 0.0)
    special = np.column_stack([np.full(rows, 1.5), dup_max, -np.arange(1.0, rows + 1.0),
                               zeros, zeros[::-1]])
    # wider than a tile, and not a whole number of tiles
    tile = max(1, 16 * oracle._CHUNK // rows)
    wide = rng.integers(-3, 4, size=(rows, 2 * tile + 17)).astype(float)
    for m in (ties, -ties, spread, special, wide):
        want = np.stack([np.max(np.delete(m, i, axis=0), axis=0) for i in range(rows)])
        # equality as floats compare: no survival tells -0.0 from 0.0
        np.testing.assert_array_equal(_residual_maxima_by_row(m), want)
    got = _residual_maxima_by_row(special)
    # a repeated maximum is every row's residual maximum
    assert (got[:, 1] == 7.0).all() and (got[:, 0] == 1.5).all()


# seeded (p_hat, std_err) at n draws: an edit to the sampling or to a kernel
# that moves one bit of an estimate fails here, without a manifest run
SEEDED_CASES = [
    ("one", 1000),
    ("pair", 20000),
    ("triple", 20000),
    ("symmetric_moments", 20000),
    ("negative_pair", 20000),
    ("two_blocks", (1 << 18) + 1000),
    ("mixture", 2000),
    ("plain_pair", 20000),
    ("plain_two_blocks", (1 << 18) + 1000),
    # 31 rows across a block edge: each row's stream runs on through a
    # block's chunks and restarts, keyed anew, at the next block
    ("symmetric_moments_two_blocks", (1 << 18) + 1000),
    ("plain_symmetric_moments_two_blocks", (1 << 18) + 1000),
    # deeper in the tail, where most rows' scaled survival is exactly +0.0
    # over whole tiles, and 219 rows of a slowly decaying sum
    ("symmetric_moments_t300", 20000),
    ("symmetric_moments_ratio0.9", 20000),
]
CONDITIONAL_CASES = [case for case in SEEDED_CASES if not case[0].startswith("plain")]


def _seeded_case(case, weibull04, pair_seq):
    """(estimator, law, weights, t, seed, eps_trunc, truncation rows) of a case."""
    symmetric = lt.weibull_type(0.5, symmetric=True)
    moments = _shipped("symmetric_moments.json")
    return {
        "one": (lt.conditional_mc, weibull04, lt.WeightSequence([1.0]), 50.0, 1, 1e-9, 1),
        "pair": (lt.conditional_mc, weibull04, pair_seq, 150.0, 7, 1e-9, 2),
        "triple": (lt.conditional_mc, weibull04, lt.WeightSequence([1.0, 0.5, 0.25]),
                   150.0, 7, 1e-9, 3),
        "symmetric_moments": (lt.conditional_mc, *moments, 30.25, 9, 1e-9, 31),
        "symmetric_moments_t300": (lt.conditional_mc, *moments, 300.0, 9, 1e-9, 31),
        "symmetric_moments_ratio0.9": (lt.conditional_mc, moments[0],
                                       lt.WeightSequence([1.0], ratio=0.9),
                                       300.0, 9, 1e-9, 219),
        "negative_pair": (lt.conditional_mc, symmetric,
                          lt.WeightSequence([1.0, -0.5]),
                          70.0, 3, 1e-9, 2),
        "two_blocks": (lt.conditional_mc, weibull04, pair_seq, 125.3, 5, 1e-9, 2),
        "mixture": (lt.conditional_mc, *_shipped("cancellation_pair.json"),
                    100.0, 9, 1e-4, 2),
        "plain_pair": (lt.plain_mc, weibull04, pair_seq, 125.3, 5, 1e-9, 2),
        "plain_two_blocks": (lt.plain_mc, weibull04, pair_seq, 125.3, 5, 1e-9, 2),
        "symmetric_moments_two_blocks": (lt.conditional_mc, *moments, 30.25, 9, 1e-9, 31),
        "plain_symmetric_moments_two_blocks": (lt.plain_mc, *moments, 30.25, 9, 1e-9, 31),
    }[case]


def _check_seeded_bits(weibull04, pair_seq, case, n):
    estimator, dist, seq, t, seed, eps, rows = _seeded_case(case, weibull04, pair_seq)
    est = estimator(dist, seq, t, n, seed=seed, eps_trunc=eps)
    assert est.truncation_n == rows and est.n_samples == n
    pins.check(f"oracle/seeded/{case}", [est.p_hat, est.std_err])


@pytest.mark.parametrize("case,n", SEEDED_CASES, ids=[case[0] for case in SEEDED_CASES])
def test_seeded_estimates_keep_their_bits(weibull04, pair_seq, case, n):
    _check_seeded_bits(weibull04, pair_seq, case, n)


@pytest.mark.parametrize("case,n", CONDITIONAL_CASES,
                         ids=[case[0] for case in CONDITIONAL_CASES])
def test_zero_points_move_no_bits(weibull04, pair_seq, monkeypatch, case, n):
    # with no zero point the kernel reads every row-tile: a skipped read adds
    # +0.0, so the zero points are not part of the randomness contract
    monkeypatch.setattr(lt.ScaledFactor, "zero_point", math.inf)
    assert lt.ScaledFactor(lt.weibull_type(0.5), 1.0).zero_point == math.inf
    _check_seeded_bits(weibull04, pair_seq, case, n)


def _row_tile_reads(estimate):
    """(the scale of each survival read, row-tiles, result) of the
    conditional kernel over estimate()."""
    scales, counts = [], [0]
    sf_batch, residual_maxima = lt.ScaledFactor.sf_batch, oracle._residual_maxima

    def counted_sf_batch(self, x):
        scales.append(self.c)
        return sf_batch(self, x)

    def counted_maxima(summands):
        for row_tile in residual_maxima(summands):
            counts[0] += 1
            yield row_tile

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lt.ScaledFactor, "sf_batch", counted_sf_batch)
        patch.setattr(oracle, "_residual_maxima", counted_maxima)
        result = estimate()
    return scales, counts[0], result


@pytest.mark.parametrize("case,share", [("symmetric_moments_t300", 0.5), ("pair", 1.0),
                                        ("triple", 1.0), ("negative_pair", 1.0)])
def test_zero_points_skip_where_they_should(weibull04, pair_seq, case, share):
    # deep in the tail most of symmetric_moments' 31 rows are past their zero
    # point on whole tiles (60 of 155 row-tiles are read); the top rows of a
    # short sum never are
    estimator, dist, seq, t, seed, eps, _ = _seeded_case(case, weibull04, pair_seq)
    scales, row_tiles, _ = _row_tile_reads(lambda: estimator(
        dist, seq, t, 20000, seed=seed, eps_trunc=eps))
    reads = len(scales)
    if share < 1.0:
        assert 0 < reads <= share * row_tiles
    else:
        assert reads == row_tiles


def test_zero_points_read_a_tile_with_one_live_column():
    # two rows, c = (1, 0.5), zero points (640000, 320000), at t = 400000:
    # only row 1 may skip.  Its argument max(x_0, t - x_0) is x_0 = 1e7 in
    # every column but one, where x_0 = 200000 puts it below the zero point
    law = lt.weibull_type(0.5, symmetric=True)
    seq = lt.WeightSequence([1.0, 0.5])
    assert [lt.ScaledFactor(law, c).zero_point for c in (1.0, 0.5)] == [640000.0, 320000.0]

    def run(live):
        def ppf(u):
            x = np.full(np.shape(u), 1e7)
            x[0, 3] = live
            return x

        scales, row_tiles, est = _row_tile_reads(lambda: lt.conditional_mc(
            dataclasses.replace(law, ppf=ppf), seq, 400000.0, 8, seed=1))
        return len(scales), row_tiles, est.p_hat

    # P(X > 2 * 200000) = exp(-632) / 2 reaches the sample mean
    assert run(200000.0) == (2, 2, pytest.approx(0.5 * math.exp(-math.sqrt(4e5)) / 8,
                                                 rel=1e-12))
    # with that column past the zero point too, row 1 skips its one tile
    assert run(1e7) == (1, 2, 0.0)


@pytest.mark.parametrize("case", ["triple", "symmetric_moments", "negative_pair", "mixture"])
def test_chunk_size_moves_no_bits(weibull04, pair_seq, monkeypatch, case):
    # chunks split a block's columns only: the chunk size is not part of the
    # randomness contract
    _, dist, seq, t, seed, eps, rows = _seeded_case(case, weibull04, pair_seq)

    def bits():
        return [(est.p_hat.hex(), est.std_err.hex())
                for est in (estimator(dist, seq, t, 20000, seed=seed, eps_trunc=eps)
                            for estimator in (lt.conditional_mc, lt.plain_mc))]

    want = bits()
    # a _CHUNK below the row count clamps the quantile's slabs to one column;
    # taken on 31 rows, since the root-finding mixture's 2 rows would make
    # 20000 one-column Newton solves per estimator
    below_rows = (rows - 1,) if case == "symmetric_moments" else ()
    for chunk in (1000, 8191, oracle._BLOCK) + below_rows:
        monkeypatch.setattr(oracle, "_CHUNK", chunk)
        assert bits() == want


def test_one_quantile_call_per_chunk_of_draws():
    # the quantile maps slabs of about _CHUNK draws spanning every row, not
    # one row at a time: a root-finding quantile's cost is mostly per call
    dist, seq = _shipped("logweibull_second_order.json")
    shapes = []

    def ppf(u):
        shapes.append(np.shape(u))
        return dist.ppf(u)

    counted = dataclasses.replace(dist, ppf=ppf)
    for n, calls in ((50, 1), (20000, math.ceil(20000 / (oracle._CHUNK // 31)))):
        shapes.clear()
        assert lt.conditional_mc(counted, seq, 100.0, n, seed=9).truncation_n == 31
        # the truncation bias bound reads two scalar quantiles
        assert shapes.count(()) == 2
        slabs = [shape for shape in shapes if shape]
        assert len(slabs) == calls and all(rows == 31 for rows, _ in slabs)
        assert sum(cols for _, cols in slabs) == n


@pytest.mark.parametrize("estimator,case,n,bound_mb",
                         [(lt.conditional_mc, "pair", 1 << 20, 4.0),
                          (lt.conditional_mc, "triple", 1 << 20, 4.0),
                          (lt.plain_mc, "pair", 1 << 18, 3.5),
                          (lt.conditional_mc, "symmetric_moments", oracle._BLOCK, 6.0),
                          (lt.plain_mc, "symmetric_moments", oracle._BLOCK, 6.0)],
                         ids=["conditional_mc-pair", "conditional_mc-triple",
                              "plain_mc-pair", "conditional_mc-symmetric_moments",
                              "plain_mc-symmetric_moments"])
def test_sampling_memory_stays_bounded(weibull04, pair_seq, estimator, case, n, bound_mb):
    # beyond a block's values (2 MB), one chunk of summands (about _CHUNK
    # draws a row: 2 MB at 31 rows, 128 KiB at 2) and the conditional kernel's
    # store of maxima (under 1 MiB), every temporary spans about _CHUNK draws;
    # the first call warms the caches
    _, dist, seq, t, seed, _, _ = _seeded_case(case, weibull04, pair_seq)
    estimator(dist, seq, t, 1000, seed=seed)
    tracemalloc.start()
    try:
        estimator(dist, seq, t, n, seed=seed)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound_mb * 1e6


def test_conditional_mc_deterministic(weibull04, pair_seq):
    a = lt.conditional_mc(weibull04, pair_seq, 150.0, 50000, seed=7)
    b = lt.conditional_mc(weibull04, pair_seq, 150.0, 50000, seed=7)
    assert a.p_hat == b.p_hat and a.std_err == b.std_err
    c = lt.conditional_mc(weibull04, pair_seq, 150.0, 50000, seed=8)
    assert c.p_hat != a.p_hat


def test_conditional_mc_matches_quadrature(weibull04, pair_seq):
    for t in (125.3, 300.0):
        q = lt.quadrature_estimate(weibull04, pair_seq, t)
        mc = lt.conditional_mc(weibull04, pair_seq, t, 200_000, seed=9)
        assert abs(mc.p_hat - q.p_hat) <= 3.0 * mc.std_err


# eight points (law, weights, t), tail levels 1e-2 .. 1e-14, each read at its own
# seeds: a seed shared across points would tie their z-scores together
CALIBRATION_POINTS = [
    *((lt.weibull_type(0.4), (1.0, 0.5), t) for t in (50.0, 200.0, 700.0)),
    *((lt.lognormal_type(0.5), (1.0, 0.5), t) for t in (30.0, 300.0, 3000.0)),
    *((lt.weibull_type(0.4, symmetric=True), (1.0, -0.5), t) for t in (200.0, 700.0)),
]
CALIBRATION_SEEDS = 200


@pytest.mark.parametrize("point", range(len(CALIBRATION_POINTS)))
def test_conditional_mc_std_err_is_calibrated(point):
    # z = (p_hat - p) / std_err over 200 seeds at n = 20000, against pair
    # quadrature.  A calibrated std_err puts the SD of z within 3 sigma of 1,
    # sigma = 1 / sqrt(2 (N - 1)) for N normal draws.  The mean is read in units
    # of the pooled std_err (its RMS over the seeds): the mean of z itself is
    # pulled below 0 by the correlation of p_hat with its own std_err (skewed
    # kernel values; -0.20 +- 0.03 over 1000 seeds at weibull t = 700), the
    # studentized ratio's finite-n bias, which says nothing about either one.
    # That mean is within 3 sigma of 0, sigma = 1 / sqrt(N).
    dist, weights, t = CALIBRATION_POINTS[point]
    seq = lt.WeightSequence(weights)
    p, quad_err = lt.convolve_pair_sf(*(lt.ScaledFactor(dist, w) for w in weights), t)
    first = 1000 + CALIBRATION_SEEDS * point
    ests = [lt.conditional_mc(dist, seq, t, 20_000, seed=seed)
            for seed in range(first, first + CALIBRATION_SEEDS)]
    p_hat = np.array([e.p_hat for e in ests])
    std_err = np.array([e.std_err for e in ests])
    # the reference's error cannot move a z-score in its third decimal
    assert quad_err < 1e-3 * std_err.min()
    z = (p_hat - p) / std_err
    assert abs(np.std(z, ddof=1) - 1.0) <= 3.0 / math.sqrt(2 * (CALIBRATION_SEEDS - 1))
    pooled = math.sqrt(np.mean(std_err ** 2))
    assert abs(np.mean(p_hat - p)) / pooled <= 3.0 / math.sqrt(CALIBRATION_SEEDS)


def test_conditional_vs_plain_agreement_and_variance(weibull04, pair_seq):
    t = 125.3  # tail level ~1e-3: plain indicator MC can still see it
    plain = lt.plain_mc(weibull04, pair_seq, t, 400_000, seed=5)
    cond = lt.conditional_mc(weibull04, pair_seq, t, 400_000, seed=5)
    joint = math.hypot(plain.std_err, cond.std_err)
    assert abs(plain.p_hat - cond.p_hat) <= 3.0 * joint
    assert cond.std_err < plain.std_err


# tail levels around 1e-2 .. 2e-3, where the indicator estimator's variance is
# still measurable, one point per shipped configuration
SHIPPED_VARIANCE_POINTS = [
    ("cancellation_pair.json", 10.0),
    ("lognormal_gate_above.json", 27.5),
    ("lognormal_gate_below.json", 27.5),
    ("lognormal_gate_boundary.json", 27.5),
    ("logweibull_second_order.json", 10.0),
    ("multiplicity_pair.json", 125.3),
    ("symmetric_moments.json", 30.25),
    ("weibull_oracle_check.json", 74.8),
    ("weibull_third_order.json", 74.8),
]


@pytest.mark.parametrize("name,t", SHIPPED_VARIANCE_POINTS)
def test_conditional_beats_plain_on_shipped_configs(name, t):
    dist, seq = _shipped(name)
    n = 8000 if "pair" in name or "logweibull" in name else 40000
    # both estimators share the truncated model, so a coarse truncation keeps
    # the variance comparison fair while sparing the root-finding quantiles
    plain = lt.plain_mc(dist, seq, t, n, seed=5, eps_trunc=1e-4)
    cond = lt.conditional_mc(dist, seq, t, n, seed=5, eps_trunc=1e-4)
    assert plain.std_err > 0.0
    assert cond.std_err < plain.std_err
    joint = math.hypot(plain.std_err, cond.std_err)
    assert abs(plain.p_hat - cond.p_hat) <= 4.0 * joint


@pytest.mark.parametrize("name", ["cancellation_pair.json", "logweibull_second_order.json"])
def test_mixture_oracle_matches_brentq_quantiles(name):
    # seeded estimates drawn through the array quantile solver and through
    # scalar brentq quantiles differ by rounding only: 1e-9 relative at most
    dist, seq = _shipped(name)
    ref = dataclasses.replace(
        dist, ppf=np.vectorize(lambda p: brentq_quantile(dist, p), otypes=[float]))
    got = lt.conditional_mc(dist, seq, 100.0, 500, seed=9, eps_trunc=1e-4)
    want = lt.conditional_mc(ref, seq, 100.0, 500, seed=9, eps_trunc=1e-4)
    for key in ("p_hat", "std_err", "truncation_bias_bound"):
        assert getattr(got, key) == pytest.approx(getattr(want, key), rel=1e-9), key


def test_estimator_bounds(weibull04, pair_seq):
    est = lt.conditional_mc(weibull04, pair_seq, 125.3, 10_000, seed=2)
    assert 0.0 <= est.p_hat <= 1.0
    assert est.p_hat - 3 * est.std_err > -1e-12
    assert est.method == "conditional_mc"


def test_truncation_bias_below_recorded_bound(weibull04):
    seq = lt.WeightSequence([1.0], ratio=0.5)
    t = 150.0
    eps = 1e-4
    coarse = lt.conditional_mc(weibull04, seq, t, 200_000, seed=11, eps_trunc=eps)
    fine = lt.conditional_mc(weibull04, seq, t, 200_000, seed=11,
                             eps_trunc=eps * 2.0 ** -10)
    assert fine.truncation_n >= coarse.truncation_n + 10
    noise = 3.0 * math.hypot(coarse.std_err, fine.std_err)
    assert abs(coarse.p_hat - fine.p_hat) <= coarse.truncation_bias_bound + noise
    assert coarse.truncation_bias_bound > 0.0


@pytest.mark.parametrize("name,t,margin", [("symmetric_moments.json", 100.0, 9360.0),
                                           ("symmetric_moments.json", 1000.0, 10577.0),
                                           ("logweibull_second_order.json", 10.0, 37.1),
                                           ("logweibull_second_order.json", 1e5, 48.5)])
def test_truncation_bound_dominates_ten_more_rows(name, t, margin):
    # the same seed draws the same values on the kept rows, so the ten rows
    # that eps_trunc 1e-12 adds to the shipped 31 move p by the dropped tail
    # alone; the bound holds without a noise allowance, by the measured margin
    dist, seq = _shipped(name)
    coarse = lt.conditional_mc(dist, seq, t, 20000, seed=9, eps_trunc=1e-9)
    scales, _, fine = _row_tile_reads(
        lambda: lt.conditional_mc(dist, seq, t, 20000, seed=9, eps_trunc=1e-12))
    assert (coarse.truncation_n, fine.truncation_n) == (31, 41)
    gap = abs(coarse.p_hat - fine.p_hat)
    assert 0.0 < gap <= coarse.truncation_bias_bound
    assert coarse.truncation_bias_bound / gap == pytest.approx(margin, rel=0.01)
    if dist.zero_point < math.inf:
        # the added rows' survival is +0.0 on every tile: none is read
        assert min(map(abs, scales)) >= abs(seq.weight(31))


def test_negative_scale_sampling():
    s = lt.weibull_type(0.5, symmetric=True)
    seq = lt.WeightSequence([1.0, -0.5])
    t = 70.0
    mc = lt.conditional_mc(s, seq, t, 400_000, seed=3)
    q = lt.quadrature_estimate(s, seq, t)
    assert abs(mc.p_hat - q.p_hat) <= 3.0 * mc.std_err + 1e-12


def test_negative_scale_on_one_sided_law():
    # P(cX > y) = F(y/c) is exact for c < 0 on a one-sided law too, so both
    # samplers and quadrature take the weight
    d = lt.weibull_type(0.4)
    seq = lt.WeightSequence([1.0, -0.5])
    cmc = lt.conditional_mc(d, seq, 60.0, 100_000, seed=1)
    pmc = lt.plain_mc(d, seq, 60.0, 100_000, seed=1)
    assert abs(cmc.p_hat - pmc.p_hat) <= 4.0 * math.hypot(cmc.std_err, pmc.std_err)
    assert cmc.p_hat < d.sf(60.0)
    for c in (-0.5, -1.0):
        seq = lt.WeightSequence([1.0, c])
        for t in (20.0, 60.0, 300.0):
            # P(X - |c| Y > t) = int S(t + |c| y) f(y) dy, with y = x^(1/0.4)
            # so the density is exp(-x) and the integrand is smooth
            direct, _ = quad(lambda x: d.sf(t + abs(c) * x ** 2.5) * math.exp(-x),
                             0.0, np.inf, epsabs=0.0, epsrel=1e-13, limit=400)
            q = lt.quadrature_estimate(d, seq, t).p_hat
            assert q == pytest.approx(direct, rel=1e-12)
            mc = lt.conditional_mc(d, seq, t, 100_000, seed=77)
            assert abs(q - mc.p_hat) <= 4.0 * mc.std_err


# -- quadrature convolution ------------------------------------------------------


def test_negative_scale_logsf_keeps_lower_tail_precision():
    # P(-X > x) of a symmetric law is P(X > x); the linear complement read it
    # as -inf past the subnormal range
    d = lt.weibull_type(0.4, symmetric=True)
    for x in (1e3, 1.5e7, 5e7):
        assert lt.ScaledFactor(d, -1.0).logsf(x) == pytest.approx(
            lt.ScaledFactor(d, 1.0).logsf(x), rel=1e-12)


def test_convolution_commutes(weibull04):
    fa = lt.ScaledFactor(weibull04, 1.0)
    fb = lt.ScaledFactor(weibull04, 0.5)
    v1, _ = lt.convolve_pair_sf(fa, fb, 60.0)
    v2, _ = lt.convolve_pair_sf(fb, fa, 60.0)
    assert v1 == pytest.approx(v2, rel=1e-10)


def test_convolution_against_direct_quadrature(weibull04):
    # independent route: P(X + Y > t) = int pdf_X(x) sf_Y(t - x) dx
    fb = lt.ScaledFactor(weibull04, 0.5)
    for t in (20.0, 60.0, 125.3):
        v, verr = lt.convolve_pair_sf(lt.ScaledFactor(weibull04, 1.0), fb, t)
        direct, derr = quad(lambda x: weibull04.pdf(x) * fb.sf(t - x),
                            0.0, np.inf, limit=400)
        assert abs(v - direct) <= 2.0 * max(derr, 1e-10 * direct)


def test_convolution_against_dblquad():
    d = lt.weibull_type(0.5)
    t = 25.0
    v, _ = lt.convolve_pair_sf(lt.ScaledFactor(d, 1.0), lt.ScaledFactor(d, 1.0), t)
    direct, derr = dblquad(lambda y, x: d.pdf(x) * d.pdf(y),
                           0.0, t, lambda x: max(t - x, 0.0), np.inf,
                           epsabs=1e-11, epsrel=1e-9)
    both_big = d.sf(t) ** 2  # region where both exceed t is disjoint from x <= t
    direct += d.sf(t) + both_big  # x > t contributes sf(t) regardless of y... split
    # simpler exact split: P(X+Y>t) = P(X>t) + int_0^t pdf(x) sf(t-x) dx
    direct2, _ = quad(lambda x: d.pdf(x) * d.sf(t - x), 0.0, t, limit=300)
    direct2 += d.sf(t)
    assert v == pytest.approx(direct2, rel=1e-8)


def test_subexponential_ratio_trend():
    for fam, window in [(lt.weibull_type(0.5), (100.0, 2000.0)),
                        (lt.log_weibull(1.5), (1e3, 1e6)),
                        (lt.lognormal_type(0.5), (1e2, 1e5))]:
        f = lt.ScaledFactor(fam, 1.0)
        grid = np.geomspace(window[0], window[1], 5)
        ratios = [lt.convolve_pair_sf(f, f, float(t))[0] / fam.sf(float(t))
                  for t in grid]
        assert all(abs(b - 2.0) < abs(a - 2.0) for a, b in zip(ratios, ratios[1:]))
        assert 1.9 <= ratios[-1] <= 2.1


def test_three_factor_convolution_against_plain_mc():
    d = lt.weibull_type(0.4)
    seq = lt.WeightSequence([1.0, 0.6, 0.3])
    t = 40.0
    v, _ = lt.convolved_sf([lt.ScaledFactor(d, w) for _, w in seq.entries], t)
    mc = lt.plain_mc(d, seq, t, 400_000, seed=21)
    assert abs(v - mc.p_hat) <= 3.0 * mc.std_err


def test_missed_quadrature_tolerance_fails_loudly(weibull04):
    # the panels reach about 4.5e-12 at t = 700, well short of 1e-14
    pair = (lt.ScaledFactor(weibull04, 1.0), lt.ScaledFactor(weibull04, 0.5))
    with pytest.raises(lt.QuadratureToleranceError) as exc:
        lt.convolve_pair_sf(*pair, 700.0, tol_rel=1e-14)
    assert exc.value.requested == 1e-14 and exc.value.achieved > 1e-13
    value, err = lt.convolve_pair_sf(*pair, 700.0, tol_rel=1e-14, strict=False)
    assert value == pytest.approx(lt.convolve_pair_sf(*pair, 700.0)[0], rel=1e-9)
    assert err / value == exc.value.achieved


def test_underflowed_pair_fails_loudly(weibull04):
    # by t = 2e7 the pair's survival underflows to 0.0, which no relative
    # error bound can vouch for; the pinned value at t = 3e5 still passes
    pair = (lt.ScaledFactor(weibull04, 1.0), lt.ScaledFactor(weibull04, 0.5))
    with pytest.raises(lt.QuadratureToleranceError) as exc:
        lt.convolve_pair_sf(*pair, 2e7)
    assert exc.value.achieved == math.inf and exc.value.requested == 1e-9
    assert lt.convolve_pair_sf(*pair, 2e7, strict=False)[0] == 0.0
    pins.check("oracle/quadrature/weibull2@300000", lt.convolve_pair_sf(*pair, 3e5)[0])


def test_quadrature_rejects_three_two_sided_factors():
    # a two-sided pair has NaN density nodes: without the check this call runs
    # for minutes on exact solves
    d = lt.weibull_type(0.4, symmetric=True)
    seq = lt.WeightSequence([1.0, 0.5, 0.25])
    start = time.perf_counter()
    with pytest.raises(ValueError, match="bounded below"):
        lt.quadrature_estimate(d, seq, 700.0)
    assert time.perf_counter() - start < 1.0


def test_quadrature_estimate_rejects_many_factors(weibull04):
    seq = lt.WeightSequence([1.0], ratio=0.5)
    with pytest.raises(ValueError):
        lt.quadrature_estimate(weibull04, seq, 100.0, eps_trunc=1e-9)


def test_quadrature_estimate_fields(weibull04, pair_seq):
    est = lt.quadrature_estimate(weibull04, pair_seq, 150.0)
    assert est.std_err == 0.0
    assert est.method == "quadrature"
    assert est.truncation_n == 2


# quadrature p_hat at the quadrature-deep benchmark's pair ends and its
# triple point: an edit to the factors' callbacks or the panel probes that
# moves one bit fails here, without a manifest run
QUADRATURE_POINTS = [
    ("weibull", [1.0, 0.5], 700.0),
    ("weibull", [1.0, 0.5], 3e5),
    ("lognormal", [1.0, math.exp(-1.0)], 50.0),
    ("lognormal", [1.0, math.exp(-1.0)], 1e7),
    ("weibull", [1.0, 0.5, 0.25], 700.0),
    # a negative scale: the mirrored density and lower-tail log-survival
    ("weibull_symmetric", [1.0, -0.5], 700.0),
    # the other law kinds the scalar reads are built for: a log-power closed
    # form, a signed mixture and a closed-form custom hazard over a linear body
    ("logweibull", [1.0, 0.5], 700.0),
    ("cancellation_pair", [1.0, 0.5], 1e3),
    ("custom", [1.0, 0.5], 700.0),
]
QUADRATURE_LAWS = {
    "lognormal": lambda: lt.lognormal_type(0.5),
    "weibull_symmetric": lambda: lt.weibull_type(0.4, symmetric=True),
    "logweibull": lambda: lt.log_weibull(1.5),
    "cancellation_pair": lambda: _shipped("cancellation_pair.json")[0],
    "custom": lambda: lt.custom_hazard([(0.4, -0.6, 0.0), (0.1, -1.0, 1.0)], rv_index=-0.6),
}


@pytest.mark.parametrize("family,weights,t", QUADRATURE_POINTS,
                         ids=[f"{f}{len(w)}@{t:g}" for f, w, t in QUADRATURE_POINTS])
def test_quadrature_keeps_its_bits(weibull04, family, weights, t):
    dist = weibull04 if family == "weibull" else QUADRATURE_LAWS[family]()
    seq = lt.WeightSequence(weights)
    est = lt.quadrature_estimate(dist, seq, t)
    assert est.truncation_n == len(weights)
    pins.check(f"oracle/quadrature/{family}{len(weights)}@{t:g}", est.p_hat)


def _pchip_cases(weibull04, monkeypatch):
    """(nodes, {node: exact value}) of both interpolants of the [1, 0.5, 0.25]
    point at t = 700, then of random data with sign changes and flat runs."""
    built, build = [], oracle._LogInterpolant

    def recording(exact, xs, hi):
        seen = {}
        built.append((np.asarray(xs), seen))
        return build(lambda x: seen.setdefault(x, exact(x)), xs, hi)

    monkeypatch.setattr(oracle, "_LogInterpolant", recording)
    oracle.ConvolvedFactor(lt.ScaledFactor(weibull04, 0.5), lt.ScaledFactor(weibull04, 0.25),
                           700.0, lt.ScaledFactor(weibull04, 1.0).support_left, 1e-9 / 4.0)
    monkeypatch.undo()
    assert len(built) == 2
    # both end-slope corrections: the first end slope set to 0, the last to 3 m0
    data = [(np.array([0.0, 1.0, 1.1, 2.0]), np.array([0.0, 0.1, 3.0, 2.9]))]
    rng = np.random.default_rng(32)
    for n in (3, 4, 9, 129):
        ys = rng.normal(size=n) * rng.uniform(0.1, 50.0)
        ys[n // 3:n // 3 + n // 4 + 1] = ys[n // 3]  # a flat run
        data.append((np.cumsum(rng.uniform(0.01, 3.0, n)) - 5.0, ys))
    built += [(xs, dict(zip(xs.tolist(), np.exp(ys).tolist()))) for xs, ys in data]
    return built


def test_log_interpolant_is_scipys_pchip(weibull04, monkeypatch):
    # scipy's PchipInterpolator is the reference: the same value, bit for bit,
    # at the nodes, the midpoints, the last node and just past it
    from scipy.interpolate import PchipInterpolator
    for xs, exact in _pchip_cases(weibull04, monkeypatch):
        hi = 2.0 * xs[-1] - xs[-2]
        ours = oracle._LogInterpolant(exact.__getitem__, xs, hi)
        theirs = PchipInterpolator(xs, [math.log(exact[x]) for x in xs.tolist()])
        reads = [*xs, *(xs[1:] + xs[:-1]) / 2.0, xs[-1], np.nextafter(xs[-1], np.inf), hi]
        for x in map(float, reads):
            assert ours(x).hex() == float(theirs(x)).hex(), x


def test_pair_error_bound_keeps_its_bits(weibull04):
    value, err = lt.convolve_pair_sf(lt.ScaledFactor(weibull04, 1.0),
                                     lt.ScaledFactor(weibull04, 0.5), 3e5)
    pins.check("oracle/quadrature/weibull2@300000", value)
    pins.check("oracle/quadrature_error_bound/weibull2@300000", err)


# -- comparison tables --------------------------------------------------------------


def test_compare_single_term_against_quadrature(weibull04):
    seq = lt.WeightSequence([1.0])
    exp = lt.expand(weibull04, seq, 0)
    budget = lt.OracleBudget(method="quadrature", n=1, seed=0)
    table = lt.compare_with_oracle(exp, weibull04, seq, [50.0, 100.0], budget)
    assert np.all(table.deviation <= 1e-12)
    assert table.passed.all()


def test_compare_passes_band(weibull04, pair_seq):
    exp = lt.expand(weibull04, pair_seq, 0)
    budget = lt.OracleBudget(method="conditional_mc", n=100_000, seed=9, slack=10.0)
    table = lt.compare_with_oracle(exp, weibull04, pair_seq,
                                   np.geomspace(125.3, 300.0, 3), budget)
    assert table.passed.all()
    assert np.all(np.isfinite(table.deviation_over_benchmark))


def test_compare_critical_two_term_band():
    # squared-log tail with the second weight above the inclusion threshold:
    # the two-term expansion tracks the oracle within the remainder band
    ln = lt.lognormal_type(0.5)
    seq = lt.WeightSequence([1.0, 0.5])
    exp = lt.expand(ln, seq, 1)
    assert len(exp.terms) == 2
    budget = lt.OracleBudget(method="conditional_mc", n=200_000, seed=9, slack=10.0)
    table = lt.compare_with_oracle(exp, ln, seq, np.geomspace(60.0, 600.0, 3), budget)
    assert table.passed.all()


@pytest.mark.parametrize("method", ["conditional_mc", "plain_mc"])
def test_compare_fails_rows_past_the_double_range(weibull04, pair_seq, method):
    # S(t) leaves the double range between t = 1e7 and 2e7: there the totals,
    # the benchmark and the oracle value all read 0.0, and a band of zeros
    # says nothing, so no such row passes
    exp = lt.expand(weibull04, pair_seq, 2)
    budget = lt.OracleBudget(method=method, n=20000, seed=9)
    table = lt.compare_with_oracle(exp, weibull04, pair_seq, [1e6, 2e7, 1e8], budget)
    deep = [table.evaluation.totals, table.evaluation.benchmark, table.oracle_p]
    assert not any(column[1:].any() for column in deep)
    assert not table.passed[1:].any()
    # the representable row keeps its bits and its verdict: conditional MC
    # passes within 3 std_err, plain MC sees no exceedance and fails
    assert table.passed[0] == (method == "conditional_mc")
    pins.check(f"oracle/compare_past_double_range/{method}",
               [table.oracle_p[0], table.oracle_stderr[0], table.deviation[0]])


def _bogus_method():
    dist, seq = lt.weibull_type(0.4), lt.WeightSequence([1.0, 0.5])
    exp = lt.expand(dist, seq, 1)
    lt.compare_with_oracle(exp, dist, seq, [50.0], lt.OracleBudget(method="bogus"))


@pytest.mark.parametrize("build, error, match", [
    (lambda: lt.conditional_mc(lt.weibull_type(0.4), lt.WeightSequence([1.0, 0.5]), 50.0,
                               n=0, seed=0), ValueError, "sample count must be positive"),
    (_bogus_method, ValueError, "unknown oracle method 'bogus'"),
], ids=["no_samples", "unknown_method"])
def test_oracle_refusals(build, error, match):
    with pytest.raises(error, match=match):
        build()
