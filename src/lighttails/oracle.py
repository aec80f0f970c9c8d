"""Ground-truth estimators for the weighted-sum tail, independent of the expansion.

Three methods:

  conditional_mc   integrates one variable out analytically, conditionally on
                   it carrying the largest summand: the sample value is

                     sum_i P(c_i X > max(M'_i, t - S'_i) | rest),

                   with S'_i the residual sum and M'_i the residual maximum
                   of the c_j X_j.  Decomposing the tail event by which
                   summand is largest keeps the estimator unbiased for the
                   truncated model while the M'_i floor removes the heavy
                   branch that makes the naive one-index conditional
                   estimator (average of P(c* X > t - S')) underestimate its
                   own sampling error deep in the tail.

  plain_mc         indicator Monte Carlo on the truncated sum.

  quadrature       recursive numerical convolution of up to four factors via
                   the splitting

                     P(X+Y > t) = int_{-inf}^{t/2} sfY(t-x) dX(x)
                                + int_{-inf}^{t/2} sfX(t-x) dY(x)
                                + sfX(t/2) * sfY(t/2),

                   each integral computed adaptively on a log-normalized
                   integrand so tails far below 1e-300 in product scale stay
                   representable.  A factor is a ScaledFactor, the law of
                   c_i X; three or four need every factor bounded below.
                   Each panel's integrand calls the factors' logpdf and
                   logsf, closures each factor builds once, directly.

The conditional kernel reads P(c_i X > .) through the same ScaledFactor.

Randomness contract: streams are keyed by (seed, variable index, block index)
through numpy's SeedSequence/Philox, with a fixed block size.  Results are
therefore reproducible from the seed alone, independent of how work is
partitioned, and extending the truncation level appends variables without
disturbing existing draws (which isolates truncation bias in paired runs).
Inside a block each row's stream draws one chunk of about _CHUNK columns
after another, the quantile maps slabs of about _CHUNK draws spanning every
row, and a kernel fills the chunk's values; a quantile is per draw, a
kernel's work per column, and a column sum adds the rows in the same order,
so the chunk size moves no value and is not part of the contract.  A row-tile
is not read where every argument in it is at or past the row's zero point
(ScaledFactor.zero_point), from which its survival is exactly +0.0; skipping
an exact +0.0 moves no bit, so the zero point is not part of the contract.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from .distributions import ScaledFactor, TailDistribution
from .errors import QuadratureToleranceError
from .expansion import EvaluationTable, TailExpansion, evaluate
from .hazard import log_abs, quad
from .weights import WeightSequence

__all__ = [
    "OracleEstimate", "OracleBudget", "QuadratureToleranceError",
    "conditional_mc", "plain_mc", "quadrature_estimate",
    "convolve_pair_sf", "convolved_sf",
    "ComparisonTable", "compare_with_oracle",
]

_BLOCK = 1 << 18
_CHUNK = 1 << 13


@dataclass(frozen=True)
class OracleEstimate:
    t: float
    p_hat: float
    std_err: float
    n_samples: int
    truncation_n: int
    truncation_bias_bound: float
    seed: int
    method: str


@dataclass(frozen=True)
class OracleBudget:
    method: str = "conditional_mc"
    n: int = 10**6
    seed: int = 0
    eps_trunc: float = 1e-9
    slack: float = 10.0


# ---------------------------------------------------------------------------
# seeded sampling
# ---------------------------------------------------------------------------


def _record(dist: TailDistribution, seq: WeightSequence, n_trunc: int, entries,
            t: float, p_hat: float, method: str, std_err: float = 0.0,
            n_samples: int = 0, seed: int = 0) -> OracleEstimate:
    """The estimate p_hat at t, made on the truncation to N = n_trunc and its
    kept entries, with a bound on how far the dropped weights can move it.

    The dropped variables shift the argument of the survival by at most
    sum_{i>N} |c_i| times a high quantile of |X|; a shift d moves log-survival
    by at most h(t - d) * d near t.
    """
    dropped = seq.abs_sum() - sum(abs(w) for _, w in entries)
    bias = 0.0
    if dropped > 0.0:
        q = max(abs(float(dist.ppf(1e-5))), abs(float(dist.ppf(1.0 - 1e-5))))
        shift = dropped * q
        slope = dist.upper.hazard(max(t - shift, dist.upper.t0 * 1.01))
        bias = p_hat * abs(math.expm1(slope * shift))
    return OracleEstimate(t=t, p_hat=p_hat, std_err=std_err, n_samples=n_samples,
                          truncation_n=n_trunc, truncation_bias_bound=bias,
                          seed=seed, method=method)


def _sample_stats(value_blocks) -> tuple[float, float, int]:
    # deviations are accumulated against a shift taken from the first block, so
    # a constant estimator reports exactly zero variance; each block is
    # centred and squared in place
    shift = None
    dev = 0.0
    dev_sq = 0.0
    n = 0
    for block in value_blocks:
        if shift is None:
            shift = float(block[0])
        np.subtract(block, shift, out=block)
        dev += float(np.sum(block))
        dev_sq += float(np.sum(np.square(block, out=block)))
        n += block.size
    mean = shift + dev / n
    var = max(0.0, (dev_sq - dev * dev / n) / (n - 1)) if n > 1 else 0.0
    return mean, math.sqrt(var / n), n


def _truncation(seq: WeightSequence, eps_trunc: float):
    """Truncation level N and the kept entries: the first N with tail weight
    below eps_trunc, never short of a maximal entry."""
    top = next(seq.classes())
    n_trunc = max(seq.truncation_index(eps_trunc), *top.positive, *top.negative)
    return n_trunc, seq.truncated_entries(n_trunc)


def _value_blocks(dist: TailDistribution, entries, n: int, seed: int, fill):
    """Each block's values, filled chunk by chunk: a block is valid until the
    next one is drawn.  Each row's stream draws the chunk's uniforms into one
    buffer, continuing where the last chunk stopped; one quantile call maps
    each slab of max(1, _CHUNK // rows) columns, spanning every row, the
    weights scale it, and fill(summands, out) writes the chunk's values."""
    rows = len(entries)
    slab = max(1, _CHUNK // rows)
    buf = np.empty((rows, min(slab * rows, n)))
    values = np.empty(min(_BLOCK, n))
    weights = np.array([[w] for _, w in entries], dtype=float)
    for b, done in enumerate(range(0, n, _BLOCK)):
        streams = [np.random.Generator(np.random.Philox(np.random.SeedSequence(
            seed, spawn_key=(i, b)))) for i, _ in entries]
        block = values[:min(_BLOCK, n - done)]
        for lo in range(0, block.size, buf.shape[1]):
            summands = buf[:, :min(buf.shape[1], block.size - lo)]
            for stream, row in zip(streams, summands):
                stream.random(out=row)
            for cols in range(0, summands.shape[1], slab):
                part = summands[:, cols:cols + slab]
                np.multiply(weights, np.asarray(dist.ppf(part), dtype=float), out=part)
            fill(summands, block[lo:lo + summands.shape[1]])
        yield block


def _residual_maxima(summands: np.ndarray):
    """Per column tile of a matrix of two or more rows, and per row i in index
    order, (tile, i, M'_i): the tile's column slice and the largest entry of
    the other rows there, np.max(np.delete(summands, i, axis=0), axis=0)[tile]
    (up to the sign of a zero).  M'_i is the larger of a running maximum of
    the rows before i and a maximum of the rows after i; with two rows it is
    the other row.  max only selects, so a tie gives the tied value."""
    rows, width = summands.shape
    # the maxima of the rows after i are stored before row 0 is visited, so a
    # tile of columns bounds their memory; like the chunk, it moves no bits
    tile = max(1, 16 * _CHUNK // rows)
    store = np.empty((rows - 1, min(tile, width)))
    for lo in range(0, width, tile):
        cols = slice(lo, lo + tile)
        part = summands[:, cols]
        after = store[:, :part.shape[1]]
        after[-1] = part[-1]
        for i in range(rows - 3, -1, -1):
            np.maximum(part[i + 1], after[i + 1], out=after[i])
        yield cols, 0, after[0]
        before = part[0]
        for i in range(1, rows - 1):
            yield cols, i, np.maximum(before, after[i], out=after[i])
            before = np.maximum(before, part[i])
        yield cols, rows - 1, before


# Each temporary of a chunk is at most about 64 KiB and its summands about
# _CHUNK draws a row, so they stay in cache and the allocator reuses them
# instead of faulting in fresh pages.  The one larger temporary is the store
# of _residual_maxima, (rows - 1) * tile floats: under 16 * _CHUNK floats
# (1 MiB), 1.0 MB at 31 rows.  Only the values span the block: _sample_stats
# sums each block pairwise, so a block summed chunk by chunk would move p_hat.


def _conditional_values(dist, entries, t, n, seed):
    """Per sample, sum_i P(c_i X > max(M'_i, t - S'_i) | rest), where M'_i is
    the largest of the other summands.  With one variable every sample is
    P(c X > t): nothing is drawn."""
    factors = [ScaledFactor(dist, w) for _, w in entries]
    if len(entries) == 1:
        value = factors[0].sf_batch(np.array([t]))[0]
        for done in range(0, n, _BLOCK):
            yield np.full(min(_BLOCK, n - done), value)
        return

    zeros = [f.zero_point for f in factors]

    def fill(summands, out):
        total = summands.sum(axis=0)
        out.fill(0.0)
        # each column is in one tile and takes its rows in index order
        for cols, i, resid_max in _residual_maxima(summands):
            arg = np.maximum(resid_max, t - (total[cols] - summands[i, cols]))
            # only a row whose survival is +0.0 from below t on can skip a tile
            if zeros[i] < t and arg.min() >= zeros[i]:
                continue
            into = out[cols]
            into += factors[i].sf_batch(arg)

    yield from _value_blocks(dist, entries, n, seed, fill)


def _plain_values(dist, entries, t, n, seed):
    """Per sample, the indicator of the truncated sum exceeding t."""
    return _value_blocks(dist, entries, n, seed,
                         lambda summands, out: np.greater(summands.sum(axis=0), t, out=out))


def _monte_carlo(dist, seq, t, n, seed, eps_trunc, kernel, method) -> OracleEstimate:
    """Sample mean of the kernel's values over n seeded samples."""
    if n < 1:
        raise ValueError("sample count must be positive")
    n_trunc, entries = _truncation(seq, eps_trunc)
    p_hat, std_err, n_done = _sample_stats(kernel(dist, entries, t, n, seed))
    return _record(dist, seq, n_trunc, entries, t, p_hat, method, std_err, n_done, seed)


def conditional_mc(dist: TailDistribution, seq: WeightSequence, t: float, n: int,
                   seed: int, eps_trunc: float = 1e-9) -> OracleEstimate:
    """Tail estimate by argmax-conditional Monte Carlo on the truncated sum.

    Each sample sums over candidate indices i the probability that a fresh
    c_i X clears both the residual maximum and t minus the residual sum: the
    conditional probability of {sum > t, summand i largest}, so the sample
    mean is unbiased for the truncated model.
    """
    return _monte_carlo(dist, seq, t, n, seed, eps_trunc, _conditional_values,
                        "conditional_mc")


def plain_mc(dist: TailDistribution, seq: WeightSequence, t: float, n: int,
             seed: int, eps_trunc: float = 1e-9) -> OracleEstimate:
    """Indicator Monte Carlo on the truncated weighted sum."""
    return _monte_carlo(dist, seq, t, n, seed, eps_trunc, _plain_values, "plain_mc")


# ---------------------------------------------------------------------------
# quadrature convolution factors
# ---------------------------------------------------------------------------


_NODES = 129  # interpolation nodes per window of a composite factor


class _LogInterpolant:
    """x -> log f(x) for an exact solve f: inside the window [xs[0], hi] from
    a monotone interpolant of the exact values on the nodes xs, when there are
    nodes and every value is finite, and elsewhere from the exact solve.

    The interpolant is scipy's PchipInterpolator (Fritsch & Carlson) on three
    or more nodes, with its bits: the derivatives of its _find_derivatives
    and _edge_case and the coefficients of CubicHermiteSpline, computed in
    the same order on numpy arrays, then read as scipy's PPoly reads them."""

    def __init__(self, exact, xs, hi: float):
        self.exact = exact
        self.window = (math.inf, -math.inf)  # empty: every x takes the exact solve
        ys = [log_abs(exact(float(x))) for x in xs]
        if ys and all(math.isfinite(y) for y in ys):
            self.xs = [float(x) for x in xs]
            h = np.diff(self.xs)
            m = np.diff(ys) / h
            w1, w2 = 2 * h[1:] + h[:-1], h[1:] + 2 * h[:-1]
            d = np.zeros(len(ys))
            hmean = ~((np.sign(m[1:]) != np.sign(m[:-1])) | (m[1:] == 0) | (m[:-1] == 0))
            d[1:-1][hmean] = 1.0 / ((w1[hmean] / m[:-1][hmean] + w2[hmean] / m[1:][hmean])
                                    / (w1[hmean] + w2[hmean]))
            for end, h0, h1, m0, m1 in ((0, h[0], h[1], m[0], m[1]),
                                        (-1, h[-1], h[-2], m[-1], m[-2])):
                d[end] = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
                if np.sign(d[end]) != np.sign(m0):
                    d[end] = 0.0
                elif np.sign(m0) != np.sign(m1) and abs(d[end]) > 3.0 * abs(m0):
                    d[end] = 3.0 * m0
            t = (d[:-1] + d[1:] - 2 * m) / h
            self.coeffs = list(zip((t / h).tolist(), ((m - d[:-1]) / h - t).tolist(),
                                   d[:-1].tolist(), ys[:-1]))
            self.window = (self.xs[0], hi)

    def __call__(self, x):
        if self.window[0] <= x <= self.window[1]:
            # the interval of PPoly's find_interval: closed at the right end,
            # the last one past it; the sum in its evaluate_poly1 order
            i = min(bisect_right(self.xs, x) - 1, len(self.coeffs) - 1)
            c0, c1, c2, c3 = self.coeffs[i]
            s = x - self.xs[i]
            return 0.0 + c3 + c2 * s + c1 * (s * s) + c0 * ((s * s) * s)
        return log_abs(self.exact(x))


class ConvolvedFactor:
    """Sum of two factors a and b bounded below, as one side of the split of
    a convolution at t whose other side has support_left other_left.

    Its survival and density come from pairwise quadrature.  The outer
    integrals at t read them across fixed windows, so each is a monotone
    interpolant on _NODES nodes over its window, trading one batch of exact
    solves for cheap evaluations inside the adaptive outer quadrature.
    """

    def __init__(self, a, b, t: float, other_left: float, tol_rel: float):
        edge = self.support_left = a.support_left + b.support_left
        self.support_right = a.support_right + b.support_right
        self.breaks = tuple(sorted(
            {x + y for x in a.breaks for y in b.breaks}))[:16]
        lo = max(t / 2.0 - 1e-9 * abs(t), edge + 1e-9 * max(1.0, abs(edge)))
        hi = t - other_left + 1e-9 * abs(t)
        self.logsf = _LogInterpolant(
            lambda x: min(1.0, max(0.0, convolve_pair_sf(a, b, x, tol_rel=tol_rel,
                                                         strict=False)[0])),
            np.linspace(lo, hi, _NODES) if hi > lo else (), hi)
        # densities may be steep (even singular) toward the support edge, so
        # nodes are geometric in the distance from it
        hi = t / 2.0 + 1e-9 * abs(t)
        span = hi - edge
        self.logpdf = _LogInterpolant(
            lambda x: _density_convolution(a, b, x, tol_rel=tol_rel),
            edge + np.geomspace(span * 1e-9, span, _NODES) if span > 0 else (), hi)

    def sf(self, x):
        return math.exp(self.logsf(x))


def _panel_edges(lo: float, hi: float, probes) -> list[float]:
    """Panel boundaries: factor junctions plus a geometric ladder, so each
    panel spans a modest dynamic range of the integrand."""
    edges = {lo, hi}
    edges.update(p for p in probes if lo < p < hi)
    width = hi - lo
    # geometric ladder away from lo (where densities may be singular) and
    # toward hi (where survival factors swing fastest)
    step = width
    while step > width * 1e-9:
        edges.add(lo + step)
        edges.add(hi - step)
        step /= 4.0
    return sorted(edges)


def _convolution_integral(inner, log_outer, t: float, lo: float, hi: float,
                          probes, tol_rel: float) -> tuple[float, float]:
    """int_lo^hi exp(log_outer(t - x)) dInner(x), with its error bound, by
    per-panel normalized quadrature: 0 on an empty interval, log_outer read
    where inner.pdf > 0.  Each panel's integrand calls the two reads itself."""
    if hi <= lo:
        return 0.0, 0.0
    log_inner, exp, ninf = inner.logpdf, math.exp, -math.inf

    def log_g(x):
        lp = log_inner(x)
        if lp == ninf:
            return lp
        return lp + log_outer(t - x)

    edges = _panel_edges(lo, hi, probes)
    total = 0.0
    total_err = 0.0
    for a, b in zip(edges, edges[1:]):
        best = -math.inf
        # np.linspace(a, b, 9)[1:-1], without its overhead
        for x in (a + i * ((b - a) / 8) for i in range(1, 8)):
            try:
                v = log_g(x)
            except (ValueError, OverflowError):
                continue
            if math.isfinite(v) and v > best:
                best = v
        if best == -math.inf or (total > 0 and
                                 exp(min(best, 300.0)) * (b - a) < 1e-18 * total):
            continue

        def integrand(x, m=best):
            lp = log_inner(x)
            if lp == ninf:
                return 0.0
            v = lp + log_outer(t - x)
            return exp(v - m) if v > ninf else 0.0

        val, err = quad(integrand, a, b, epsabs=1e-15,
                        epsrel=max(1e-11, tol_rel / 10), limit=200)
        total += val * exp(best)
        total_err += err * exp(best)
    return total, total_err


def _t_integral(f_logsf, k_factor, t: float, tol_rel: float) -> tuple[float, float]:
    """int_{-inf}^{t/2} exp(f_logsf(t - x)) dK(x) by panel quadrature."""
    hi = min(t / 2.0, k_factor.support_right)
    lo = k_factor.support_left
    if not math.isfinite(lo):
        lo = min(-1e6, hi - 1e6)  # mass further down is negligible for every factor shipped
    return _convolution_integral(k_factor, f_logsf, t, lo, hi, k_factor.breaks, tol_rel)


def convolve_pair_sf(a, b, t: float, tol_rel: float = 1e-9,
                     strict: bool = True) -> tuple[float, float]:
    """Survival of the sum of two independent factors at t, with an error bound."""
    i1, e1 = _t_integral(a.logsf, b, t, tol_rel)
    i2, e2 = _t_integral(b.logsf, a, t, tol_rel)
    half = a.sf(t / 2.0) * b.sf(t / 2.0)
    value = i1 + i2 + half
    err = e1 + e2
    # a value that underflows to 0 (or is NaN) has no relative error to meet
    if strict and (not value > 0 or err > tol_rel * value + 1e-300):
        raise QuadratureToleranceError(
            achieved=err / value if value > 0 else math.inf, requested=tol_rel)
    return value, err


def _density_convolution(a, b, t: float, tol_rel: float) -> float:
    lo = max(a.support_left, t - b.support_right)
    hi = min(a.support_right, t - b.support_left)
    probes = list(a.breaks) + [t - p for p in b.breaks]
    return _convolution_integral(a, b.logpdf, t, lo, hi, probes, tol_rel)[0]


def convolved_sf(factors, t: float) -> tuple[float, float]:
    """Survival of a sum of one to four factors by pairwise recursion."""
    if not 1 <= len(factors) <= 4:
        raise ValueError(f"quadrature convolution takes one to four factors, "
                         f"got {len(factors)}")
    if len(factors) == 1:
        return factors[0].sf(t), 0.0
    if len(factors) == 2:
        return convolve_pair_sf(factors[0], factors[1], t)
    # ConvolvedFactor and _density_convolution work from finite left support
    # edges; every factor then has c > 0, so its right edge is infinite
    if not all(math.isfinite(f.support_left) for f in factors):
        raise ValueError("quadrature convolution of three or more factors needs "
                         "factors bounded below")
    # group so each side of the top split is at most a pair; a pair is built for
    # the window its outer integral reads, up to t minus the other side's left edge
    def side(part, other):
        if len(part) == 1:
            return part[0]
        return ConvolvedFactor(*part, t, sum(f.support_left for f in other), 1e-9 / 4.0)

    head, tail = factors[:len(factors) // 2], factors[len(factors) // 2:]
    return convolve_pair_sf(side(head, tail), side(tail, head), t, strict=False)


def quadrature_estimate(dist: TailDistribution, seq: WeightSequence, t: float,
                        eps_trunc: float = 1e-9) -> OracleEstimate:
    """Deterministic tail value by numerical convolution of the truncated sum."""
    n_trunc, entries = _truncation(seq, eps_trunc)
    value, _ = convolved_sf([ScaledFactor(dist, w) for _, w in entries], t)
    return _record(dist, seq, n_trunc, entries, t, value, "quadrature")


# ---------------------------------------------------------------------------
# expansion-versus-oracle comparison
# ---------------------------------------------------------------------------


@dataclass
class ComparisonTable:
    """Oracle estimates and deviations beside the evaluation they check."""

    evaluation: EvaluationTable
    oracle_p: np.ndarray
    oracle_stderr: np.ndarray
    deviation: np.ndarray
    deviation_over_benchmark: np.ndarray
    passed: np.ndarray
    estimates: list[OracleEstimate] = field(default_factory=list)


def _estimate(dist, seq, t, budget: OracleBudget) -> OracleEstimate:
    if budget.method == "conditional_mc":
        return conditional_mc(dist, seq, t, budget.n, budget.seed, budget.eps_trunc)
    if budget.method == "plain_mc":
        return plain_mc(dist, seq, t, budget.n, budget.seed, budget.eps_trunc)
    if budget.method == "quadrature":
        return quadrature_estimate(dist, seq, t, budget.eps_trunc)
    raise ValueError(f"unknown oracle method {budget.method!r}")


def compare_with_oracle(expansion: TailExpansion, dist: TailDistribution,
                        seq: WeightSequence, t_grid,
                        budget: OracleBudget) -> ComparisonTable:
    """Per grid point: oracle estimate, expansion total, deviation diagnostics.

    The acceptance band is max(3 * std_err + truncation bias, benchmark * slack):
    statistical error plus the remainder-scale allowance.  A row passes only
    where the benchmark is positive, never on underflowed zeros.
    """
    table = evaluate(expansion, dist, t_grid)
    estimates = [_estimate(dist, seq, t, budget) for t in table.t]

    oracle_p = np.array([e.p_hat for e in estimates])
    oracle_se = np.array([e.std_err for e in estimates])
    deviation = np.abs(oracle_p - table.totals)
    with np.errstate(divide="ignore", invalid="ignore"):
        dev_over_bench = deviation / table.benchmark
    band = np.maximum(3.0 * oracle_se + np.array([e.truncation_bias_bound
                                                  for e in estimates]),
                      table.benchmark * budget.slack)
    passed = (deviation <= band) & (table.benchmark > 0.0)
    return ComparisonTable(
        evaluation=table,
        oracle_p=oracle_p,
        oracle_stderr=oracle_se,
        deviation=deviation,
        deviation_over_benchmark=dev_over_bench,
        passed=passed,
        estimates=estimates,
    )
