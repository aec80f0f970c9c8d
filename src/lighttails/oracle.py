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

The conditional kernel reads P(c_i X > .) through the same ScaledFactor.

Randomness contract: streams are keyed by (seed, variable index, block index)
through numpy's SeedSequence/Philox, with a fixed block size.  Results are
therefore reproducible from the seed alone, independent of how work is
partitioned, and extending the truncation level appends variables without
disturbing existing draws (which isolates truncation bias in paired runs).
Inside a block the kernels work in column chunks; their work is per column,
and a column sum adds the rows in the same order, so the chunk size moves no
value and is not part of the contract.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import IntegrationWarning, quad

from .distributions import ScaledFactor, TailDistribution
from .errors import QuadratureToleranceError
from .expansion import EvaluationTable, TailExpansion, evaluate
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


def _truncation_bias_bound(dist: TailDistribution, seq: WeightSequence,
                           n_trunc: int, t: float, p_hat: float) -> float:
    """Bound on how far the dropped tail weights can move the estimate.

    The dropped variables shift the argument of the survival by at most
    sum_{i>N} |c_i| times a high quantile of |X|; a shift d moves log-survival
    by at most h(t - d) * d near t.
    """
    dropped = seq.abs_sum() - sum(abs(w) for _, w in seq.truncated_entries(n_trunc))
    if dropped <= 0.0:
        return 0.0
    q = max(abs(float(dist.ppf(1e-5))), abs(float(dist.ppf(1.0 - 1e-5))))
    shift = dropped * q
    anchor = max(t - shift, dist.upper.t0 * 1.01)
    slope = dist.upper.hazard(anchor)
    return p_hat * abs(math.expm1(slope * shift))


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
    n_trunc = max(seq.truncation_index(eps_trunc), max(seq.maximal_indices()))
    return n_trunc, seq.truncated_entries(n_trunc)


def _chunks(size: int):
    """Column slices of at most _CHUNK, covering range(size)."""
    return (slice(lo, lo + _CHUNK) for lo in range(0, size, _CHUNK))


def _summand_blocks(dist: TailDistribution, entries, n: int, seed: int):
    """Each block's (variables x block) matrix of summands c_i X_i, drawn
    into one buffer: a block is valid until the next one is drawn.  A row's
    uniforms are drawn in place, then mapped to summands chunk by chunk."""
    buf = np.empty((len(entries), min(_BLOCK, n)))
    for b, done in enumerate(range(0, n, _BLOCK)):
        summands = buf[:, :min(_BLOCK, n - done)]
        for row, (i, w) in enumerate(entries):
            ss = np.random.SeedSequence(seed, spawn_key=(i, b))
            np.random.Generator(np.random.Philox(ss)).random(out=summands[row])
            for cols in _chunks(summands.shape[1]):
                u = summands[row, cols]
                np.multiply(w, np.asarray(dist.ppf(u), dtype=float), out=u)
        yield summands


def _top_two(summands: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per column of two or more rows, the largest and second-largest entry,
    a repeated maximum included: np.sort(summands, axis=0)[-1] and [-2] (up
    to the sign of a zero), from a running top two instead of a sort."""
    largest = np.maximum(summands[0], summands[1])
    second = np.minimum(summands[0], summands[1])
    for row in summands[2:]:
        np.maximum(second, np.minimum(largest, row), out=second)
        np.maximum(largest, row, out=largest)
    return largest, second


# The kernels work through a block in column chunks of _CHUNK samples, so
# each temporary is 64 KiB: it stays in cache, and the allocator reuses it
# instead of mapping and faulting in fresh pages for every row.  Only the
# summands and the values span the whole block.


def _conditional_values(dist, entries, t, n, seed):
    """Per sample, sum_i P(c_i X > max(M'_i, t - S'_i) | rest), where M'_i is
    the second-largest summand if summand i is the largest, else the largest.
    With one variable every sample is P(c X > t): nothing is drawn."""
    factors = [ScaledFactor(dist, w) for _, w in entries]
    if len(entries) == 1:
        value = factors[0].sf_batch(np.array([t]))[0]
        for done in range(0, n, _BLOCK):
            yield np.full(min(_BLOCK, n - done), value)
        return
    for summands in _summand_blocks(dist, entries, n, seed):
        value = np.zeros(summands.shape[1])
        for cols in _chunks(summands.shape[1]):
            chunk, out = summands[:, cols], value[cols]
            total = chunk.sum(axis=0)
            largest, second = _top_two(chunk)
            for row, factor in enumerate(factors):
                resid_max = np.where(chunk[row] == largest, second, largest)
                level = np.maximum(resid_max, t - (total - chunk[row]))
                out += factor.sf_batch(level)
        yield value


def _plain_values(dist, entries, t, n, seed):
    """Per sample, the indicator of the truncated sum exceeding t."""
    for summands in _summand_blocks(dist, entries, n, seed):
        value = np.empty(summands.shape[1])
        for cols in _chunks(summands.shape[1]):
            np.greater(summands[:, cols].sum(axis=0), t, out=value[cols])
        yield value


def _monte_carlo(dist, seq, t, n, seed, eps_trunc, kernel, method) -> OracleEstimate:
    """Sample mean of the kernel's values over n seeded samples."""
    if n < 1:
        raise ValueError("sample count must be positive")
    n_trunc, entries = _truncation(seq, eps_trunc)
    p_hat, std_err, n_done = _sample_stats(kernel(dist, entries, t, n, seed))
    return OracleEstimate(t=t, p_hat=p_hat, std_err=std_err, n_samples=n_done,
                          truncation_n=n_trunc,
                          truncation_bias_bound=_truncation_bias_bound(
                              dist, seq, n_trunc, t, p_hat),
                          seed=seed, method=method)


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


class _LogInterpolant:
    """x -> log f(x) for an exact solve f.  Once prepared on a node grid it
    answers inside its window [nodes[0], hi] from a monotone interpolant of
    the exact values, and outside it from the exact solve."""

    def __init__(self, exact):
        self.exact = exact
        self.interp = None
        self.window = (math.inf, -math.inf)

    def log_exact(self, x):
        v = self.exact(x)
        return math.log(v) if v > 0 else -math.inf

    def prepare(self, xs, hi: float):
        from scipy.interpolate import PchipInterpolator
        ys = [self.log_exact(float(x)) for x in xs]
        if all(math.isfinite(y) for y in ys):
            self.interp = PchipInterpolator(xs, ys)
            self.window = (float(xs[0]), hi)

    def __call__(self, x):
        if self.interp is not None and self.window[0] <= x <= self.window[1]:
            return float(self.interp(x))
        return self.log_exact(x)


class ConvolvedFactor:
    """Sum of two factors; survival and density via pairwise quadrature.

    When a query range is known in advance (the outer convolution integrates
    this factor across a fixed window) the factor prepares monotone
    interpolants of its log-survival and log-density on a node grid, trading
    one batch of exact solves for cheap evaluations inside the adaptive outer
    quadrature.
    """

    def __init__(self, a, b, tol_rel: float = 1e-9, nodes: int = 129):
        self.nodes = nodes
        self.support_left = a.support_left + b.support_left
        self.support_right = a.support_right + b.support_right
        self.breaks = tuple(sorted(
            {x + y for x in a.breaks for y in b.breaks}))[:16]
        self.logsf = _LogInterpolant(lambda x: min(1.0, max(0.0, convolve_pair_sf(
            a, b, x, tol_rel=tol_rel, strict=False)[0])))
        self.logpdf = _LogInterpolant(
            lambda x: _density_convolution(a, b, x, tol_rel=tol_rel))

    def prepare(self, t: float, other):
        """Interpolants over the windows that the outer integrals at t,
        against the other factor of the split, hit."""
        edge = self.support_left
        lo = max(t / 2.0 - 1e-9 * abs(t), edge + 1e-9 * max(1.0, abs(edge)))
        hi = t - other.support_left + 1e-9 * abs(t)
        if hi > lo:
            self.logsf.prepare(np.linspace(lo, hi, self.nodes), hi)
        # densities may be steep (even singular) toward the support edge, so
        # nodes are geometric in the distance from it
        hi = t / 2.0 + 1e-9 * abs(t)
        if hi > edge:
            span = hi - edge
            self.logpdf.prepare(edge + np.geomspace(span * 1e-9, span, self.nodes), hi)

    def sf(self, x):
        return math.exp(self.logsf(x))


def _panel_edges(lo: float, hi: float, probes, ladder: float) -> list[float]:
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
        step /= ladder
    return sorted(edges)


def _log_quad_panels(log_g, lo: float, hi: float, probes,
                     tol_rel: float) -> tuple[float, float]:
    """Integral of exp(log_g) over [lo, hi] by per-panel normalized quadrature."""
    if hi <= lo:
        return 0.0, 0.0
    ladder = 4.0 if tol_rel < 1e-7 else 16.0
    edges = _panel_edges(lo, hi, probes, ladder)
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
                                 math.exp(min(best, 300.0)) * (b - a) < 1e-18 * total):
            continue

        def integrand(x, m=best):
            v = log_g(x)
            return math.exp(v - m) if v > -math.inf else 0.0

        with warnings.catch_warnings():
            # panel-level roundoff reports are expected near interpolant kinks;
            # the per-panel error estimate is still accumulated and checked
            warnings.simplefilter("ignore", IntegrationWarning)
            val, err = quad(integrand, a, b, epsabs=1e-15,
                            epsrel=max(1e-11, tol_rel / 10), limit=200)
        total += val * math.exp(best)
        total_err += err * math.exp(best)
    return total, total_err


def _t_integral(f_logsf, k_factor, t: float, tol_rel: float) -> tuple[float, float]:
    """int_{-inf}^{t/2} exp(f_logsf(t - x)) dK(x) by panel quadrature."""
    hi = min(t / 2.0, k_factor.support_right)
    lo = k_factor.support_left
    if not math.isfinite(lo):
        lo = min(-1e6, hi - 1e6)  # mass further down is negligible for every factor shipped
    if hi <= lo:
        return 0.0, 0.0

    def log_g(x):
        lp = k_factor.logpdf(x)
        if lp == -math.inf:
            return -math.inf
        return f_logsf(t - x) + lp

    return _log_quad_panels(log_g, lo, hi, k_factor.breaks, tol_rel)


def convolve_pair_sf(a, b, t: float, tol_rel: float = 1e-9,
                     strict: bool = True) -> tuple[float, float]:
    """Survival of the sum of two independent factors at t, with an error bound."""
    i1, e1 = _t_integral(a.logsf, b, t, tol_rel)
    i2, e2 = _t_integral(b.logsf, a, t, tol_rel)
    half = a.sf(t / 2.0) * b.sf(t / 2.0)
    value = i1 + i2 + half
    err = e1 + e2
    if strict and value > 0 and err > tol_rel * value + 1e-300:
        raise QuadratureToleranceError(achieved=err / value, requested=tol_rel)
    return value, err


def _density_convolution(a, b, t: float, tol_rel: float) -> float:
    lo = max(a.support_left, t - b.support_right)
    hi = min(a.support_right, t - b.support_left)
    if hi <= lo:
        return 0.0

    def log_g(x):
        la = a.logpdf(x)
        if la == -math.inf:
            return -math.inf
        lb = b.logpdf(t - x)
        if lb == -math.inf:
            return -math.inf
        return la + lb

    probes = list(a.breaks) + [t - p for p in b.breaks]
    return _log_quad_panels(log_g, lo, hi, probes, tol_rel)[0]


def convolved_sf(factors, t: float, tol_rel: float = 1e-9) -> tuple[float, float]:
    """Survival of a sum of one to four factors by pairwise recursion."""
    if not 1 <= len(factors) <= 4:
        raise ValueError("quadrature convolution takes one to four factors")
    if len(factors) == 1:
        return factors[0].sf(t), 0.0
    if len(factors) == 2:
        return convolve_pair_sf(factors[0], factors[1], t, tol_rel)
    # ConvolvedFactor and _density_convolution work from finite left support
    # edges; every factor then has c > 0, so its right edge is infinite
    if not all(math.isfinite(f.support_left) for f in factors):
        raise ValueError("quadrature convolution of three or more factors needs "
                         "factors bounded below")
    # group so each side of the top split is at most a pair, and precompute
    # interpolants of each composite over the window the outer integrals hit
    def side(part):
        return part[0] if len(part) == 1 else ConvolvedFactor(*part, tol_rel=tol_rel / 4.0)

    mid = len(factors) // 2
    left, right = side(factors[:mid]), side(factors[mid:])
    for side, other in ((left, right), (right, left)):
        if isinstance(side, ConvolvedFactor):
            side.prepare(t, other)
    return convolve_pair_sf(left, right, t, tol_rel, strict=False)


def quadrature_estimate(dist: TailDistribution, seq: WeightSequence, t: float,
                        eps_trunc: float = 1e-9,
                        tol_rel: float = 1e-9) -> OracleEstimate:
    """Deterministic tail value by numerical convolution of the truncated sum."""
    n_trunc, entries = _truncation(seq, eps_trunc)
    if len(entries) > 4:
        raise ValueError(
            f"quadrature oracle supports at most 4 factors; truncation kept {len(entries)}"
        )
    factors = [ScaledFactor(dist, w) for _, w in entries]
    value, _ = convolved_sf(factors, t, tol_rel=tol_rel)
    return OracleEstimate(t=t, p_hat=value, std_err=0.0, n_samples=0,
                          truncation_n=n_trunc,
                          truncation_bias_bound=_truncation_bias_bound(
                              dist, seq, n_trunc, t, value),
                          seed=0, method="quadrature")


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
    statistical error plus the remainder-scale allowance.
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
    passed = deviation <= band
    return ComparisonTable(
        evaluation=table,
        oracle_p=oracle_p,
        oracle_stderr=oracle_se,
        deviation=deviation,
        deviation_over_benchmark=dev_over_bench,
        passed=passed,
        estimates=estimates,
    )
