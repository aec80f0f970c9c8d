"""Independent oracles used by the tests.

Everything here is deliberately written against the math directly (composition
sums, Richardson-extrapolated finite differences, multinomial expansions,
closed-form special values) and never calls the code paths it is checking.
"""

from __future__ import annotations

import math
from itertools import product

import numpy as np
from scipy.optimize import brentq


def compositions(total: int, parts: int):
    """All tuples of `parts` positive integers summing to `total`."""
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


def faa_di_bruno_ratio(hazard_values, k: int) -> float:
    """S^(k)/S via the composition sum: sum over i of ((-1)^i / i!) times
    sum over n_1+..+n_i = k of k!/(n_1! .. n_i!) * prod h^(n_j - 1)."""
    if k == 0:
        return 1.0
    total = 0.0
    for i in range(1, k + 1):
        inner = 0.0
        for comp in compositions(k, i):
            coeff = math.factorial(k)
            prod = 1.0
            for n in comp:
                coeff //= math.factorial(n)
                prod *= hazard_values[n - 1]
            inner += coeff * prod
        total += ((-1) ** i / math.factorial(i)) * inner
    return total


def hand_survival_ratio(hazard_values, k: int) -> float:
    """Hand-derived S^(k)/S for k <= 4 in terms of h and its derivatives."""
    h = hazard_values[0]
    h1 = hazard_values[1] if k >= 2 else 0.0
    h2 = hazard_values[2] if k >= 3 else 0.0
    h3 = hazard_values[3] if k >= 4 else 0.0
    if k == 0:
        return 1.0
    if k == 1:
        return -h
    if k == 2:
        return -h1 + h * h
    if k == 3:
        return -h2 + 3 * h1 * h - h ** 3
    if k == 4:
        return -h3 + 4 * h * h2 + 3 * h1 ** 2 - 6 * h1 * h ** 2 + h ** 4
    raise ValueError("hand forms available for k <= 4")


def _central_stencil(f, x: float, k: int, step: float) -> float:
    if k == 1:
        return (f(x + step) - f(x - step)) / (2 * step)
    if k == 2:
        return (f(x + step) - 2 * f(x) + f(x - step)) / step**2
    if k == 3:
        return (f(x + 2 * step) - 2 * f(x + step) + 2 * f(x - step)
                - f(x - 2 * step)) / (2 * step**3)
    if k == 4:
        return (f(x + 2 * step) - 4 * f(x + step) + 6 * f(x)
                - 4 * f(x - step) + f(x - 2 * step)) / step**4
    raise ValueError("finite differences available for k <= 4")


def richardson_derivative(f, x: float, k: int, step: float) -> float:
    """Fourth-order finite difference: Richardson combination of central stencils."""
    coarse = _central_stencil(f, x, k, step)
    fine = _central_stencil(f, x, k, step / 2)
    return (4.0 * fine - coarse) / 3.0


def multinomial_moment(weights, moments, n: int) -> float:
    """E[(sum_j w_j X_j)^n] for independent X_j with the given raw moments,
    by direct multinomial expansion (exponential in len(weights), tests only)."""
    total = 0.0
    m = len(weights)
    for ks in product(range(n + 1), repeat=m):
        if sum(ks) != n:
            continue
        coeff = math.factorial(n)
        term = 1.0
        for w, k in zip(weights, ks):
            coeff //= math.factorial(k)
            term *= w**k * moments[k]
        total += coeff * term
    return total


def weibull_raw_moment(a: float, k: int, symmetric: bool = False) -> float:
    """Closed form: E[X^k] = Gamma(k/a + 1) for the one-sided stretched
    exponential; the symmetric version zeroes odd orders and keeps even ones."""
    if symmetric and k % 2 == 1:
        return 0.0
    return math.gamma(k / a + 1.0)


def geometric_power_sum(first: float, ratio: float, n: int) -> float:
    """sum_{k>=0} (first * ratio^k)^n."""
    return first**n / (1.0 - ratio**n)


def brentq_quantile(dist, p: float) -> float:
    """Quantile of a linear-ramp-body distribution, scalar brentq on the
    tail's log-survival log S(t) = log(1 - p): the reference for the
    library's array quantile solver."""
    up = dist.upper
    if p <= 1.0 - up.sbar_t0:
        return dist.body_left + p / (1.0 - up.sbar_t0) * (up.t0 - dist.body_left)
    target = math.log1p(-p)
    if up.log_survival(up.t0) <= target:  # p rounds onto the body mass
        return up.t0
    hi = 2.0 * up.t0
    while up.log_survival(hi) > target:
        hi *= 2.0
    return brentq(lambda t: up.log_survival(t) - target, up.t0, hi,
                  xtol=1e-300, rtol=1e-15)


def log_power_sum_reference(terms, t):
    """sum kappa * t^rho * (log t)^gamma as one array formula: a scalar t
    becomes a 0-d array, so t^rho and log t take numpy's ufunc loops.  The
    reference for the bits of LogPowerSum's scalar and array paths."""
    t = np.asarray(t, dtype=float)
    logt = np.log(t)
    out = np.zeros_like(t)
    for kappa, rho, gamma in terms:
        piece = kappa * t**rho
        if gamma != 0.0:
            piece = piece * logt**gamma
        out = out + piece
    return float(out) if out.ndim == 0 else out


def two_branch_symmetric_ppf(one_sided, p):
    """Quantile of the symmetric version of a closed-form law, from the
    one-sided law's quantile: the upper branch at 1 - 2(1 - p) for p >= 1/2,
    the mirrored lower branch at 1 - 2p below, both clipped below 1.  The
    reference for the bits of the library's one-call symmetric quantile."""
    p = np.asarray(p, dtype=float)
    top = np.nextafter(1.0, 0.0)
    up = one_sided.ppf(np.clip(1.0 - 2.0 * (1.0 - p), 0.0, top))
    down = -np.asarray(one_sided.ppf(np.clip(1.0 - 2.0 * p, 0.0, top)))
    out = np.where(p >= 0.5, up, down)
    return float(out) if out.ndim == 0 else out
