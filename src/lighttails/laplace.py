"""Laplace characters: truncated differential operators with moment coefficients.

The character of order m of a distribution K with m finite moments is

    L_{K,m} = sum_{i<=m} ((-1)^i / i!) mu_{K,i} D^i,

stored as the coefficient vector a_i = (-1)^i mu_i / i!.  Composition is the
product of truncated polynomials in D (modulo D^(m+1)); it is commutative,
associative, and the character map turns convolution of distributions into
composition of characters, which is what makes the expansion terms computable
without ever convolving distributions.

Moments of the residual sums (the full weighted sum with one factor removed)
are obtained through cumulants: cumulants are additive over independent
summands and homogeneous of degree n under scaling, so the residual cumulant
of order n is kappa_n(F) * sum_{j != i} c_j^n, with the geometric part of the
weight sequence summed in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .distributions import ScaledFactor, TailDistribution
from .weights import WeightSequence

__all__ = [
    "LaplaceCharacter",
    "identity_character",
    "character_from_moments",
    "compose",
    "raw_to_cumulants",
    "cumulants_to_raw",
    "convolve_moments",
    "scale_moments",
    "residual_moments",
    "apply_character",
]


@dataclass(frozen=True)
class LaplaceCharacter:
    """Coefficient vector a_0..a_m with a_i = (-1)^i mu_i / i!; a_0 = 1."""

    coeffs: tuple[float, ...]

    def __post_init__(self):
        if not self.coeffs or self.coeffs[0] != 1.0:
            raise ValueError("a probability distribution has a_0 = mu_0 = 1")

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def moments(self) -> tuple[float, ...]:
        """Raw moments mu_0..mu_m."""
        return tuple((-1) ** i * math.factorial(i) * a for i, a in enumerate(self.coeffs))


def identity_character(order: int) -> LaplaceCharacter:
    """Character of the point mass at 0: the unit of composition."""
    return LaplaceCharacter((1.0,) + (0.0,) * order)


def character_from_moments(moments, order: int) -> LaplaceCharacter:
    """Truncate a moment vector mu_0, mu_1, ... to its order-m character."""
    values = tuple(moments)
    if len(values) - 1 < order:
        raise ValueError(f"character of order {order} needs {order + 1} moments, "
                         f"got {len(values)}")
    return LaplaceCharacter(tuple((-1) ** i / math.factorial(i) * values[i]
                                  for i in range(order + 1)))


def compose(a: LaplaceCharacter, b: LaplaceCharacter) -> LaplaceCharacter:
    """Truncated product: (a o b)_k = sum_{i+j=k} a_i b_j for k <= m."""
    if a.order != b.order:
        raise ValueError(f"order mismatch: {a.order} vs {b.order}")
    m = a.order
    out = [0.0] * (m + 1)
    for i, ai in enumerate(a.coeffs):
        if ai == 0.0:
            continue
        for j in range(m + 1 - i):
            out[i + j] += ai * b.coeffs[j]
    return LaplaceCharacter(tuple(out))


# ---------------------------------------------------------------------------
# moment / cumulant machinery
# ---------------------------------------------------------------------------


def raw_to_cumulants(values) -> tuple[float, ...]:
    """kappa_1..kappa_m from raw moments (mu_0..mu_m), standard recursion."""
    mu = tuple(values)
    m = len(mu) - 1
    kappa = [0.0] * (m + 1)  # kappa[0] unused
    for n in range(1, m + 1):
        acc = mu[n]
        for k in range(1, n):
            acc -= math.comb(n - 1, k - 1) * kappa[k] * mu[n - k]
        kappa[n] = acc
    return tuple(kappa[1:])


def cumulants_to_raw(kappa) -> tuple[float, ...]:
    """Raw moments mu_0..mu_m from cumulants kappa_1..kappa_m:
    mu_n = sum_{k=0}^{n-1} C(n-1, k) kappa_{k+1} mu_{n-1-k}."""
    kappa = tuple(kappa)
    m = len(kappa)
    mu = [1.0] + [0.0] * m
    for n in range(1, m + 1):
        acc = 0.0
        for k in range(n):
            acc += math.comb(n - 1, k) * kappa[k] * mu[n - 1 - k]
        mu[n] = acc
    return tuple(mu)


def convolve_moments(a, b) -> tuple[float, ...]:
    """Moments of a sum of independents: mu_n = sum_j C(n,j) mu_{A,j} mu_{B,n-j}."""
    a, b = tuple(a), tuple(b)
    m = min(len(a), len(b)) - 1
    return tuple(sum(math.comb(n, j) * a[j] * b[n - j] for j in range(n + 1))
                 for n in range(m + 1))


def scale_moments(values, c: float) -> tuple[float, ...]:
    """Moments of c*X: mu_n -> c^n mu_n."""
    return tuple(c ** n * mu for n, mu in enumerate(values))


def residual_moments(dist: TailDistribution, seq: WeightSequence, i: int,
                     order: int) -> tuple[float, ...]:
    """Moments mu_0..mu_order of sum_{j != i} c_j X_j via additive,
    scale-homogeneous cumulants."""
    if order == 0:
        return (1.0,)
    base = dist.moments(order)
    kappa_f = raw_to_cumulants(base)
    kappa_res = tuple(kappa_f[n - 1] * seq.residual_power_sum(i, n)
                      for n in range(1, order + 1))
    return cumulants_to_raw(kappa_res)


def apply_character(ch: LaplaceCharacter, dist: TailDistribution, c: float,
                    t: float) -> float:
    """Evaluate (L applied to the scaled survival) at t: sum_i a_i D^i P(cX > .)."""
    total = 0.0
    for a, (sign, logabs) in zip(ch.coeffs,
                                 ScaledFactor(dist, c).tail_derivs_signed_log(ch.order, t)):
        if a != 0.0:
            total += a * sign * math.exp(logabs)
    return total
