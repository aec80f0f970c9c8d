"""Full distributions assembled from hazard-rate tails plus an explicit body.

A TailDistribution combines an upper-tail HazardModel, a body CDF and density
on the interval between the tail anchors, and a quantile function for the
samplers.  A symmetric law is two-sided: its lower tail is the upper one
mirrored, P(X < -x) = P(X > x) beyond the anchor.  Moments are computed
by adaptive quadrature of the survival decomposition

    E[X^k] = k * int_0^inf x^(k-1) [ P(X > x) + (-1)^k P(X < -x) ] dx

and memoized.  A ScaledFactor is the law of c * X, the one object that the
expansion, conditional Monte Carlo and quadrature read scaled tails from.

Built-in families:

    weibull_type(a)     S(t) = exp(-t^a), 0 < a < 1, support [0, inf)
    log_weibull(a)      S(t) = exp(-(log t)^a), 1 < a < 2, support [1, inf)
    lognormal_type(th)  S(t) = exp(-th * log(t)^2), support [1, inf)
    custom_hazard(...)  hazard given as a sum of kappa * t^rho * log(t)^gamma
    log_power_mixture   S(t) = sum_i a_i exp(-psi_i(t)) with psi_i a sum of
                        powers of log(scale_i * t); exposes its signed pieces
                        for cancellation detection

Each closed-form family accepts symmetric=True, which mirrors half the mass
to the negative axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Sequence

import numpy as np
from scipy.integrate import quad

from .errors import (DegenerateWeightError, QuadratureToleranceError,
                     UnsupportedSignError)
from .hazard import HazardModel, LogPowerSum

__all__ = [
    "TailDistribution",
    "ScaledFactor",
    "weibull_type",
    "log_weibull",
    "lognormal_type",
    "custom_hazard",
    "log_power_mixture",
]

_JUNCTION_TOL = 1e-12
_QUAD_KW = dict(epsabs=1e-13, epsrel=1e-11, limit=400)
# a moment whose summed quad error estimate exceeds this share of it raises
_MOMENT_TOL = 1e-8


@dataclass(frozen=True)
class TailDistribution:
    """One innovation distribution: body CDF and density plus a hazard-rate
    upper tail; symmetric=True mirrors that tail below -upper.t0, so the body
    then spans [-t0, t0].  ScaledFactor gives the law of c * X."""

    upper: HazardModel
    body_cdf: Callable
    body_pdf: Callable
    ppf: Callable
    body_left: float
    symmetric: bool = False
    name: str = "custom"
    quad_breaks: tuple[float, ...] = ()
    _moment_cache: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        gap = abs(self.body_cdf(self.upper.t0) - (1.0 - self.upper.sbar_t0))
        if gap > _JUNCTION_TOL:
            raise ValueError(f"body/upper-tail junction discontinuity {gap:.3e}")
        if self.symmetric:
            gap = abs(self.body_cdf(self.body_left) - self.upper.sbar_t0)
            if gap > _JUNCTION_TOL:
                raise ValueError(f"body/lower-tail junction discontinuity {gap:.3e}")

    # -- pointwise CDF machinery ------------------------------------------

    def cdf(self, x: float) -> float:
        if x >= self.upper.t0:
            return 1.0 - self.upper.survival(x)
        if x <= self.body_left:
            if self.symmetric and -x >= self.upper.t0:
                return self.upper.survival(-x)
            return 0.0
        return self.body_cdf(x)

    def sf(self, x: float) -> float:
        if x >= self.upper.t0:
            return self.upper.survival(x)
        return 1.0 - self.cdf(x)

    def logsf(self, x: float) -> float:
        if x >= self.upper.t0:
            return self.upper.log_survival(x)
        return math.log1p(-self.cdf(x))

    def pdf(self, x: float) -> float:
        if x >= self.upper.t0:
            return self.upper.hazard(x) * self.upper.survival(x)
        if x <= self.body_left:
            if self.symmetric and -x >= self.upper.t0:
                return self.upper.hazard(-x) * self.upper.survival(-x)
            return 0.0
        return self.body_pdf(x)

    @property
    def support_left(self) -> float:
        return -math.inf if self.symmetric else self.body_left

    # -- vectorized CDF paths for the samplers ------------------------------

    def sf_batch(self, x) -> np.ndarray:
        return self._tail_batch(x, False)

    def cdf_batch(self, x) -> np.ndarray:
        return self._tail_batch(x, True)

    def _tail_batch(self, x, lower: bool) -> np.ndarray:
        """sf, or cdf with lower=True, over an array: sbar_t0 * exp(-cum_hazard)
        on the points in that tail (on the whole array, ungathered, when all
        are), the scalar path elsewhere and wherever the cumulated hazard raises.
        A lower tail exists only when symmetric, as the upper one read at -x."""
        x = np.asarray(x, dtype=float)
        model = self.upper
        s, scalar = (-x, self.cdf) if lower else (x, self.sf)
        out = np.empty_like(x)
        rest = np.ones(x.shape, dtype=bool)
        if self.symmetric or not lower:
            tail = s >= model.t0
            try:
                if tail.all():
                    return model.sbar_t0 * np.exp(-np.asarray(model.cum_hazard(s), dtype=float))
                if tail.any():
                    cum = np.asarray(model.cum_hazard(s[tail]), dtype=float)
                    out[tail] = model.sbar_t0 * np.exp(-cum)
                    rest = ~tail
            except (TypeError, ValueError):
                pass
        if rest.any():
            out[rest] = [scalar(v) for v in x[rest]]
        return out

    # -- moments -----------------------------------------------------------

    def moment(self, k: int) -> float:
        if k < 0:
            raise ValueError("moment order must be nonnegative")
        if k == 0:
            return 1.0
        if self.symmetric and k % 2 == 1:
            return 0.0
        cached = self._moment_cache.get(k)
        if cached is None:
            cached = self._moment_by_quadrature(k)
            self._moment_cache[k] = cached
        return cached

    def moments(self, order: int) -> tuple[float, ...]:
        return tuple(self.moment(i) for i in range(order + 1))

    def _tail_power_integral(self, k: int, upper: bool) -> tuple[float, float]:
        """int_0^inf x^(k-1) * P(side) dx for one side of the axis, with quad's
        error estimate (QUADPACK can return it negative on [anchor, inf))."""
        if not (upper or self.symmetric):
            return self._body_negative_integral(k)
        weight = self.sf if upper else (lambda x: self.cdf(-x))
        anchor = self.upper.t0

        def f(x):
            return x ** (k - 1) * weight(x)

        pts = sorted({p for p in (abs(b) for b in self.quad_breaks) if 0.0 < p < anchor})
        head, head_err = quad(f, 0.0, anchor, points=pts or None, **_QUAD_KW)
        tail, tail_err = quad(f, anchor, math.inf, **_QUAD_KW)
        return head + tail, abs(head_err) + abs(tail_err)

    def _body_negative_integral(self, k: int) -> tuple[float, float]:
        if self.body_left >= 0:
            return 0.0, 0.0
        f = lambda x: x ** (k - 1) * self.cdf(-x)
        val, err = quad(f, 0.0, -self.body_left, **_QUAD_KW)
        return val, abs(err)

    def _moment_by_quadrature(self, k: int) -> float:
        pos, pos_err = self._tail_power_integral(k, upper=True)
        neg, neg_err = self._tail_power_integral(k, upper=False)
        moment = k * (pos + (-1) ** k * neg)
        err = k * (pos_err + neg_err)
        if err > _MOMENT_TOL * abs(moment):
            raise QuadratureToleranceError(
                achieved=err / abs(moment) if moment else math.inf, requested=_MOMENT_TOL)
        return moment


class ScaledFactor:
    """The law of c * X for an innovation X and a scale c != 0: the one place
    that knows what the sign of a scale means.

    Over the full range, P(c*X > x) is S(x/c) for c > 0 and F(x/c) for c < 0,
    on any law.  The tail-domain reads (log_tail_sf, tail_derivs_signed_log,
    tail_components) take the upper tail at t/|c|; for c < 0 that is the
    survival of -X, which only a symmetric law has a tail model for.
    """

    def __init__(self, dist: TailDistribution, c: float):
        if c == 0.0:
            raise DegenerateWeightError("scale c = 0 is the point mass at zero")
        self.dist = dist
        self.c = c
        self.log_abs_c = math.log(abs(c))

    # the support and the panel breaks serve quadrature alone, so only it pays
    @cached_property
    def support_left(self) -> float:
        return self.c * self.dist.support_left if self.c > 0 else -math.inf

    @cached_property
    def support_right(self) -> float:
        return math.inf if self.c > 0 else self.c * self.dist.support_left

    @cached_property
    def breaks(self) -> tuple[float, ...]:
        dist = self.dist
        pts = {dist.body_left, dist.upper.t0}
        if dist.symmetric:
            pts.add(-dist.upper.t0)
        pts.update(dist.quad_breaks)
        return tuple(sorted(self.c * p for p in pts))

    def sf(self, x: float) -> float:
        return self.dist.sf(x / self.c) if self.c > 0 else self.dist.cdf(x / self.c)

    def sf_batch(self, x) -> np.ndarray:
        return self.dist.sf_batch(x / self.c) if self.c > 0 else self.dist.cdf_batch(x / self.c)

    def logsf(self, x: float) -> float:
        if self.c > 0:
            return self.dist.logsf(x / self.c)
        # in the mirrored lower tail, its own log-survival: the linear
        # complement loses precision in subnormals and then underflows to -inf
        upper = self.dist.upper
        if self.dist.symmetric and x / -self.c >= upper.t0:
            return upper.log_survival(x / -self.c)
        v = self.sf(x)
        return math.log(v) if v > 0 else -math.inf

    def logpdf(self, x: float) -> float:
        v = self.dist.pdf(x / self.c)
        return -math.inf if v <= 0.0 else math.log(v) - self.log_abs_c

    def _tail_arg(self, t: float) -> float:
        if self.c < 0 and not self.dist.symmetric:
            raise UnsupportedSignError(
                "negative scale needs a symmetric law (distribution vanishes below)")
        return t / abs(self.c)

    def log_tail_sf(self, t: float) -> float:
        """log P(c*X > t)."""
        return self.dist.upper.log_survival(self._tail_arg(t))

    def tail_derivs_signed_log(self, k: int, t: float) -> list[tuple[float, float]]:
        """(sign, log|.|) of the j-th derivative of t -> P(c*X > t) for j = 0..k:
        each derivative pulls out one factor |c|^-1, so order j is |c|^-j times
        the upper tail's j-th derivative at t/|c|."""
        x = self._tail_arg(t)
        return [(sign, logabs - j * self.log_abs_c) for j, (sign, logabs)
                in enumerate(self.dist.upper.survival_derivatives_signed_log(k, x))]

    def tail_components(self, t: float) -> np.ndarray | None:
        """Signed closed-form pieces of P(c*X > t) when the tail exposes them."""
        x = self._tail_arg(t)
        if self.dist.upper.tail_components is None:
            return None
        return np.asarray(self.dist.upper.tail_components(x), dtype=float)


# ---------------------------------------------------------------------------
# the two tail shapes: S = exp(-psi) in closed form, and a hazard-defined tail
# above a linear body
# ---------------------------------------------------------------------------


def _closed_form(name, base_sf, base_pdf, psi_inv, terms, cum_hazard, t0,
                 support_left, symmetric, smooth_order, **metadata):
    """A family with S(t) = exp(-psi(t)) in closed form above support_left.

    base_sf and base_pdf are the scalar one-sided survival and density,
    guarded at the support edge; base_sf stays in closed form so anchors far
    below machine epsilon of 1 stay accurate, and the body CDF is its
    complement.  psi_inv maps -log(1 - p) to the quantile, on arrays.  The
    tail above t0 has hazard LogPowerSum(terms) and the family's own
    cum_hazard (psi(t) - psi(t0) would round differently); metadata declares
    its regime.  With symmetric=True both sides share one tail model and
    each carries half the mass.
    """
    sbar = base_sf(t0)
    upper = HazardModel(hazard_derivs=LogPowerSum(terms).hazard_derivatives(smooth_order),
                        t0=t0, sbar_t0=0.5 * sbar if symmetric else sbar,
                        cum_hazard=cum_hazard, smooth_order=smooth_order, **metadata)
    breaks = (support_left, t0)

    def base_ppf(p):
        out = psi_inv(-np.log1p(-np.asarray(p, dtype=float)))
        return float(out) if out.ndim == 0 else out

    if not symmetric:
        return TailDistribution(
            upper=upper,
            body_cdf=lambda x: 1.0 - base_sf(x) if x > support_left else 0.0,
            body_pdf=base_pdf,
            ppf=base_ppf,
            body_left=support_left,
            name=name,
            quad_breaks=breaks,
        )

    def body_cdf(x):
        # halves of the base CDF, not of base_sf: the two round differently
        base_cdf = 1.0 - base_sf(abs(x))
        return 1.0 - 0.5 * (1.0 - base_cdf) if x >= 0 else 0.5 * (1.0 - base_cdf)

    # the base quantile at |2p - 1|, kept below its singular endpoint at 1;
    # 2p - 1 is exact for p >= 1/2 and is -fl(1 - 2p) below
    top = np.nextafter(1.0, 0.0)

    def ppf(p):
        d = 2.0 * np.asarray(p, dtype=float) - 1.0
        out = np.copysign(base_ppf(np.minimum(np.abs(d), top)), d)
        return float(out) if out.ndim == 0 else out

    return TailDistribution(
        upper=upper,
        body_cdf=body_cdf,
        body_pdf=lambda x: 0.5 * base_pdf(abs(x)),
        ppf=ppf,
        body_left=-t0,
        symmetric=True,
        name=name + "_symmetric",
        quad_breaks=tuple(sorted(set(breaks) | {-b for b in breaks})),
    )


def _ramped(upper: HazardModel, log_sf_slope: Callable, body_left: float,
            name: str) -> TailDistribution:
    """A hazard-defined upper tail above a linear body.

    The body CDF rises linearly from 0 at body_left to 1 - S(t0) at the tail
    anchor t0.  log_sf_slope maps an array t >= t0 to (log S(t), t h(t)).
    Tail quantiles solve log S(t) = log(1 - p) on whole arrays; scalars go
    through the same path as 0-d arrays.  Each element's iterates depend on
    its own p only, so a draw does not depend on how a block of draws is
    partitioned.
    """
    t0 = upper.t0
    mass = 1.0 - upper.sbar_t0
    width = t0 - body_left
    log_sbar = math.log(upper.sbar_t0)

    def body_cdf(x):
        if x <= body_left:
            return 0.0
        if x >= t0:
            return mass
        return mass * (x - body_left) / width

    def body_pdf(x):
        return mass / width if body_left < x < t0 else 0.0

    def ppf(p):
        p = np.asarray(p, dtype=float)
        flat = p.reshape(-1)
        if not np.all((flat > 0.0) & (flat < 1.0)):
            raise ValueError("quantile defined on (0, 1)")
        out = body_left + flat / mass * width
        tail = flat > mass
        if tail.any():
            out[tail] = _tail_quantile(log_sf_slope, t0, log_sbar, np.log1p(-flat[tail]))
        return float(out[0]) if p.ndim == 0 else out.reshape(p.shape)

    return TailDistribution(upper=upper, body_cdf=body_cdf, body_pdf=body_pdf,
                            ppf=ppf, body_left=body_left, name=name,
                            quad_breaks=(body_left, t0))


_PPF_RTOL = 1e-14   # relative step in t (= step in log t) that ends the iteration
_PPF_MAX_ITER = 100


def _tail_quantile(log_sf_slope: Callable, t0: float, log_sbar: float,
                   target: np.ndarray) -> np.ndarray:
    """Solve log S(t) = target elementwise for t >= t0, where log S(t0) = log_sbar.

    Safeguarded Newton iteration in u = log t (Numerical Recipes' rtsafe):
    d log S / du = -t h(t), so the Newton step is

        u <- u + (log S(t) - target) / (t h(t)).

    Each element keeps a bracket [lo, hi] with log S(lo) > target >= log S(hi),
    found by doubling t from t0.  The iteration starts at hi.  A Newton step
    is taken when it lands inside the bracket, endpoints included (a strict
    test rejects iterates that have converged onto an endpoint), and, after
    the first, is at most half the step before it; otherwise the bracket is
    bisected.  Where log S is concave in u, as for the mixtures, the iterates
    from hi fall monotonically onto the root.  Only elements still moving are
    evaluated.  The stop test is a relative step of _PPF_RTOL: rounding in
    log S rules out an ulp-level test.
    """
    t = np.full(target.shape, t0)
    # a p that rounds onto the body mass has its root at the anchor
    live = np.flatnonzero(target < log_sbar)
    if not live.size:
        return t
    goal = target[live]
    lo = t[live]
    hi = 2.0 * lo
    grow = np.flatnonzero(log_sf_slope(hi)[0] > goal)
    while grow.size:
        lo[grow] = hi[grow]
        hi[grow] *= 2.0
        if hi[grow].max() > 1e300:
            raise RuntimeError("quantile bracket expansion failed")
        grow = grow[log_sf_slope(hi[grow])[0] > goal[grow]]
    lo, hi = np.log(lo), np.log(hi)
    u, step = hi, np.full(hi.shape, np.inf)
    for _ in range(_PPF_MAX_ITER):
        log_s, slope = log_sf_slope(np.exp(u))
        f = log_s - goal
        right = f > 0.0
        lo = np.where(right, u, lo)
        hi = np.where(right, hi, u)
        newton = u + f / slope
        take = ((newton >= lo) & (newton <= hi)
                & (np.abs(2.0 * f) <= np.abs(step * slope)))
        nxt = np.where(take, newton, 0.5 * (lo + hi))
        step = nxt - u
        done = np.abs(step) <= _PPF_RTOL * np.maximum(1.0, np.abs(nxt))
        u = nxt
        if done.any():
            t[live[done]] = np.exp(u[done])
            keep = ~done
            live, goal, u, lo, hi, step = (a[keep] for a in (live, goal, u, lo, hi, step))
            if not live.size:
                return t
    raise RuntimeError("quantile iteration did not converge")


# ---------------------------------------------------------------------------
# built-in families
# ---------------------------------------------------------------------------

_DEFAULT_SMOOTH_ORDER = 8


def weibull_type(a: float, t0: float = 2.0, symmetric: bool = False,
                 smooth_order: int = _DEFAULT_SMOOTH_ORDER) -> TailDistribution:
    """Stretched-exponential tail S(t) = exp(-t^a) with 0 < a < 1."""
    if not 0.0 < a < 1.0:
        raise ValueError("weibull_type needs 0 < a < 1 (rapidly varying, subexponential)")
    if t0 <= 1.0:
        raise ValueError("t0 must exceed 1")
    return _closed_form(
        f"weibull_type(a={a})",
        lambda x: math.exp(-(x ** a)) if x > 0 else 1.0,
        lambda x: a * x ** (a - 1.0) * math.exp(-(x ** a)) if x > 0 else 0.0,
        lambda y: y ** (1.0 / a),
        ((a, a - 1.0, 0.0),),
        lambda t: t**a - t0**a,
        t0, 0.0, symmetric, smooth_order,
        rv_index=a - 1.0,
    )


def log_weibull(a: float, t0: float = math.e, symmetric: bool = False,
                smooth_order: int = _DEFAULT_SMOOTH_ORDER) -> TailDistribution:
    """Tail S(t) = exp(-(log t)^a) with 1 < a < 2, support [1, inf)."""
    if not 1.0 < a < 2.0:
        raise ValueError("log_weibull needs 1 < a < 2 (hazard below the critical scale)")
    if t0 <= 1.0:
        raise ValueError("t0 must exceed 1")
    return _closed_form(
        f"log_weibull(a={a})",
        lambda x: math.exp(-(math.log(x) ** a)) if x > 1.0 else 1.0,
        lambda x: (a * math.log(x) ** (a - 1.0) / x
                   * math.exp(-(math.log(x) ** a))) if x > 1.0 else 0.0,
        lambda y: np.exp(y ** (1.0 / a)),
        ((a, -1.0, a - 1.0),),
        lambda t: np.log(t) ** a - math.log(t0) ** a,
        t0, 1.0, symmetric, smooth_order,
        rv_index=-1.0, log_exponent=a - 1.0,
    )


def lognormal_type(theta: float, t0: float = math.e, symmetric: bool = False,
                   smooth_order: int = _DEFAULT_SMOOTH_ORDER) -> TailDistribution:
    """Tail S(t) = exp(-theta * log(t)^2); hazard ~ 2*theta * t^-1 log t."""
    if not theta > 0.0:
        raise ValueError("lognormal_type needs theta > 0")
    if t0 <= 1.0:
        raise ValueError("t0 must exceed 1")
    return _closed_form(
        f"lognormal_type(theta={theta})",
        lambda x: math.exp(-theta * math.log(x) ** 2) if x > 1.0 else 1.0,
        lambda x: (2.0 * theta * math.log(x) / x
                   * math.exp(-theta * math.log(x) ** 2)) if x > 1.0 else 0.0,
        lambda y: np.exp(np.sqrt(y / theta)),
        ((2.0 * theta, -1.0, 1.0),),
        lambda t: theta * (np.log(t) ** 2 - math.log(t0) ** 2),
        t0, 1.0, symmetric, smooth_order,
        rv_index=-1.0, log_exponent=1.0, lambda_coeff=2.0 * theta,
    )


# ---------------------------------------------------------------------------
# custom constructors
# ---------------------------------------------------------------------------


def custom_hazard(terms: Sequence[tuple[float, float, float]],
                  t0: float,
                  sbar_t0: float,
                  rv_index: float,
                  log_exponent: float = 0.0,
                  lambda_coeff: float | None = None,
                  smooth_order: int = _DEFAULT_SMOOTH_ORDER,
                  body_left: float = 0.0,
                  name: str = "custom") -> TailDistribution:
    """One-sided distribution with hazard h(t) = sum kappa * t^rho * log(t)^gamma.

    Metadata is declared by the caller, matching the convention that
    regular-variation indices cannot be inferred from finitely many values.
    The body below t0 is a linear ramp carrying the remaining mass.
    """
    h = LogPowerSum(tuple(tuple(map(float, trm)) for trm in terms))
    upper = HazardModel(
        hazard_derivs=h.hazard_derivatives(smooth_order),
        t0=t0,
        sbar_t0=sbar_t0,
        cum_hazard=h.antiderivative_from(t0),
        rv_index=rv_index,
        log_exponent=log_exponent,
        lambda_coeff=lambda_coeff,
        smooth_order=smooth_order,
    )
    log_sbar = math.log(sbar_t0)
    return _ramped(upper, lambda t: (log_sbar - upper.cum_hazard(t), t * h(t)),
                   body_left, name)


def _xp(t):
    """math for a scalar (a 0-d array included), numpy for an array."""
    return np if getattr(t, "ndim", 0) else math


def log_power_mixture(components: Sequence[tuple[float, float, Sequence[tuple[float, float]]]],
                      t0: float,
                      body_left: float = 0.0,
                      name: str = "log_power_mixture",
                      check_grid_decades: float = 8.0) -> TailDistribution:
    """Signed mixture tail S(t) = sum_i a_i * exp(-sum_j w_ij * log(b_i t)^e_ij).

    Each component is (coeff a_i, scale b_i, [(w_ij, e_ij), ...]).  The first
    component must be the asymptotically dominant one; metadata derives from
    its leading log power (largest exponent).  The signed pieces are exposed
    through the model's tail_components hook so the expansion evaluator can
    report cancellations between them.  Smoothness order is 0: these models
    serve the regime where expansions carry no derivative terms.
    """
    comps = [(float(a), float(b), tuple((float(w), float(e)) for w, e in ts))
             for a, b, ts in components]
    if not comps:
        raise ValueError("mixture needs at least one component")
    if t0 <= 1.0:
        raise ValueError("t0 must exceed 1")

    def psi(xp, b, ts, t):
        lg = xp.log(b * t)
        return sum(w * lg**e for w, e in ts)

    def psi_prime(xp, b, ts, t):
        lg = xp.log(b * t)
        return sum(w * e * lg ** (e - 1.0) for w, e in ts) / t

    # One formula for scalars and arrays.  Scalars go through math, which
    # keeps the values that classify, expand and evaluate record bit for bit
    # (numpy's exp differs from math.exp in the last bit on some inputs);
    # arrays broadcast through numpy, one row per component.
    def component_values(t):
        xp = _xp(t)
        return np.array([a * xp.exp(-psi(xp, b, ts, t)) for a, b, ts in comps])

    def sf_value(t):
        return float(np.sum(component_values(t)))

    def positive_sum(vals, t):
        total = vals.sum(axis=0)
        if (total <= 0.0).any():
            raise ValueError("mixture survival nonpositive at t = "
                             f"{np.extract(total <= 0.0, t)[0]}")
        return total

    def log_sf(t):
        return _xp(t).log(positive_sum(component_values(t), t))

    def weighted_psi_prime(vals, t):
        xp = _xp(t)
        return sum(v * psi_prime(xp, b, ts, t) for v, (_, b, ts) in zip(vals, comps))

    def hazard_value(t):
        vals = component_values(t)
        return weighted_psi_prime(vals, t) / vals.sum(axis=0)

    def log_sf_slope(t):
        # (log S(t), t h(t)) for the quantile solver, from one evaluation of
        # the components
        vals = component_values(t)
        total = positive_sum(vals, t)
        return np.log(total), t * weighted_psi_prime(vals, t) / total

    # validity: survival must be positive and nonincreasing from t0 onward
    probe = np.geomspace(t0, t0 * 10.0 ** check_grid_decades, 64)
    sf_probe = [sf_value(t) for t in probe]
    if min(sf_probe) <= 0.0 or any(b > a * (1.0 + 1e-12) for a, b in zip(sf_probe, sf_probe[1:])):
        raise ValueError("mixture is not a valid tail on [t0, inf): "
                         "survival must be positive and nonincreasing")
    sbar_t0 = sf_value(t0)
    if not sbar_t0 < 1.0:
        raise ValueError("mixture survival at t0 must be below 1")

    # metadata from the dominant component's leading log power
    lead_w, lead_e = max(comps[0][2], key=lambda we: (we[1], we[0]))
    log_exponent = lead_e - 1.0
    lambda_coeff = 2.0 * lead_w if log_exponent == 1.0 else None

    log_sbar = math.log(sbar_t0)
    upper = HazardModel(
        hazard_derivs=(hazard_value,),
        t0=t0,
        sbar_t0=sbar_t0,
        cum_hazard=lambda t: log_sbar - log_sf(t),
        rv_index=-1.0,
        log_exponent=log_exponent,
        lambda_coeff=lambda_coeff,
        smooth_order=0,
        tail_components=component_values,
    )
    return _ramped(upper, log_sf_slope, body_left, name)
