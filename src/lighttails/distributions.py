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
import operator
from dataclasses import dataclass, field
from functools import cached_property, reduce
from typing import Callable, Sequence

import numpy as np

from .errors import (DegenerateWeightError, QuadratureToleranceError,
                     UnsupportedSignError)
from .hazard import HazardModel, LogPowerSum, log_abs, quad

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
# -log S at a law's zero point: past exp's underflow at 745.13, with margin
_ZERO_NEG_LOG_SF = 800.0
# a moment whose summed quad error estimate exceeds this share of it raises
_MOMENT_TOL = 1e-8


@dataclass(frozen=True)
class TailDistribution:
    """One innovation distribution: body CDF and density plus a hazard-rate
    upper tail; symmetric=True mirrors that tail below -upper.t0, so the body
    then spans [-t0, t0].  The body is read only inside (body_left, t0), its
    CDF also at the junctions checked here.  ScaledFactor gives the law of c * X.

    zero_point: a point at or past t0 from which sf_batch and the mirrored
    cdf_batch are exactly +0.0 (log-survival at most -800), or inf for a law
    that cannot show one cheaply."""

    upper: HazardModel
    body_cdf: Callable
    body_pdf: Callable
    ppf: Callable
    body_left: float
    symmetric: bool = False
    quad_breaks: tuple[float, ...] = ()
    zero_point: float = math.inf
    _moment_cache: dict = field(default_factory=dict, compare=False, repr=False)
    # the pointwise reads, x -> float, built by __post_init__
    cdf: Callable = field(init=False, repr=False, compare=False)
    sf: Callable = field(init=False, repr=False, compare=False)
    logsf: Callable = field(init=False, repr=False, compare=False)
    pdf: Callable = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.body_left < self.upper.t0:
            raise ValueError("body_left must lie below the tail anchor t0")
        gap = abs(self.body_cdf(self.upper.t0) - (1.0 - self.upper.sbar_t0))
        if gap > _JUNCTION_TOL:
            raise ValueError(f"body/upper-tail junction discontinuity {gap:.3e}")
        if self.symmetric:
            gap = abs(self.body_cdf(self.body_left) - self.upper.sbar_t0)
            if gap > _JUNCTION_TOL:
                raise ValueError(f"body/lower-tail junction discontinuity {gap:.3e}")

        # Quadrature makes millions of these calls, so each is one closure
        # over the law's constants.  The tail is log S = log S(t0) - H, as in
        # HazardModel.log_survival, and its density h * S.
        t0, left, symmetric = self.upper.t0, self.body_left, self.symmetric
        body_cdf, body_pdf = self.body_cdf, self.body_pdf
        hazard, cum = self.upper.hazard_derivs[0], self.upper.cum_hazard
        lsb, exp = math.log(self.upper.sbar_t0), math.exp

        def cdf(x):
            if x >= t0:
                return 1.0 - exp(lsb - cum(x))
            if x <= left:
                return exp(lsb - cum(-x)) if symmetric and -x >= t0 else 0.0
            return body_cdf(x)

        def sf(x):
            return exp(lsb - cum(x)) if x >= t0 else 1.0 - cdf(x)

        def logsf(x):
            return lsb - cum(x) if x >= t0 else math.log1p(-cdf(x))

        def pdf(x):
            if x >= t0:
                return hazard(x) * exp(lsb - cum(x))
            if x <= left:
                return hazard(-x) * exp(lsb - cum(-x)) if symmetric and -x >= t0 else 0.0
            return body_pdf(x)

        for name, read in (("cdf", cdf), ("sf", sf), ("logsf", logsf), ("pdf", pdf)):
            object.__setattr__(self, name, read)

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
        are) and the scalar path elsewhere.  A lower tail exists only when
        symmetric, as the upper one read at -x."""
        x = np.asarray(x, dtype=float)
        model = self.upper
        s, scalar = (-x, self.cdf) if lower else (x, self.sf)
        if self.symmetric or not lower:
            tail = s >= model.t0
            if tail.all():
                return model.sbar_t0 * np.exp(-np.asarray(model.cum_hazard(s), dtype=float))
        else:
            tail = np.zeros(x.shape, dtype=bool)
        out = np.empty_like(x)
        if tail.any():
            cum = np.asarray(model.cum_hazard(s[tail]), dtype=float)
            out[tail] = model.sbar_t0 * np.exp(-cum)
        rest = ~tail
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
        error estimate (QUADPACK can return it negative on [anchor, inf)).  A
        side without a tail, below a one-sided law, is its body alone, on
        [0, max(0, -body_left)]."""
        weight = self.sf if upper else (lambda x: self.cdf(-x))
        anchor = self.upper.t0

        def f(x):
            return x ** (k - 1) * weight(x)

        pts = sorted({p for p in (abs(b) for b in self.quad_breaks) if 0.0 < p < anchor})
        if not (upper or self.symmetric):
            if self.body_left >= 0.0:
                return 0.0, 0.0
            body, body_err = quad(f, 0.0, -self.body_left, **_QUAD_KW)
            return body, abs(body_err)
        head, head_err = quad(f, 0.0, anchor, points=pts or None, **_QUAD_KW)
        tail, tail_err = quad(f, anchor, math.inf, **_QUAD_KW)
        return head + tail, abs(head_err) + abs(tail_err)

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
    on any law.  The tail-domain reads (log_tail_sf, tail_reads) take the
    upper tail at t/|c|; for c < 0 that is the survival of -X, which only a
    symmetric law has a tail model for.
    """

    def __init__(self, dist: TailDistribution, c: float):
        if c == 0.0:
            raise DegenerateWeightError("scale c = 0 is the point mass at zero")
        self.dist = dist
        self.c = c
        self.log_abs_c = math.log(abs(c))

    @property
    def zero_point(self) -> float:
        """|c| times the law's zero point: sf_batch is exactly +0.0 from here on."""
        return abs(self.c) * self.dist.zero_point

    # the scalar reads (one closure each over c and log|c|, which quadrature
    # calls per integrand value), the support and the panel breaks serve
    # quadrature alone, so each is built on first read and only it pays
    @cached_property
    def sf(self) -> Callable[[float], float]:
        side, c = self.dist.sf if self.c > 0 else self.dist.cdf, self.c
        return lambda x: side(x / c)

    @cached_property
    def logsf(self) -> Callable[[float], float]:
        dist, c = self.dist, self.c
        logsf = dist.logsf
        if c > 0:
            return lambda x: logsf(x / c)
        side, t0, symmetric = dist.cdf, dist.upper.t0, dist.symmetric

        def mirrored_logsf(x):
            # in the mirrored lower tail, its own log-survival: the linear
            # complement loses precision in subnormals and then underflows to -inf
            if symmetric and x / -c >= t0:
                return logsf(x / -c)
            return log_abs(side(x / c))

        return mirrored_logsf

    @cached_property
    def logpdf(self) -> Callable[[float], float]:
        pdf, c, log_abs_c, log = self.dist.pdf, self.c, self.log_abs_c, math.log

        def logpdf(x):
            v = pdf(x / c)
            return -math.inf if v <= 0.0 else log(v) - log_abs_c

        return logpdf

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

    def sf_batch(self, x) -> np.ndarray:
        return self.dist.sf_batch(x / self.c) if self.c > 0 else self.dist.cdf_batch(x / self.c)

    def _tail_arg(self, t):
        if self.c < 0 and not self.dist.symmetric:
            raise UnsupportedSignError(
                "negative scale needs a symmetric law (distribution vanishes below)")
        return t / abs(self.c)

    def below_tail(self, t: np.ndarray) -> np.ndarray:
        """Where the tail-domain reads raise DomainError: t / |c| below the anchor."""
        return self._tail_arg(t) < self.dist.upper.t0

    def log_tail_sf(self, t: float) -> float:
        """log P(c*X > t)."""
        return self.dist.upper.log_survival(self._tail_arg(t))

    def tail_reads(self, k: int, t) -> tuple[list[tuple], list | None]:
        """HazardModel.tail_reads of t -> P(c*X > t): (sign, log|.|) of its j-th
        derivative for j = 0..k, which is |c|^-j times the upper tail's at t/|c|,
        and its tail components at each point of t."""
        orders, pieces = self.dist.upper.tail_reads(k, self._tail_arg(t))
        return [(sign, logabs - j * self.log_abs_c)
                for j, (sign, logabs) in enumerate(orders)], pieces


# ---------------------------------------------------------------------------
# the two tail shapes: S = exp(-psi) in closed form, and a hazard-defined tail
# above a linear body
# ---------------------------------------------------------------------------


def _closed_form(base_sf, base_pdf, psi_inv, terms, cum_hazard, t0,
                 support_left, symmetric, **metadata):
    """A family with S(t) = exp(-psi(t)) in closed form above support_left.

    base_sf and base_pdf are the scalar one-sided survival and density,
    guarded at the support edge; base_sf stays in closed form so anchors far
    below machine epsilon of 1 stay accurate, and the body CDF is its
    complement.  psi_inv maps -log(1 - p) to the quantile, on arrays, and
    -log S = 800 to the zero point, which lies above t0 as S(t0) > 0.  The
    tail above t0 has hazard LogPowerSum(terms), _SMOOTH_ORDER times
    differentiable, and the family's own cum_hazard (psi(t) - psi(t0) would
    round differently); metadata declares its regime.  With symmetric=True
    both sides share one tail model and each carries half the mass.
    """
    sbar = base_sf(t0)
    upper = HazardModel(hazard_derivs=LogPowerSum(terms).hazard_derivatives(_SMOOTH_ORDER),
                        t0=t0, sbar_t0=0.5 * sbar if symmetric else sbar,
                        cum_hazard=cum_hazard, **metadata)
    breaks = (support_left, t0)
    zero_point = float(psi_inv(_ZERO_NEG_LOG_SF))

    def base_ppf(p):
        out = psi_inv(-np.log1p(-np.asarray(p, dtype=float)))
        return float(out) if out.ndim == 0 else out

    if not symmetric:
        return TailDistribution(
            upper=upper,
            body_cdf=lambda x: 1.0 - base_sf(x),
            body_pdf=base_pdf,
            ppf=base_ppf,
            body_left=support_left,
            quad_breaks=breaks,
            zero_point=zero_point,
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
        quad_breaks=tuple(sorted(set(breaks) | {-b for b in breaks})),
        zero_point=zero_point,
    )


def _ramped(upper: HazardModel, log_sf_slope: Callable) -> TailDistribution:
    """A hazard-defined upper tail above a linear body.

    The body CDF rises linearly on [0, t0] from 0 to 1 - S(t0), the mass below
    the tail anchor t0.  log_sf_slope maps an array t >= t0 to (log S(t), t h(t)).
    Tail quantiles solve log S(t) = log(1 - p) on whole arrays; scalars go
    through the same path as 0-d arrays.  Each element's iterates depend on
    its own p only, so a draw does not depend on how a block of draws is
    partitioned.
    """
    t0 = upper.t0
    mass = 1.0 - upper.sbar_t0
    log_sbar = math.log(upper.sbar_t0)

    def body_cdf(x):
        return mass * x / t0

    def body_pdf(x):
        return mass / t0

    def ppf(p):
        p = np.asarray(p, dtype=float)
        flat = p.reshape(-1)
        if not np.all((flat > 0.0) & (flat < 1.0)):
            raise ValueError("quantile defined on (0, 1)")
        tail = flat > mass
        out = np.empty_like(flat)  # body draws only: S(t0) = 1 makes mass 0 and none
        out[~tail] = flat[~tail] / mass * t0
        if tail.any():
            out[tail] = _tail_quantile(log_sf_slope, t0, log_sbar, np.log1p(-flat[tail]))
        return float(out[0]) if p.ndim == 0 else out.reshape(p.shape)

    return TailDistribution(upper=upper, body_cdf=body_cdf, body_pdf=body_pdf,
                            ppf=ppf, body_left=0.0, quad_breaks=(0.0, t0))


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

_SMOOTH_ORDER = 8


def weibull_type(a: float, t0: float = 2.0, symmetric: bool = False) -> TailDistribution:
    """Stretched-exponential tail S(t) = exp(-t^a) with 0 < a < 1."""
    if not 0.0 < a < 1.0:
        raise ValueError("weibull_type needs 0 < a < 1 (rapidly varying, subexponential)")
    return _closed_form(
        lambda x: math.exp(-(x ** a)) if x > 0 else 1.0,
        lambda x: a * x ** (a - 1.0) * math.exp(-(x ** a)) if x > 0 else 0.0,
        lambda y: y ** (1.0 / a),
        ((a, a - 1.0, 0.0),),
        lambda t: t**a - t0**a,
        t0, 0.0, symmetric,
        rv_index=a - 1.0,
    )


def log_weibull(a: float, t0: float = math.e, symmetric: bool = False) -> TailDistribution:
    """Tail S(t) = exp(-(log t)^a) with 1 < a < 2, support [1, inf)."""
    if not 1.0 < a < 2.0:
        raise ValueError("log_weibull needs 1 < a < 2 (hazard below the critical scale)")
    return _closed_form(
        lambda x: math.exp(-(math.log(x) ** a)) if x > 1.0 else 1.0,
        lambda x: (a * math.log(x) ** (a - 1.0) / x
                   * math.exp(-(math.log(x) ** a))) if x > 1.0 else 0.0,
        lambda y: np.exp(y ** (1.0 / a)),
        ((a, -1.0, a - 1.0),),
        lambda t: np.log(t) ** a - math.log(t0) ** a,
        t0, 1.0, symmetric,
        rv_index=-1.0, log_exponent=a - 1.0,
    )


def lognormal_type(theta: float, t0: float = math.e, symmetric: bool = False) -> TailDistribution:
    """Tail S(t) = exp(-theta * log(t)^2); hazard ~ 2*theta * t^-1 log t."""
    if not theta > 0.0:
        raise ValueError("lognormal_type needs theta > 0")
    return _closed_form(
        lambda x: math.exp(-theta * math.log(x) ** 2) if x > 1.0 else 1.0,
        lambda x: (2.0 * theta * math.log(x) / x
                   * math.exp(-theta * math.log(x) ** 2)) if x > 1.0 else 0.0,
        lambda y: np.exp(np.sqrt(y / theta)),
        ((2.0 * theta, -1.0, 1.0),),
        lambda t: theta * (np.log(t) ** 2 - math.log(t0) ** 2),
        t0, 1.0, symmetric,
        rv_index=-1.0, log_exponent=1.0, lambda_coeff=2.0 * theta,
    )


# ---------------------------------------------------------------------------
# custom constructors
# ---------------------------------------------------------------------------


def custom_hazard(terms: Sequence[tuple[float, float, float]],
                  t0: float = 2.0,
                  sbar_t0: float = 0.5,
                  *,
                  rv_index: float,
                  log_exponent: float = 0.0,
                  lambda_coeff: float | None = None,
                  smooth_order: int = _SMOOTH_ORDER) -> TailDistribution:
    """One-sided distribution with hazard h(t) = sum kappa * t^rho * log(t)^gamma.

    Metadata is declared by the caller, matching the convention that
    regular-variation indices cannot be inferred from finitely many values.
    The body on [0, t0] is a linear ramp carrying the remaining mass.
    """
    if smooth_order < 0:
        raise ValueError(f"smooth_order must be nonnegative, got {smooth_order}")
    h = LogPowerSum(tuple(tuple(map(float, trm)) for trm in terms))
    upper = HazardModel(
        hazard_derivs=h.hazard_derivatives(smooth_order),
        t0=t0,
        sbar_t0=sbar_t0,
        cum_hazard=h.antiderivative_from(t0),
        rv_index=rv_index,
        log_exponent=log_exponent,
        lambda_coeff=lambda_coeff,
    )
    log_sbar = math.log(sbar_t0)
    return _ramped(upper, lambda t: (log_sbar - upper.cum_hazard(t), t * h(t)))


def _xp(t):
    """math for a scalar (a 0-d array included), numpy for an array."""
    return np if getattr(t, "ndim", 0) else math


def log_power_mixture(components: Sequence[tuple[float, float, Sequence[tuple[float, float]]]],
                      t0: float = 2.0) -> TailDistribution:
    """Signed mixture tail S(t) = sum_i a_i * exp(-sum_j w_ij * log(b_i t)^e_ij).

    Each component is (coeff a_i, scale b_i, [(w_ij, e_ij), ...]).  The first
    component must be the asymptotically dominant one; metadata derives from
    its leading log power (largest exponent).  The signed pieces are exposed
    through the model's cum_and_components hook so the expansion evaluator can
    report cancellations between them.  Smoothness order is 0: these models
    serve the regime where expansions carry no derivative terms.
    """
    comps = [(float(a), float(b), tuple((float(w), float(e)) for w, e in ts))
             for a, b, ts in components]
    if not comps:
        raise ValueError("mixture needs at least one component")
    if t0 <= 1.0:  # the validity probe below runs before HazardModel checks t0
        raise ValueError("t0 must exceed 1")

    def left_sum(items):
        # left to right from 0.0, on any Python: sum() compensates floats from 3.12
        return reduce(operator.add, items, 0.0)

    def psi(xp, b, ts, t):
        lg = xp.log(b * t)
        return sum(w * lg**e for w, e in ts)

    def psi_prime(xp, b, ts, t):
        lg = xp.log(b * t)
        return sum(w * e * lg ** (e - 1.0) for w, e in ts) / t

    # One formula for scalars and arrays.  A scalar read is plain floats
    # through math, no numpy: math keeps the values that classify, expand and
    # evaluate record bit for bit (numpy's exp differs from math.exp in the
    # last bit on some inputs).  Arrays broadcast through numpy, one row per
    # component.
    def component_values(t):
        xp = _xp(t)
        vals = [a * xp.exp(-psi(xp, b, ts, t)) for a, b, ts in comps]
        return vals if xp is math else np.array(vals)

    # a scalar's components add in np.sum's order, which they were recorded
    # in: left to right below 8 terms, numpy's pairwise sum from 8 on
    scalar_sum = left_sum if len(comps) < 8 else (lambda vals: float(np.sum(vals)))

    def component_sum(vals):
        return scalar_sum(vals) if isinstance(vals, list) else vals.sum(axis=0)

    def sf_value(t):
        return scalar_sum(component_values(t))

    def positive_sum(vals, t):
        total = component_sum(vals)
        low = total <= 0.0
        if low if isinstance(low, bool) else low.any():
            raise ValueError(f"mixture survival nonpositive at t = {np.extract(low, t)[0]}")
        return total

    def weighted_psi_prime(vals, t):
        xp = _xp(t)
        return left_sum(v * psi_prime(xp, b, ts, t) for v, (_, b, ts) in zip(vals, comps))

    def hazard_value(t):
        vals = component_values(t)
        return weighted_psi_prime(vals, t) / component_sum(vals)

    def log_sf_slope(t):
        # (log S(t), t h(t)) for the quantile solver, from one evaluation of
        # the components
        vals = component_values(t)
        total = positive_sum(vals, t)
        return np.log(total), t * weighted_psi_prime(vals, t) / total

    # validity: survival must be positive and nonincreasing on 8 decades from t0
    probe = np.geomspace(t0, t0 * 1e8, 64)
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

    def cum_and_components(t):
        # the cumulative hazard and the components it sums, from one evaluation
        vals = component_values(t)
        return log_sbar - _xp(t).log(positive_sum(vals, t)), vals

    upper = HazardModel(
        hazard_derivs=(hazard_value,),
        t0=t0,
        sbar_t0=sbar_t0,
        cum_hazard=lambda t: cum_and_components(t)[0],
        rv_index=-1.0,
        log_exponent=log_exponent,
        lambda_coeff=lambda_coeff,
        cum_and_components=cum_and_components,
    )
    return _ramped(upper, log_sf_slope)
