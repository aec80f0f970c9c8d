"""Hazard-rate representation of light subexponential tails.

A tail is stored as S(t) = S(t0) * exp(-H(t)) for t >= t0, where H is the
cumulated hazard and h = H' is regularly varying with index in [-1, 0),
h -> 0 and t*h(t) -> infinity.  The regime of the weighted-sum expansion is
decided by how h compares with the critical scale t^-1 log t, so each model
carries that comparison as declared metadata:

    rv_index      index of regular variation of h (in [-1, 0))
    log_exponent  gamma with t*h(t) comparable to (log t)^gamma when
                  rv_index == -1 (unused otherwise)
    lambda_coeff  lambda when h(t) ~ lambda * t^-1 log t (log_exponent == 1)

Metadata is declared by the constructor or family, never inferred; the
`validate_metadata` checker estimates the same quantities numerically on a
grid and flags disagreement, but cannot decide limits and never mutates the
model.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from functools import cache, cached_property
from importlib.machinery import PathFinder
from importlib.util import module_from_spec
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, QuadratureToleranceError, SmoothnessError
from .hazardpoly import poly_values, survival_derivative_polys

__all__ = [
    "LogPowerSum",
    "HazardModel",
    "MetadataDiagnostics",
    "validate_metadata",
]

_INDEX_TOL = 0.05  # how far a grid estimate may stray from the declared value


def libm(f: Callable, x: np.ndarray) -> np.ndarray:
    """The scalar f mapped over a 1-d float array through Python floats: numpy's
    exp, log and integer power differ from libm's in the last bit on a few
    percent of inputs, and the artifacts record libm's bits."""
    return np.fromiter(map(f, memoryview(x)), float, x.size)


def log_abs(v: float) -> float:
    return math.log(abs(v)) if v else -math.inf


@cache
def _quadpack():
    """scipy's compiled QUADPACK extension, loaded from its file without the
    scipy.integrate package around it, and not entered in sys.modules."""
    import scipy
    spec = PathFinder.find_spec("_quadpack", [os.path.join(scipy.__path__[0], "integrate")])
    module = module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def quad(f, a: float, b: float, epsabs: float, epsrel: float, limit: int,
         points=None) -> tuple[float, float]:
    """(int_a^b f, QUADPACK's error estimate), with scipy.integrate.quad's bits
    on finite limits, on b = inf and with points on a finite interval.  It
    calls _qagse, _qagie and _qagpe, private entry points of scipy's compiled
    _quadpack (signatures as in scipy 1.17.1), as scipy's quad does, and never
    warns: each caller checks the estimate against its own tolerance.  ier = 6
    (invalid input) raises ValueError; an exception raised by f propagates."""
    if a == b:
        return 0.0, 0.0
    if b < a:
        value, err = quad(f, b, a, epsabs, epsrel, limit, points)
        return -value, err
    if b == math.inf:
        value, err, ier = _quadpack()._qagie(f, a, 1, (), 0, epsabs, epsrel, limit)
    elif points is None:
        value, err, ier = _quadpack()._qagse(f, a, b, (), 0, epsabs, epsrel, limit)
    else:
        inside = np.unique(points)
        inside = np.concatenate((inside[(a < inside) & (inside < b)], (0.0, 0.0)))
        value, err, ier = _quadpack()._qagpe(f, a, b, inside, (), 0, epsabs, epsrel, limit)
    if ier == 6:
        raise ValueError(f"QUADPACK refused its input (limit {limit}, ier 6)")
    return value, err


@dataclass(frozen=True)
class LogPowerSum:
    """Finite sum of kappa * t^rho * (log t)^gamma terms, closed under d/dt.

    This covers every built-in hazard rate: Weibull-type a*t^(a-1) is a
    single term with gamma = 0, the log-family hazards are single terms with
    rho = -1, and hazards with corrections (e.g. t^-1 log t + t^-1) are sums.
    """

    terms: tuple[tuple[float, float, float], ...]  # (kappa, rho, gamma)

    def __call__(self, t):
        """h(t) for a float t (Python or numpy), or elementwise over an array.

        A float skips the array round trip but keeps np.power and np.log:
        their loops differ from libm in the last bit on a few percent of
        inputs, and the quadrature and evaluate artifacts record numpy's
        bits.  A mixture instead reads a float through math and evaluate's grid
        through math mapped over it with libm: its artifacts record math's bits.
        """
        scalar = isinstance(t, float)
        t = t if scalar else np.asarray(t, dtype=float)
        logt = np.log(t) if self._has_log else None
        out = 0.0 if scalar else np.zeros(t.shape)
        for kappa, rho, gamma in self.terms:
            piece = kappa * np.power(t, rho)
            out = out + (piece * logt**gamma if gamma != 0.0 else piece)
        return float(out) if scalar or out.ndim == 0 else out

    @cached_property
    def _has_log(self) -> bool:
        return any(gamma != 0.0 for _, _, gamma in self.terms)

    def derivative(self) -> "LogPowerSum":
        acc: dict[tuple[float, float], float] = {}
        for kappa, rho, gamma in self.terms:
            for k, r, g in ((kappa * rho, rho - 1.0, gamma),
                            (kappa * gamma, rho - 1.0, gamma - 1.0)):
                if k != 0.0:
                    acc[(r, g)] = acc.get((r, g), 0.0) + k
        return LogPowerSum(tuple((k, r, g) for (r, g), k in sorted(acc.items()) if k != 0.0))

    def antiderivative_from(self, t0: float) -> Callable:
        """t -> integral from t0 to t; closed form when possible, quadrature else.

        Closed-form terms broadcast over an array t.  quad takes one upper
        limit at a time, so the quadrature terms of an array t are integrated
        element by element: the scalar fallback of the array paths.  An
        integral whose error estimate misses its tolerance raises
        QuadratureToleranceError.
        """
        closed = []
        numeric = []
        for kappa, rho, gamma in self.terms:
            if rho == -1.0 and gamma != -1.0:
                # integral of t^-1 log^g = log^(g+1) / (g+1)
                closed.append(lambda t, k=kappa, g=gamma: k * (np.log(t) ** (g + 1.0)) / (g + 1.0))
            elif gamma == 0.0 and rho != -1.0:
                closed.append(lambda t, k=kappa, r=rho: k * t ** (r + 1.0) / (r + 1.0))
            else:
                numeric.append((kappa, rho, gamma))

        part = LogPowerSum(tuple(numeric))

        def integral(t):
            val, err = quad(part, t0, t, epsabs=1e-14, epsrel=1e-12, limit=200)
            if err > max(1e-14, 1e-12 * abs(val)):
                raise QuadratureToleranceError(
                    achieved=err / abs(val) if val else math.inf, requested=1e-12)
            return val

        def cum(t):
            total = sum(f(t) - f(t0) for f in closed)
            if numeric:
                total += (integral(t) if np.ndim(t) == 0 else
                          np.reshape([integral(x) for x in np.ravel(t)], np.shape(t)))
            return total

        return cum

    def hazard_derivatives(self, order: int) -> tuple[Callable, ...]:
        out = [self]
        for _ in range(order):
            out.append(out[-1].derivative())
        return tuple(out)


@dataclass(frozen=True)
class HazardModel:
    """One tail, represented through its hazard rate and derivatives.

    hazard_derivs[j] evaluates h^(j) on (t0, infinity), at a float or
    elementwise over an array: tail_reads and the regime checks read arrays.
    cum_hazard(t) is the integral of h from t0 to t, so
    survival(t) = sbar_t0 * exp(-cum_hazard(t)).
    cum_and_components, when present, maps a 1-d array t to cum_hazard(t), with
    the bits of each point's float read, and the signed closed-form pieces whose
    sum is the survival value, one row per piece; the expansion evaluator uses
    the pieces to detect cancellation between pieces of different terms.
    """

    hazard_derivs: tuple[Callable, ...]
    t0: float
    sbar_t0: float
    cum_hazard: Callable
    rv_index: float
    log_exponent: float = 0.0
    lambda_coeff: float | None = None
    cum_and_components: Callable | None = None

    def __post_init__(self):
        if not self.t0 > 1.0:
            raise ValueError(f"t0 must exceed 1, got {self.t0}")
        if not 0.0 < self.sbar_t0 <= 1.0:
            raise ValueError(f"sbar_t0 must lie in (0, 1], got {self.sbar_t0}")
        if not -1.0 <= self.rv_index < 0.0:
            raise ValueError(
                f"rv_index must lie in [-1, 0) (regularly varying, h -> 0, t*h -> inf), "
                f"got {self.rv_index}"
            )
        if self.rv_index == -1.0 and not self.log_exponent > 0.0:
            raise ValueError("rv_index == -1 requires log_exponent > 0 so that t*h(t) -> inf")
        if self.lambda_coeff is not None and not self.lambda_coeff > 0.0:
            raise ValueError(f"lambda_coeff must be positive, got {self.lambda_coeff}")
        if not self.hazard_derivs:
            raise ValueError("hazard_derivs must provide h^(0)")

    @property
    def smooth_order(self) -> int:  # the highest j with h^(j) in hazard_derivs
        return len(self.hazard_derivs) - 1

    # -- hazard ----------------------------------------------------------

    def hazard(self, t):
        return self.hazard_derivs[0](t)

    # -- survival --------------------------------------------------------

    def _check_domain(self, t: float):
        if t < self.t0:
            raise DomainError(
                f"t = {t} below tail anchor t0 = {self.t0}; use the body CDF instead"
            )

    def log_survival(self, t: float) -> float:
        self._check_domain(t)
        return math.log(self.sbar_t0) - self.cum_hazard(t)

    def survival_derivative_signed_log(self, k: int, t: float) -> tuple[float, float]:
        """Return (sign, log|S^(k)(t)|); a zero sign encodes an exact zero."""
        return self.tail_reads(k, t)[0][k]

    def tail_reads(self, k: int, t):
        """[(sign, log|S^(j)(t)|) for j = 0..k] and the tail components (None on a
        tail without them), from one read of t: arrays over an array t, one row
        of components per piece, and floats for a float t, which takes the same
        code as a one-element array.  A zero sign encodes an exact zero.  S^(j) =
        P_j(h, ..., h^(j-1)) * S: all orders share one log S(t) and one set of hazards."""
        if k < 0:
            raise ValueError("derivative order must be nonnegative")
        if k > self.smooth_order:
            raise SmoothnessError(required=k, available=self.smooth_order)
        x = np.asarray(t, dtype=float).reshape(-1)
        if (x < self.t0).any():
            self._check_domain(x[x < self.t0][0])
        cum, pieces = ((libm(self.cum_hazard, x), None) if self.cum_and_components is None
                       else self.cum_and_components(x))
        logsf = math.log(self.sbar_t0) - cum
        hvals = [self.hazard_derivs[j](x) for j in range(k)]
        out = [(np.ones(x.size), logsf)]
        for poly in survival_derivative_polys(k)[1:]:
            pval = poly_values(poly, lambda j, e: hvals[j] if e == 1 else
                               libm(lambda v: v ** e, hvals[j]))
            out.append((np.copysign(pval != 0.0, pval), libm(log_abs, pval) + logsf))
        if np.ndim(t) == 0:
            return ([(float(sign[0]), float(logabs[0])) for sign, logabs in out],
                    None if pieces is None else pieces[:, 0].tolist())
        return out, pieces


@dataclass
class MetadataDiagnostics:
    """Numeric corroboration of declared hazard metadata on a grid."""

    rv_index_est: float
    log_exponent_est: float | None
    lambda_est: float | None
    subcritical_bounded: bool
    flags: list[str] = field(default_factory=list)
    inconclusive: bool = False


def _fit_log_power(grid: np.ndarray, h: np.ndarray) -> tuple[float, float]:
    """Fit log h = c + rho log t + gamma log log t over the top half of the grid.

    A plain log-log slope is biased by the slowly varying factor (for
    h ~ t^-1 log t it reads about -1 + 1/log t, outside any tight tolerance
    at practical ranges); adding the log log t regressor recovers rho and
    gamma exactly for hazards of the built-in form.
    """
    lo = len(grid) // 2
    t = grid[lo:]
    mask = np.log(t) > 1.0
    t = t[mask]
    y = np.log(h[lo:][mask])
    design = np.column_stack([np.ones_like(t), np.log(t), np.log(np.log(t))])
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    return float(coef[1]), float(coef[2])


def _extrapolate_in_inverse_log(t1: float, v1: float, t2: float, v2: float) -> float:
    """Limit of v(t) = L + c / log t from two samples: eliminates the 1/log bias."""
    l1, l2 = math.log(t1), math.log(t2)
    return (v2 * l2 - v1 * l1) / (l2 - l1)


def subcritical_functional(model: HazardModel, grid, h: np.ndarray) -> np.ndarray:
    """t h(t)^2 / h(1/h(t)) over the grid array, given h on it; NaN where 1/h(t)
    is not inside the tail domain.  h(1/h(t)) is one array read of the hazard."""
    functional = np.full(len(grid), np.nan)
    inside = 1.0 / h > model.t0
    functional[inside] = grid[inside] * h[inside] ** 2 / model.hazard(1.0 / h[inside])
    return functional


def functional_diverges(values: np.ndarray) -> bool:
    """Heuristic divergence test: monotone growth by more than 10x across the grid."""
    v = values[np.isfinite(values)]
    if len(v) < 4:
        return False
    tail = v[len(v) // 2:]
    increasing = bool(np.all(np.diff(tail) > 0))
    return increasing and v[-1] > 10.0 * max(v[0], float(np.median(v)))


def validate_metadata(model: HazardModel, grid: Sequence[float]) -> MetadataDiagnostics:
    """Estimate regular-variation metadata on an increasing grid; advisory only.

    The grid must lie inside (t0, infinity).  When it spans fewer than three
    decades the report is marked inconclusive rather than raising.
    """
    grid = np.asarray(grid, dtype=float)
    if np.any(np.diff(grid) <= 0):
        raise ValueError("grid must be strictly increasing")
    if grid[0] <= model.t0:
        raise DomainError(f"grid must start above t0 = {model.t0}")

    inconclusive = math.log10(grid[-1] / grid[0]) < 3.0 or len(grid) < 5

    # scalar reads: classify.json records the estimates fitted from these h
    # values, and an array read may differ from a float read in the last bit
    h = np.array([model.hazard(t) for t in grid])
    rv_est, gamma_est = _fit_log_power(grid, h)
    critical_ratio = grid * h / np.log(grid)  # t h(t) / log t

    log_exp_est = None
    lambda_est = None
    if abs(rv_est + 1.0) <= 2 * _INDEX_TOL:
        log_exp_est = gamma_est
        if abs(log_exp_est - 1.0) <= _INDEX_TOL or model.log_exponent == 1.0:
            lambda_est = _extrapolate_in_inverse_log(
                grid[-2], critical_ratio[-2], grid[-1], critical_ratio[-1])

    bounded = not functional_diverges(subcritical_functional(model, grid, h))

    flags: list[str] = []
    if not inconclusive:
        if abs(rv_est - model.rv_index) > _INDEX_TOL:
            flags.append(
                f"estimated rv_index {rv_est:.4f} disagrees with declared {model.rv_index}"
            )
        lambda_ok = (model.lambda_coeff is not None and lambda_est is not None
                     and abs(lambda_est - model.lambda_coeff)
                     <= _INDEX_TOL * max(1.0, model.lambda_coeff))
        if model.rv_index == -1.0 and log_exp_est is not None:
            # a confirmed critical lambda certifies t h(t) / log t -> lambda, which
            # is stronger than the gamma fit (slowly varying corrections bias it)
            if abs(log_exp_est - model.log_exponent) > _INDEX_TOL and not (
                    model.log_exponent == 1.0 and lambda_ok):
                flags.append(
                    f"estimated log_exponent {log_exp_est:.4f} disagrees with "
                    f"declared {model.log_exponent}"
                )
        if (model.lambda_coeff is not None and lambda_est is not None
                and not lambda_ok):
            flags.append(
                f"estimated lambda {lambda_est:.4f} disagrees with declared {model.lambda_coeff}"
            )

    return MetadataDiagnostics(
        rv_index_est=rv_est,
        log_exponent_est=log_exp_est,
        lambda_est=lambda_est,
        subcritical_bounded=bounded,
        flags=flags,
        inconclusive=inconclusive,
    )
