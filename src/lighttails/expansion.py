"""Regime classification and assembly of the tail expansion of the weighted sum.

How the hazard rate h of the innovation compares with the critical scale
t^-1 log t decides which weights contribute and at which operator orders;
classify reads it from the declared metadata alone (asymptotic hypotheses
cannot be decided from finitely many values), validate_metadata checks it:

  supercritical  h >> t^-1 log t (rv_index > -1, or log_exponent > 1).
                 The critical rule below at lam = infinity: its threshold
                 c_(1) * exp(-m/lam) rises to c_(1), so only scales equivalent
                 to the largest contribute, each with the full order-m Laplace
                 character of its residual sum; remainder o(h^m * top scaled
                 tail).

  subcritical    h << t^-1 log t (rv_index == -1, log_exponent < 1, plus a
                 boundedness condition checked on a diagnostic grid).  The m
                 largest weight classes each contribute their scaled tail at
                 order zero; remainder o(m-th scaled tail).

  critical       h ~ lam * t^-1 log t (log_exponent == 1).  Scales down to
                 c_(1) * exp(-k/lam) contribute (boundary inclusive); a scale
                 at relative depth d = lam*log(c_(1)/|c|) carries a character
                 truncated to order k - ceil(d) via the floor rule, because
                 each extra derivative costs one power of h and the scaled
                 tail itself already sits d powers down.

Every term carries its decay-order pair (p, q), with value comparable to
t^-p (log t)^q relative to the top scaled tail; the pair drives the pruning
of insignificant terms and the hazard-scale rewriting.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .distributions import ScaledFactor, TailDistribution
from .errors import (DomainError, OutOfScopeError, RegimeConditionError,
                     SmoothnessError)
from .hazard import (HazardModel, functional_diverges, libm, log_abs,
                     subcritical_functional)
from .hazardpoly import survival_derivative_polys
from .laplace import character_from_moments, residual_moments
from .weights import WeightSequence

__all__ = [
    "RegimeKind", "Regime", "classify",
    "ExpansionTerm", "RemainderScale", "TailExpansion", "expand",
    "HazardMonomial", "HazardScaleRewrite", "rewrite_in_hazard_scale",
    "EvaluationTable", "evaluate",
]

_ORDER_TOL = 1e-12
_CANCEL_RATIO = 0.01
_DIAGNOSTIC_DECADES = 6.0
_DIAGNOSTIC_POINTS = 40


class RegimeKind(str, Enum):
    SUBCRITICAL = "subcritical"
    CRITICAL = "critical"
    SUPERCRITICAL = "supercritical"


@dataclass(frozen=True)
class Regime:
    kind: RegimeKind
    lam: float | None = None

    def __post_init__(self):
        if self.kind is RegimeKind.CRITICAL and not (self.lam and self.lam > 0):
            raise ValueError("critical regime carries a positive lambda")


def default_diagnostic_grid(model: HazardModel) -> np.ndarray:
    lo = max(4.0 * model.t0, 20.0)
    return np.geomspace(lo, lo * 10.0 ** _DIAGNOSTIC_DECADES, _DIAGNOSTIC_POINTS)


def classify(model: HazardModel) -> Regime:
    """Decide the regime from the declared metadata alone.

    Only the subcritical boundedness condition is checked, on the default
    diagnostic grid; `hazard.validate_metadata` corroborates the rest.
    """
    if model.rv_index > -1.0 or model.log_exponent > 1.0:
        kind, lam = RegimeKind.SUPERCRITICAL, None
    elif model.log_exponent == 1.0:
        if model.lambda_coeff is None:
            raise OutOfScopeError(
                "hazard at the critical scale (log_exponent == 1) needs lambda_coeff: "
                "h(t) ~ lambda * t^-1 log t"
            )
        kind, lam = RegimeKind.CRITICAL, model.lambda_coeff
    else:
        # subcritical needs the boundedness of t h(t)^2 / h(1/h(t))
        grid = default_diagnostic_grid(model)
        if functional_diverges(subcritical_functional(model, grid, model.hazard(grid))):
            raise RegimeConditionError(
                "subcritical condition violated: t h(t)^2 / h(1/h(t)) grows without "
                "bound on the diagnostic grid"
            )
        kind, lam = RegimeKind.SUBCRITICAL, None
    return Regime(kind=kind, lam=lam)


# ---------------------------------------------------------------------------
# expansion data model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExpansionTerm:
    """coeff * D^deriv_index applied to the survival of (scale * X)."""

    scale: float
    deriv_index: int
    coeff: float
    source_level: int
    operator_order: int
    decay_power: float | None = None  # term ~ t^-p (log t)^q * top scaled tail
    decay_log: float | None = None

    @property
    def label(self) -> str:
        return f"c{self.scale:g}_j{self.deriv_index}"


@dataclass(frozen=True)
class RemainderScale:
    """The o(.) benchmark: h(t)^hazard_power * P(scale * X > t)."""

    hazard_power: int
    scale: float

    def describe(self) -> str:
        if self.hazard_power == 0:
            return f"o(P({self.scale:g} X > t))"
        return f"o(h^{self.hazard_power} * P({self.scale:g} X > t))"


@dataclass(frozen=True)
class TailExpansion:
    terms: tuple[ExpansionTerm, ...]
    remainder: RemainderScale
    regime: Regime
    order_request: int
    characters: tuple[tuple[float, int, tuple[float, ...]], ...] = ()
    flags: tuple[str, ...] = ()


def expand(dist: TailDistribution, seq: WeightSequence, order: int) -> TailExpansion:
    """Classify the declared hazard and assemble that regime's expansion."""
    regime = classify(dist.upper)
    if seq.has_negative and not dist.symmetric:
        raise OutOfScopeError("a negative weight needs a symmetric (two-sided) law")
    if regime.kind is RegimeKind.SUBCRITICAL:
        return _expand_subcritical(dist, seq, order, regime)
    return _expand_characters(dist, seq, order, regime)


# ---------------------------------------------------------------------------
# subcritical: scaled tails of the m largest classes, order zero
# ---------------------------------------------------------------------------


def _expand_subcritical(dist: TailDistribution, seq: WeightSequence, m: int,
                        regime: Regime) -> TailExpansion:
    if m < 1:
        raise ValueError("subcritical expansion order must be a positive integer")
    levels = list(itertools.islice(seq.classes(), m))
    flags = []
    if len(levels) < m:
        flags.append(f"level_shortfall: {len(levels)} distinct classes available, "
                     f"{m} requested")

    terms = [ExpansionTerm(scale=sign * level.magnitude, deriv_index=0,
                           coeff=float(len(indices)), source_level=idx, operator_order=0)
             for idx, level in enumerate(levels, start=1)
             for sign, indices in ((1.0, level.positive), (-1.0, level.negative)) if indices]
    remainder = RemainderScale(hazard_power=0, scale=levels[-1].magnitude)
    return TailExpansion(terms=tuple(terms), remainder=remainder, regime=regime,
                         order_request=m, flags=tuple(flags))


# ---------------------------------------------------------------------------
# critical and supercritical: floor-reduced characters down to the threshold
# ---------------------------------------------------------------------------


def _strictly_smaller(p1, q1, p2, q2) -> bool:
    return p1 > p2 + _ORDER_TOL or (abs(p1 - p2) <= _ORDER_TOL and q1 < q2 - _ORDER_TOL)


def _expand_characters(dist: TailDistribution, seq: WeightSequence, k: int,
                       regime: Regime) -> TailExpansion:
    lam = regime.lam  # None in the supercritical regime: lambda = infinity
    least = 0 if lam is None else 1
    if k < least:
        raise ValueError(f"{regime.kind.value} expansion order must be at least {least}")
    # the top scale always carries the full order k
    if k > dist.upper.smooth_order:
        raise SmoothnessError(required=k, available=dist.upper.smooth_order)
    rho, gamma = dist.upper.rv_index, dist.upper.log_exponent
    classes = seq.classes()
    top = next(classes)
    c1 = top.magnitude
    tol = _ORDER_TOL * max(1.0, k)
    # enumerate candidates slightly past the threshold c1 e^(-k/lam), then apply
    # the exact log test; at lambda = infinity the threshold is c1 itself
    enumeration_floor = c1 if lam is None else c1 * math.exp(-k / lam) * (1.0 - 1e-9)
    candidates = itertools.chain([top], itertools.takewhile(
        lambda lev: lev.magnitude >= enumeration_floor, classes))
    kept = []  # each kept class with its x = k + lam * log(|s|/c1)
    for lev in candidates:
        x = float(k) if lam is None else k + lam * math.log(lev.magnitude / c1)
        if x >= -tol:
            kept.append((lev, x))
    # magnitudes whose whole scaled tail sits above the remainder: depth
    # k - x = lam * log(c1/|s|) strictly below k
    shallow = {lev.magnitude for lev, x in kept if k - x < k - tol}

    # one pass, largest magnitude first: level, floor-rule order, character, and
    # each term's decay pair, kept or pruned by order bookkeeping
    rem_p, rem_q = k * (-rho), k * gamma  # the remainder's decay pair
    kept_terms, characters = [], []
    for level, (lev, x) in enumerate(kept, start=1):
        order_s = max(min(k, math.floor(x + _ORDER_TOL)), 0)
        for s, indices in ((lev.magnitude, lev.positive), (-lev.magnitude, lev.negative)):
            if not indices:
                continue
            ch = character_from_moments(residual_moments(dist, seq, indices[0], order_s),
                                        order_s)
            characters.append((s, order_s, ch.coeffs))
            for j, a in enumerate(ch.coeffs):
                p, q = (k - x) + j * (-rho), j * gamma
                # a derivative term strictly below the remainder (possible only through
                # the log refinement at integer depths) carries no information
                if j >= 1 and _strictly_smaller(p, q, rem_p, rem_q):
                    continue
                # a derivative term exactly at the remainder is dropped when another
                # shallow magnitude is included.  Disputed (ROADMAP.md, "The critical
                # expansion drops a term of exactly the remainder order"): the floor
                # rule gives the top scale order k, and the term is Theta(h^k S).
                if (j >= 1 and shallow - {lev.magnitude} and abs(p - rem_p) <= _ORDER_TOL
                        and abs(q - rem_q) <= _ORDER_TOL):
                    continue
                # 0.0 + : a vanishing coefficient is +0.0, never -0.0
                kept_terms.append(ExpansionTerm(
                    scale=s, deriv_index=j, coeff=0.0 + len(indices) * a,
                    source_level=level, operator_order=order_s, decay_power=p, decay_log=q))

    kept_terms.sort(key=lambda t: (t.decay_power, -t.decay_log, -t.scale))
    remainder = RemainderScale(hazard_power=k, scale=c1)
    return TailExpansion(terms=tuple(kept_terms), remainder=remainder, regime=regime,
                         order_request=k, characters=tuple(characters))


# ---------------------------------------------------------------------------
# hazard-scale rewriting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HazardMonomial:
    """coeff * prod_l (h^(l)(t/s) / s^(l+1))^e_l * P(s X > t); exponents trimmed."""

    scale: float
    exponents: tuple[int, ...]
    coeff: float
    decay_power: float
    decay_log: float
    order_class: int  # 1-based significance class after sorting; ties share it

    @property
    def label(self) -> str:
        base = "*".join("h" + "'" * l + ("" if e == 1 else f"^{e}")
                        for l, e in enumerate(self.exponents) if e)
        return f"[{base or '1'}] @ c={self.scale:g}"


@dataclass(frozen=True)
class HazardScaleRewrite:
    kept: tuple[HazardMonomial, ...]
    dropped: tuple[HazardMonomial, ...]
    ties: tuple[tuple[int, ...], ...]  # indices into kept sharing one class
    flags: tuple[str, ...] = ()


def rewrite_in_hazard_scale(expansion: TailExpansion, dist: TailDistribution,
                            keep: int) -> HazardScaleRewrite:
    """Expand derivative terms into hazard monomials and keep the significant ones.

    Monomials are ranked by their decay pair; a significance class is a set of
    monomials sharing the pair (reported as ties, kept or dropped together).
    Classes beyond the source expansion's remainder resolution are never kept,
    whatever `keep` says.
    """
    if expansion.regime.kind is RegimeKind.SUBCRITICAL:
        raise ValueError("hazard-scale rewriting applies to regimes with derivative terms")
    if keep < 1:
        raise ValueError("keep must be positive")

    rho = dist.upper.rv_index
    gamma = dist.upper.log_exponent

    # merge identical (scale, monomial) contributions
    merged: dict[tuple[float, tuple[int, ...]], list] = {}
    for term in expansion.terms:
        j = term.deriv_index
        for mono, cm in survival_derivative_polys(j)[j].items():
            # against h^j, each of the j - s derivatives that fall on one of
            # the s hazard factors costs a further t^-(1+rho)
            s = sum(mono)
            p = term.decay_power + (1.0 + rho) * (j - s)
            merged.setdefault((term.scale, mono), [0.0, p, gamma * s])[0] += term.coeff * cm
    items = sorted(((scale, mono, coeff, p, q)  # HazardMonomial's field order
                    for (scale, mono), (coeff, p, q) in merged.items() if coeff != 0.0),
                   key=lambda it: (it[3], -it[4]))

    # group into significance classes by (p, q) within tolerance of each class's first
    classes: list[list[tuple]] = []
    for it in items:
        if classes and (abs(it[3] - classes[-1][0][3]) <= _ORDER_TOL
                        and abs(it[4] - classes[-1][0][4]) <= _ORDER_TOL):
            classes[-1].append(it)
        else:
            classes.append([it])

    # resolution cap: classes strictly below the remainder pair are never valid
    k = expansion.remainder.hazard_power
    valid_classes = [cl for cl in classes
                     if not _strictly_smaller(cl[0][3], cl[0][4], k * (-rho), k * gamma)]
    flags = []
    if keep > len(valid_classes):
        flags.append(f"keep={keep} exceeds the source expansion's resolution; "
                     f"{len(valid_classes)} significant classes available")
    kept_classes = valid_classes[:keep]
    ties, pos = [], 0  # pos ends as the number of kept monomials
    for cl in kept_classes:
        if len(cl) > 1:
            ties.append(tuple(range(pos, pos + len(cl))))
        pos += len(cl)
    # ranks number the kept classes first, then the rest in their order
    rest = [cl for cl in classes if cl not in kept_classes]
    ranked = [HazardMonomial(*it, order_class=rank)
              for rank, cl in enumerate(kept_classes + rest, start=1) for it in cl]
    return HazardScaleRewrite(kept=tuple(ranked[:pos]), dropped=tuple(ranked[pos:]),
                              ties=tuple(ties), flags=tuple(flags))


# ---------------------------------------------------------------------------
# numeric evaluation
# ---------------------------------------------------------------------------


@dataclass
class EvaluationTable:
    t: np.ndarray
    term_values: np.ndarray            # shape (len(t), n_terms)
    totals: np.ndarray
    benchmark: np.ndarray              # remainder-scale value at each t
    cancellation: np.ndarray           # bool per row
    domain_ok: np.ndarray              # bool per row
    term_labels: tuple[str, ...]
    notes: list[str] = field(default_factory=list)


def evaluate(expansion: TailExpansion, dist: TailDistribution, t_grid) -> EvaluationTable:
    """Evaluate every term on the grid in log-safe arithmetic.

    Each scale is read once, on the grid points in its tail domain: every order
    up to its largest deriv_index, its tail components, and the log-survival
    the remainder reuses.  A point below a scale's domain is a per-point
    failure, not a global error: the cells before the first term on that scale
    keep their values, the rest stay NaN, and the note is that scale's message.
    The cancellation flag fires when the signed total nearly vanishes against
    the largest term, or when two closed-form tail components of opposite sign
    nearly cancel across terms.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    n_t, n_terms = len(t_grid), len(expansion.terms)
    rem = expansion.remainder
    first: dict[float, int] = {}  # per scale, the column that reads it first
    top: dict[float, int] = {}  # per scale, the largest order its terms read
    for col, term in enumerate(expansion.terms):
        first.setdefault(term.scale, col)
        top[term.scale] = max(top.get(term.scale, 0), term.deriv_index)

    fail = np.full(n_t, n_terms + 1.0)  # per row, the first column on a failing scale
    notes: dict[int, list[str]] = {}
    reads = {}  # per scale: its orders and its (components, grid) array, NaN below its domain
    for c, col in {**first, rem.scale: first.get(rem.scale, n_terms)}.items():
        f = ScaledFactor(dist, c)
        below = f.below_tail(t_grid)
        inside = t_grid[~below]
        orders, pieces = f.tail_reads(top.get(c, 0), inside)
        if below.any():
            for r in np.flatnonzero(below & (fail > n_terms)).tolist():
                fail[r] = col
                try:
                    f.log_tail_sf(t_grid[r])
                except DomainError as exc:
                    notes[r] = [f"t={t_grid[r]:g}: {exc}"]
            # over the whole grid: a point below the domain reads the fill past the end
            at = np.where(below, inside.size, np.cumsum(~below) - 1)
            orders = [(np.append(s, 0.0)[at], np.append(l, math.nan)[at]) for s, l in orders]
            if pieces is not None:
                pieces = np.append(pieces, np.full((len(pieces), 1), math.nan), axis=1)[:, at]
        reads[c] = orders, pieces
    good = fail > n_terms

    # one row per term: sign and log magnitude; a zero coefficient's log is -inf
    coeffs = np.array([term.coeff for term in expansion.terms])
    cells = [reads[term.scale][0][term.deriv_index] for term in expansion.terms]
    signs = np.array([s for s, _ in cells]).reshape(n_terms, n_t) * np.sign(coeffs)[:, None]
    logs = np.array([l for _, l in cells]).reshape(n_terms, n_t) + libm(log_abs, coeffs)[:, None]
    # 0.0 + : a vanishing term is +0.0
    values = 0.0 + signs * libm(math.exp, logs.ravel()).reshape(logs.shape)
    values[fail <= np.arange(float(n_terms))[:, None]] = np.nan

    # the signed sum, scaled by each point's largest magnitude to stay in range
    live = (signs != 0.0) & (logs > -math.inf)
    top_log = logs.max(axis=0, initial=-math.inf, where=live)
    shifted = np.subtract(logs, top_log, out=np.full(logs.shape, -math.inf), where=live)
    acc = 0.0
    for term_scaled in signs * libm(math.exp, shifted.ravel()).reshape(logs.shape):
        acc = acc + term_scaled
    total = acc * libm(math.exp, top_log)  # 0.0 * 0.0 where no term is live
    totals = np.where(good, total, math.nan)

    log_bench = reads[rem.scale][0][0][1][good]
    if rem.hazard_power:
        log_bench = log_bench + rem.hazard_power * libm(math.log, dist.upper.hazard(t_grid[good]))
    benchmark = np.full(n_t, math.nan)
    benchmark[good] = libm(math.exp, log_bench)

    largest = np.abs(values).max(axis=0, initial=0.0, where=np.isfinite(values))
    cancellation = (good & (largest > 0.0) & (np.abs(total) < _CANCEL_RATIO * largest)
                    & (n_terms >= 2))
    for r in np.flatnonzero(cancellation).tolist():
        notes[r] = [f"t={t_grid[r]:g}: total nearly vanishes against the largest term"]
    # opposite-sign closed-form pieces cancelling across terms: on each good
    # row, the first pair x < 0 < y in component order that nearly cancels
    pieces = [float(term.coeff) * reads[term.scale][1] for term in expansion.terms
              if term.deriv_index == 0 and reads[term.scale][1] is not None]
    if pieces:
        v = np.concatenate(pieces)
        x, y = v[:, None], v[None]
        near = abs(x + y) <= _CANCEL_RATIO * np.maximum(-x, y)
        pairs = ((x < 0.0) & (y > 0.0) & good & near).reshape(len(v) ** 2, n_t)
        hit = np.flatnonzero(pairs.any(axis=0))
        xi, yi = np.divmod(pairs[:, hit].argmax(axis=0), len(v))
        cancellation[hit] = True
        for r, t, a, b in zip(hit.tolist(), t_grid[hit].tolist(), *v[[xi, yi], hit].tolist()):
            notes.setdefault(r, []).append(f"t={t:g}: tail components {a:.6g} and {b:.6g} cancel")

    return EvaluationTable(t=t_grid, term_values=values.T, totals=totals,
                           benchmark=benchmark, cancellation=cancellation, domain_ok=good,
                           term_labels=tuple(t.label for t in expansion.terms),
                           notes=[note for r in sorted(notes) for note in notes[r]])

