"""Regime classification, expansion assembly, hazard-scale rewriting, evaluation."""

import hashlib
import math
import os
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lighttails as lt
from lighttails import config
from lighttails.expansion import (_CANCEL_RATIO, ExpansionTerm, RemainderScale, TailExpansion,
                                  default_diagnostic_grid)
from lighttails.hazard import HazardModel, functional_diverges, subcritical_functional

import pins
from helpers import EIGHT_COMPONENTS

CONFIGS = os.path.join(os.path.dirname(__file__), "..", "configs")
E1 = lambda t: math.exp(-math.log(t) ** 1.5)


def second_order_mixture():
    """Tail e1 + e2 with e2 = e1 * exp(-log^(1/4))."""
    return lt.log_power_mixture(
        [(1.0, 1.0, [(1.0, 1.5)]),
         (1.0, 1.0, [(1.0, 1.5), (1.0, 0.25)])], t0=2.0)


def cancelling_mixture():
    """Tail e1(t) - e1(2t)."""
    return lt.log_power_mixture(
        [(1.0, 1.0, [(1.0, 1.5)]), (-1.0, 2.0, [(1.0, 1.5)])], t0=2.0)


# -- classification -----------------------------------------------------------


def test_classify_families():
    assert lt.classify(lt.weibull_type(0.3).upper).kind is lt.RegimeKind.SUPERCRITICAL
    assert lt.classify(lt.log_weibull(1.5).upper).kind is lt.RegimeKind.SUBCRITICAL
    reg = lt.classify(lt.lognormal_type(0.5).upper)
    assert reg.kind is lt.RegimeKind.CRITICAL
    assert reg.lam == 1.0


def test_classify_log_exponent_above_one_is_supercritical():
    d = lt.custom_hazard([(1.5, -1.0, 1.5)], t0=2.0, sbar_t0=0.5,
                         rv_index=-1.0, log_exponent=1.5)
    assert lt.classify(d.upper).kind is lt.RegimeKind.SUPERCRITICAL


def test_classify_critical_needs_lambda():
    model = HazardModel(
        hazard_derivs=(lambda t: math.log(t) / t,),
        t0=2.0, sbar_t0=0.5,
        cum_hazard=lambda t: 0.5 * (math.log(t) ** 2 - math.log(2.0) ** 2),
        rv_index=-1.0, log_exponent=1.0, lambda_coeff=None)
    with pytest.raises(lt.OutOfScopeError):
        lt.classify(model)


def test_classify_subcritical_condition_violated():
    # declared slowly-log metadata, but t h(t) = exp(log(t)^0.9) grows fast
    # enough that t h(t)^2 / h(1/h(t)) ~ exp(0.9 log(t)^0.8) diverges; h maps
    # arrays elementwise, as every hazard derivative must
    def h(t):
        return np.exp(np.log(t) ** 0.9) / t

    liar = HazardModel(hazard_derivs=(h,), t0=2.0, sbar_t0=0.5,
                       cum_hazard=lambda t: 0.0, rv_index=-1.0,
                       log_exponent=0.5)
    with pytest.raises(lt.RegimeConditionError):
        lt.classify(liar)


def _scalar_subcritical_functional(model, grid):
    """t h(t)^2 / h(1/h(t)) read one float at a time: the reference for the
    array reads of classify."""
    h = [model.hazard(t) for t in grid.tolist()]
    return np.array([t * ht ** 2 / model.hazard(1.0 / ht) if 1.0 / ht > model.t0 else math.nan
                     for t, ht in zip(grid.tolist(), h)])


@pytest.mark.parametrize("build", [
    lambda: config.build_distribution(config.load_config(f"{CONFIGS}/cancellation_pair.json")),
    lambda: config.build_distribution(
        config.load_config(f"{CONFIGS}/logweibull_second_order.json")),
    lambda: lt.custom_hazard([(1.0, -1.0, 0.5)], rv_index=-1.0, log_exponent=0.5),
], ids=["cancellation_pair", "logweibull_second_order", "custom_subcritical"])
def test_subcritical_functional_array_reads_match_scalar_reads(build):
    model = build().upper
    grid = default_diagnostic_grid(model)
    array = subcritical_functional(model, grid, model.hazard(grid))
    scalar = _scalar_subcritical_functional(model, grid)
    np.testing.assert_allclose(array, scalar, rtol=1e-12)  # NaN where NaN
    assert not functional_diverges(scalar)
    assert lt.classify(model).kind is lt.RegimeKind.SUBCRITICAL


def test_constructor_rejects_out_of_range_index():
    with pytest.raises(ValueError):
        HazardModel(hazard_derivs=(lambda t: 1.0 / t,), t0=2.0, sbar_t0=0.5,
                    cum_hazard=lambda t: 0.0, rv_index=0.5)
    with pytest.raises(ValueError):
        HazardModel(hazard_derivs=(lambda t: 1.0 / t,), t0=2.0, sbar_t0=0.5,
                    cum_hazard=lambda t: 0.0, rv_index=-1.0, log_exponent=0.0)


# -- supercritical -------------------------------------------------------------


def test_supercritical_leading_multiplicity():
    w = lt.weibull_type(0.4)
    exp = lt.expand(w, lt.WeightSequence([1.0, 1.0, 0.5]), 0)
    assert [(t.scale, t.deriv_index, t.coeff) for t in exp.terms] == [(1.0, 0, 2.0)]
    assert exp.remainder == RemainderScale(hazard_power=0, scale=1.0)


def test_supercritical_full_character_terms():
    w = lt.weibull_type(0.4)
    seq = lt.WeightSequence([1.0, 0.5])
    exp = lt.expand(w, seq, 3)
    mv = lt.residual_moments(w, seq, 1, 3)
    expected = [(1.0, 0, 1.0),
                (1.0, 1, -mv[1]),
                (1.0, 2, mv[2] / 2.0),
                (1.0, 3, -mv[3] / 6.0)]
    assert [(t.scale, t.deriv_index, t.coeff) for t in exp.terms] == expected
    assert exp.remainder.hazard_power == 3
    assert all(t.operator_order == 3 for t in exp.terms)


def test_supercritical_balanced_includes_negative_scale():
    s = lt.weibull_type(0.5, symmetric=True)
    seq = lt.WeightSequence([1.0, -1.0, 0.5])
    exp = lt.expand(s, seq, 1)
    scales = {(t.scale, t.deriv_index) for t in exp.terms}
    assert (1.0, 0) in scales and (-1.0, 0) in scales
    lead = {t.scale: t.coeff for t in exp.terms if t.deriv_index == 0}
    assert lead[1.0] == 1.0 and lead[-1.0] == 1.0


def supercritical_rule(dist, seq, k):
    """(scale, j) -> (coeff, p, q), read off the supercritical rule: each
    distinct maximal scale s carries count(s) copies of the order-k character
    of one residual sum, (-1)^j mu_j / j! at D^j, with decay pair
    (j (-rho), j gamma)."""
    top = max(abs(w) for _, w in seq.entries)
    counts = Counter(w for _, w in seq.entries if abs(w) == top)
    rho, gamma = dist.upper.rv_index, dist.upper.log_exponent
    out = {}
    for s, count in counts.items():
        mu = lt.residual_moments(dist, seq, next(i for i, w in seq.entries if w == s), k)
        for j in range(k + 1):
            out[s, j] = (count * (-1) ** j * mu[j] / math.factorial(j),
                         j * (-rho), j * gamma)
    return out


@st.composite
def supercritical_cases(draw):
    symmetric = draw(st.booleans())
    sign = st.sampled_from([1.0, -1.0]) if symmetric else st.just(1.0)
    top = draw(st.lists(sign, min_size=1, max_size=4))
    rest = draw(st.lists(st.tuples(sign, st.floats(0.05, 0.95)), max_size=3))
    weights = draw(st.permutations(top + [s * m for s, m in rest]))
    dist = lt.weibull_type(draw(st.sampled_from([0.3, 0.4, 0.5, 0.7])), symmetric=symmetric)
    return dist, lt.WeightSequence(weights), draw(st.integers(0, 4))


@given(case=supercritical_cases())
@settings(max_examples=60, deadline=None)
def test_supercritical_matches_rule_enumerator(case):
    dist, seq, k = case
    exp = lt.expand(dist, seq, k)
    got = {(t.scale, t.deriv_index): (t.coeff, t.decay_power, t.decay_log)
           for t in exp.terms}
    want = supercritical_rule(dist, seq, k)
    assert got.keys() == want.keys()
    for key, (coeff, p, q) in want.items():
        assert got[key] == (pytest.approx(coeff, rel=1e-14, abs=0.0), p, q)
    assert exp.remainder == RemainderScale(hazard_power=k, scale=next(seq.classes()).magnitude)


def test_vanishing_coefficient_is_positive_zero():
    # the symmetric residual 0.3 X has mu_1 = 0, so the D^1 coefficient vanishes
    exp = lt.expand(lt.lognormal_type(0.5, symmetric=True), lt.WeightSequence([1.0, 0.3]), 1)
    zeros = [t.coeff for t in exp.terms if t.coeff == 0.0]
    assert zeros and all(math.copysign(1.0, c) == 1.0 for c in zeros)


def test_supercritical_smoothness_error():
    # the weibull_type(0.4) hazard, differentiable twice only
    w = lt.custom_hazard([(0.4, -0.6, 0.0)], rv_index=-0.6, smooth_order=2)
    with pytest.raises(lt.SmoothnessError):
        lt.expand(w, lt.WeightSequence([1.0, 0.5]), 3)


def test_balanced_weights_need_two_sided():
    # only a negative weight needs the symmetric law, positive ones never
    w = lt.weibull_type(0.4)
    assert lt.expand(w, lt.WeightSequence([1.0, 0.5]), 0).terms
    with pytest.raises(lt.OutOfScopeError):
        lt.expand(w, lt.WeightSequence([1.0, -0.5]), 0)


# -- subcritical ----------------------------------------------------------------


def test_subcritical_terms_are_scaled_tails():
    mix = second_order_mixture()
    seq = lt.WeightSequence([1.0, 0.5], ratio=0.5)
    exp = lt.expand(mix, seq, 2)
    assert [(t.scale, t.deriv_index, t.coeff) for t in exp.terms] == [
        (1.0, 0, 1.0), (0.5, 0, 1.0)]
    assert exp.remainder == RemainderScale(hazard_power=0, scale=0.5)
    assert all(t.operator_order == 0 for t in exp.terms)


def test_subcritical_negative_scales():
    # a negative weight on a symmetric law is its own term, at the signed scale
    dist = lt.log_weibull(1.5, symmetric=True)
    exp = lt.expand(dist, lt.WeightSequence([1.0, -0.5, 0.25]), 3)
    assert [(t.scale, t.coeff, t.source_level) for t in exp.terms] == [
        (1.0, 1.0, 1), (-0.5, 1.0, 2), (0.25, 1.0, 3)]
    assert exp.remainder == RemainderScale(hazard_power=0, scale=0.25)
    tied = lt.expand(dist, lt.WeightSequence([1.0, -1.0, -1.0, 0.5]), 1)
    assert [(t.scale, t.coeff, t.source_level) for t in tied.terms] == [
        (1.0, 1.0, 1), (-1.0, 2.0, 1)]


def test_subcritical_multiplicity():
    mix = second_order_mixture()
    exp = lt.expand(mix, lt.WeightSequence([1.0, 1.0, 0.5]), 1)
    assert [(t.scale, t.coeff) for t in exp.terms] == [(1.0, 2.0)]


def test_subcritical_level_shortfall_flag():
    mix = second_order_mixture()
    exp = lt.expand(mix, lt.WeightSequence([1.0, 0.5]), 4)
    assert any("level_shortfall" in f for f in exp.flags)
    assert len(exp.terms) == 2


def test_subcritical_order_past_the_underflow_flags_a_shortfall():
    # ratio 0.5 has 1075 nonzero classes; more are asked for, and the read ends
    exp = lt.expand(lt.log_weibull(1.5), lt.WeightSequence([1.0], ratio=0.5), 2000)
    assert exp.flags == ("level_shortfall: 1075 distinct classes available, 2000 requested",)
    assert exp.remainder == RemainderScale(hazard_power=0, scale=2.0 ** -1074)


def test_subcritical_needs_positive_order():
    mix = second_order_mixture()
    with pytest.raises(ValueError):
        lt.expand(mix, lt.WeightSequence([1.0]), 0)


# -- critical ---------------------------------------------------------------------


def test_critical_gate_below_threshold():
    ln = lt.lognormal_type(0.5)
    seq = lt.WeightSequence([1.0, 0.3])
    exp = lt.expand(ln, seq, 1)
    mu1 = ln.moment(1)
    assert [(t.scale, t.deriv_index) for t in exp.terms] == [(1.0, 0), (1.0, 1)]
    assert exp.terms[1].coeff == -(0.3 * mu1)


def test_critical_gate_above_threshold():
    ln = lt.lognormal_type(0.5)
    exp = lt.expand(ln, lt.WeightSequence([1.0, 0.5]), 1)
    assert [(t.scale, t.deriv_index, t.coeff) for t in exp.terms] == [
        (1.0, 0, 1.0), (0.5, 0, 1.0)]


def test_critical_gate_boundary_included_order_zero():
    ln = lt.lognormal_type(0.5)
    exp = lt.expand(ln, lt.WeightSequence([1.0, math.exp(-1.0)]), 1)
    by_scale = {t.scale: t for t in exp.terms if t.deriv_index == 0}
    assert math.exp(-1.0) in by_scale
    assert by_scale[math.exp(-1.0)].operator_order == 0
    # the top-scale correction stays: it is the second significant class here
    assert (1.0, 1) in {(t.scale, t.deriv_index) for t in exp.terms}


def test_critical_drops_derivatives_below_the_remainder():
    # at depth 1 the scale e^-1 carries an order-1 character, but its
    # derivative term decays as t^-2 log t: below the remainder h^2 ~ t^-2 log^2 t
    ln = lt.lognormal_type(0.5)
    exp = lt.expand(ln, lt.WeightSequence([1.0, math.exp(-1.0)]), 2)
    assert (math.exp(-1.0), 1) in {(c, m) for c, m, _ in exp.characters}
    assert not [t for t in exp.terms if t.scale == math.exp(-1.0) and t.deriv_index >= 1]


def test_critical_integer_depth_is_read_with_a_tolerance():
    # at lambda = 1.8 the depth of e^(-1/1.8) computes as 1 + 2.2e-16, so
    # x = k - depth sits one ulp below 1; the floor rule still gives order 1
    c = math.exp(-1.0 / 1.8)
    exp = lt.expand(lt.lognormal_type(0.9), lt.WeightSequence([1.0, c]), 2)
    assert 2.0 + 1.8 * math.log(c) < 1.0
    assert (c, 1) in {(s, m) for s, m, _ in exp.characters}


def test_critical_top_scale_gets_full_order():
    ln = lt.lognormal_type(0.5)
    for k in (1, 2, 3):
        exp = lt.expand(ln, lt.WeightSequence([1.0, 0.5]), k)
        top = [t for t in exp.terms if t.scale == 1.0]
        assert all(t.operator_order == k for t in top)


def test_critical_inclusion_monotone_in_k():
    ln = lt.lognormal_type(0.5)
    seq = lt.WeightSequence([1.0], ratio=0.5)
    prev_keys = set()
    prev_orders: dict = {}
    for k in (1, 2, 3, 4):
        exp = lt.expand(ln, seq, k)
        keys = {(t.scale, t.deriv_index) for t in exp.terms}
        orders = {t.scale: t.operator_order for t in exp.terms}
        assert prev_keys <= keys
        for scale, order in prev_orders.items():
            assert orders[scale] >= order
        prev_keys, prev_orders = keys, orders


def test_critical_generator_entries_included():
    ln = lt.lognormal_type(0.5)
    seq = lt.WeightSequence([1.0], ratio=0.5)
    exp = lt.expand(ln, seq, 2)
    scales = sorted({t.scale for t in exp.terms}, reverse=True)
    # threshold e^-2 ~ 0.135: scales 1, 0.5, 0.25 included, 0.125 excluded
    assert scales == [1.0, 0.5, 0.25]
    orders = {t.scale: t.operator_order for t in exp.terms}
    assert orders == {1.0: 2, 0.5: 1, 0.25: 0}


def test_critical_threshold_underflow_keeps_every_nonzero_class():
    # lambda = 1e-3: the threshold c1 e^(-1000) underflows to 0, and every one
    # of ratio 0.5's 1075 nonzero classes lies above it
    with np.errstate(over="ignore"):  # its zero point, exp(sqrt(y / theta)), is inf
        ln = lt.lognormal_type(5e-4, symmetric=True)
    exp = lt.expand(ln, lt.WeightSequence([1.0], ratio=0.5), 1)
    assert [(s, order) for s, order, _ in exp.characters] == (
        [(1.0, 1)] + [(2.0 ** -i, 0) for i in range(1, 1075)])


def test_critical_large_lambda_degenerates_to_maximal_class():
    # as lambda grows the inclusion threshold c1 * exp(-k/lam) approaches c1,
    # so only the maximal class contributes, with its full-order character
    ln = lt.lognormal_type(50.0)  # lambda = 100
    seq = lt.WeightSequence([1.0, 0.5])
    exp = lt.expand(ln, seq, 2)
    assert {t.scale for t in exp.terms} == {1.0}
    assert [t.deriv_index for t in exp.terms] == [0, 1, 2]
    assert all(t.operator_order == 2 for t in exp.terms)


RULE_TOL = 1e-9


def paper_rule_terms(dist, seq, k):
    """(scale, j) -> (operator order, level, p, q), read off the paper's rule.

    A scale s enters when its depth d = lam * log(c1/|s|) is at most k, the
    boundary included (at lam = infinity, when |s| = c1).  It carries the order
    k - ceil(d), clipped at 0, and its D^j term sits at the decay pair
    (d + j(-rho), j gamma).  The threshold alone decides a scale's own tail
    (j = 0); a derivative term is kept unless its pair is strictly below the
    remainder pair (k(-rho), k gamma).  The level ranks |s| among the included
    magnitudes, largest first."""
    lam = lt.classify(dist.upper).lam
    rho, gamma = dist.upper.rv_index, dist.upper.log_exponent
    c1 = max(abs(w) for _, w in seq.entries)
    depth = {}
    for _, w in seq.entries:
        d = 0.0 if abs(w) == c1 else math.inf if lam is None else lam * math.log(c1 / abs(w))
        if d <= k + RULE_TOL:
            depth[w] = d
    magnitudes = sorted({abs(s) for s in depth}, reverse=True)
    rem_p, rem_q = k * (-rho), k * gamma
    out = {}
    for s, d in depth.items():
        order = max(k - math.ceil(d - RULE_TOL), 0)
        for j in range(order + 1):
            p, q = d + j * (-rho), j * gamma
            below = p > rem_p + RULE_TOL or (abs(p - rem_p) <= RULE_TOL
                                              and q < rem_q - RULE_TOL)
            if j == 0 or not below:
                out[s, j] = (order, magnitudes.index(abs(s)) + 1, p, q)
    return out


@st.composite
def rule_cases(draw):
    """Weibull-type (supercritical) or lognormal-type (critical) laws, with
    weights at integer depths (the boundary k among them) or depths in quarters
    below the top weight, or at random magnitudes."""
    symmetric = draw(st.booleans())
    sign = st.sampled_from([1.0, -1.0]) if symmetric else st.just(1.0)
    if draw(st.booleans()):
        dist, lam = lt.weibull_type(draw(st.sampled_from([0.3, 0.5, 0.7])),
                                    symmetric=symmetric), 1.0
        k = draw(st.integers(0, 4))
    else:
        theta = draw(st.sampled_from([0.25, 0.5, 1.0, 2.0]))
        dist, lam = lt.lognormal_type(theta, symmetric=symmetric), 2.0 * theta
        k = draw(st.integers(1, 4))
    magnitudes = draw(st.lists(st.one_of(
        st.integers(0, k + 1).map(lambda d: math.exp(-d / lam)),
        st.integers(0, 4 * k + 4).map(lambda n: math.exp(-n / 4 / lam)),
        st.floats(0.01, 1.0)), max_size=4))
    weights = draw(st.permutations([draw(sign)] + [draw(sign) * m for m in magnitudes]))
    return dist, lt.WeightSequence(weights), k


@given(case=rule_cases())
@example(case=(lt.lognormal_type(0.5), lt.WeightSequence([1.0, 0.5]), 1))
@settings(max_examples=80, deadline=None)
def test_terms_match_the_paper_rule_but_for_the_disputed_clause(case):
    dist, seq, k = case
    exp = lt.expand(dist, seq, k)
    got = {(t.scale, t.deriv_index): (t.operator_order, t.source_level,
                                      t.decay_power, t.decay_log) for t in exp.terms}
    want = paper_rule_terms(dist, seq, k)
    assert got.keys() <= want.keys()
    for key, (order, level, p, q) in got.items():
        assert (order, level) == want[key][:2]
        assert (p, q) == pytest.approx(want[key][2:], abs=RULE_TOL)
    # the only difference: a derivative term exactly at the remainder pair,
    # dropped because another magnitude strictly shallower than depth k is
    # included.  The rule keeps it.
    rho, gamma = dist.upper.rv_index, dist.upper.log_exponent
    shallow = {abs(s) for (s, j), (_, _, p, _) in want.items() if j == 0 and p < k - RULE_TOL}
    for s, j in want.keys() - got.keys():
        p, q = want[s, j][2:]
        assert j >= 1 and (p, q) == pytest.approx((k * (-rho), k * gamma), abs=RULE_TOL)
        assert shallow - {abs(s)}


# -- hazard-scale rewriting ----------------------------------------------------------


def test_rewrite_three_significant_terms():
    w = lt.weibull_type(0.4)
    seq = lt.WeightSequence([1.0, 0.5])
    exp = lt.expand(w, seq, 3)
    mv = lt.residual_moments(w, seq, 1, 3)
    rw = lt.rewrite_in_hazard_scale(exp, w, keep=3)
    got = [(m.exponents, m.coeff) for m in rw.kept]
    assert got == [((), 1.0),
                   ((1,), pytest.approx(mv[1], rel=1e-14)),
                   ((2,), pytest.approx(mv[2] / 2.0, rel=1e-14))]


@pytest.mark.parametrize("a,fourth", [(0.4, (0, 1)), (0.7, (3,))])
def test_rewrite_fourth_term_depends_on_index(a, fourth):
    # h' wins below index 1/2, h^3 wins above
    w = lt.weibull_type(a)
    seq = lt.WeightSequence([1.0, 0.5])
    exp = lt.expand(w, seq, 3)
    rw = lt.rewrite_in_hazard_scale(exp, w, keep=4)
    fourth_class = [m for m in rw.kept if m.order_class == 4]
    assert len(fourth_class) == 1
    assert fourth_class[0].exponents == fourth
    mv = lt.residual_moments(w, seq, 1, 3)
    if fourth == (0, 1):
        assert fourth_class[0].coeff == pytest.approx(-mv[2] / 2.0, rel=1e-14)
    else:
        assert fourth_class[0].coeff == pytest.approx(mv[3] / 6.0, rel=1e-14)


def test_rewrite_tie_reported_at_index_half():
    w = lt.weibull_type(0.5)
    exp = lt.expand(w, lt.WeightSequence([1.0, 0.5]), 3)
    rw = lt.rewrite_in_hazard_scale(exp, w, keep=4)
    fourth_class = sorted(m.exponents for m in rw.kept if m.order_class == 4)
    assert fourth_class == [(0, 1), (3,)]
    assert rw.ties  # the tied class is reported


def test_rewrite_order_bookkeeping_invariant():
    w = lt.weibull_type(0.4)
    exp = lt.expand(w, lt.WeightSequence([1.0, 0.5]), 3)
    rw = lt.rewrite_in_hazard_scale(exp, w, keep=4)
    worst_kept = max((m.decay_power, -m.decay_log) for m in rw.kept)
    for m in rw.dropped:
        assert (m.decay_power, -m.decay_log) > worst_kept


def test_rewrite_resolution_cap():
    w = lt.weibull_type(0.4)
    exp = lt.expand(w, lt.WeightSequence([1.0, 0.5]), 3)
    rw = lt.rewrite_in_hazard_scale(exp, w, keep=10)
    assert rw.flags
    # remainder order for m=3 is 3*(1-a) = 1.8; hh' (2.2) and h'' (2.6) are beyond
    assert max(m.order_class for m in rw.kept) == 5
    kept_monos = {m.exponents for m in rw.kept}
    assert (1, 1) not in kept_monos and (0, 0, 1) not in kept_monos


def test_rewrite_rejects_subcritical():
    mix = second_order_mixture()
    exp = lt.expand(mix, lt.WeightSequence([1.0, 0.5]), 2)
    with pytest.raises(ValueError):
        lt.rewrite_in_hazard_scale(exp, mix, keep=2)


def test_rewrite_battery_is_pinned():
    # supercritical Weibull and critical lognormal-type laws, with one-sided,
    # negative and tied weights, at orders 0-5 and keep 1-20: the digest of
    # every rewrite's repr and labels, and of each expansion that raises
    lines = []
    laws = [(f"weibull_type(a={a})", lt.weibull_type(a), lt.weibull_type(a, symmetric=True))
            for a in (0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)]
    laws += [(f"lognormal_type(theta={th})", lt.lognormal_type(th),
              lt.lognormal_type(th, symmetric=True)) for th in (0.25, 0.5, 1.0, 2.0, 5.0)]
    for label, one_sided, symmetric in laws:
        for w in ([1.0, 0.5], [1.0, 0.5, 0.25], [1.0, 1.0, 0.5], [1.0, 0.5, 0.5],
                  [1.0, -0.5], [1.0, -1.0, 0.5]):
            dist, name = ((symmetric, label + "_symmetric") if min(w) < 0
                          else (one_sided, label))
            for order in range(6):
                try:
                    exp = lt.expand(dist, lt.WeightSequence(w), order)
                except (lt.LightTailsError, ValueError) as exc:
                    lines.append(f"{name} {w} {order} {type(exc).__name__}")
                    continue
                for keep in range(1, 21):
                    rw = lt.rewrite_in_hazard_scale(exp, dist, keep)
                    lines.append(repr(rw) + repr([m.label for m in rw.kept])
                                 + repr([m.label for m in rw.dropped]))
    assert len(lines) == 8486
    pins.check("expansion/rewrite_battery", hashlib.sha256("\n".join(lines).encode()).hexdigest())


# -- evaluation -------------------------------------------------------------------


def test_evaluate_single_term_total():
    w = lt.weibull_type(0.4)
    exp = lt.expand(w, lt.WeightSequence([1.0, 0.5]), 0)
    grid = [50.0, 100.0]
    table = lt.evaluate(exp, w, grid)
    assert table.totals == pytest.approx([w.sf(50.0), w.sf(100.0)], rel=1e-14)
    assert table.benchmark == pytest.approx(table.totals, rel=1e-14)
    assert not table.cancellation.any()


def test_evaluate_purity():
    w = lt.weibull_type(0.4)
    exp = lt.expand(w, lt.WeightSequence([1.0, 0.5]), 2)
    g1 = lt.evaluate(exp, w, [60.0, 120.0])
    g2 = lt.evaluate(exp, w, [30.0, 60.0, 120.0])
    assert g1.totals[0] == g2.totals[1]
    assert g1.totals[1] == g2.totals[2]


def test_evaluate_benchmark_value():
    w = lt.weibull_type(0.4)
    exp = lt.expand(w, lt.WeightSequence([1.0, 0.5]), 2)
    t = 80.0
    table = lt.evaluate(exp, w, [t])
    assert table.benchmark[0] == pytest.approx(
        w.upper.hazard(t) ** 2 * w.sf(t), rel=1e-12)


def test_evaluate_domain_error_is_per_point():
    w = lt.weibull_type(0.4)  # t0 = 2
    exp = lt.expand(w, lt.WeightSequence([1.0, 0.5]), 0)
    table = lt.evaluate(exp, w, [1.0, 50.0])
    assert not table.domain_ok[0]
    assert np.isnan(table.totals[0])
    assert table.domain_ok[1]
    assert np.isfinite(table.totals[1])


def test_evaluate_keeps_the_cells_before_a_failing_scale():
    # at t = 1.5 the scale 0.5 reads x = 3 inside the tail (t0 = 2), the scale
    # 1 reads x = 1.5 below it: the row keeps the cell computed before the
    # failing term, and the note is that term's message
    w = lt.weibull_type(0.4)
    at_half = ExpansionTerm(scale=0.5, deriv_index=0, coeff=1.0,
                            source_level=2, operator_order=0)
    terms = (at_half,
             ExpansionTerm(scale=1.0, deriv_index=1, coeff=-1.0,
                           source_level=1, operator_order=1),
             ExpansionTerm(scale=0.5, deriv_index=1, coeff=1.0,
                           source_level=2, operator_order=1))
    note = "t=1.5: t = 1.5 below tail anchor t0 = 2.0; use the body CDF instead"
    for terms, rem_scale in ((terms, 0.5), ((at_half,), 1.0)):
        exp = TailExpansion(terms=terms,
                            remainder=RemainderScale(hazard_power=1, scale=rem_scale),
                            regime=lt.Regime(lt.RegimeKind.SUPERCRITICAL),
                            order_request=1)
        table = lt.evaluate(exp, w, [1.5, 50.0])
        assert table.term_values[0, 0] == pytest.approx(w.sf(3.0), rel=1e-14)
        assert np.isnan(table.term_values[0, 1:]).all()
        assert np.isnan([table.totals[0], table.benchmark[0]]).all()
        assert table.domain_ok.tolist() == [False, True]
        assert np.isfinite(table.term_values[1]).all()
        assert table.notes == [note]


def test_evaluate_sign_cancellation_flag():
    w = lt.weibull_type(0.4)
    terms = (ExpansionTerm(scale=1.0, deriv_index=0, coeff=1.0,
                           source_level=1, operator_order=0),
             ExpansionTerm(scale=1.0, deriv_index=0, coeff=-1.0 + 1e-5,
                           source_level=1, operator_order=0))
    exp = TailExpansion(terms=terms,
                        remainder=RemainderScale(hazard_power=0, scale=1.0),
                        regime=lt.Regime(lt.RegimeKind.SUPERCRITICAL),
                        order_request=0)
    table = lt.evaluate(exp, w, [50.0])
    assert table.cancellation[0]


def test_evaluate_component_cancellation_flag():
    mix = cancelling_mixture()
    exp = lt.expand(mix, lt.WeightSequence([1.0, 0.5]), 2)
    grid = np.geomspace(10.0, 1e5, 5)
    table = lt.evaluate(exp, mix, grid)
    assert table.cancellation.all()
    for i, t in enumerate(grid):
        closed = E1(t) - E1(4.0 * t)
        assert table.totals[i] == pytest.approx(closed, rel=1e-12)


def test_evaluate_takes_an_empty_grid():
    mix = cancelling_mixture()
    table = lt.evaluate(lt.expand(mix, lt.WeightSequence([1.0, 0.5]), 2), mix, [])
    assert table.totals.size == table.term_values.size == 0 and table.notes == []


def test_evaluate_no_false_cancellation_flag():
    mix = second_order_mixture()
    exp = lt.expand(mix, lt.WeightSequence([1.0, 0.5]), 2)
    table = lt.evaluate(exp, mix, np.geomspace(10.0, 1e4, 4))
    assert not table.cancellation.any()


SHIPPED = sorted(name[:-len(".json")] for name in os.listdir(CONFIGS))


@pytest.mark.parametrize("name", SHIPPED)
def test_shipped_evaluation_keeps_its_bits(name):
    # (total, benchmark, term values...) at three geometric points spanning
    # each shipped config's window
    doc = config.load_config(f"{CONFIGS}/{name}.json")
    dist = config.build_distribution(doc)
    exp = config.build_expansion(doc, dist, config.build_weights(doc, dist), None)
    grid = np.geomspace(doc["grid"]["t_min"], doc["grid"]["t_max"], 3)
    table = lt.evaluate(exp, dist, grid)
    pins.check(f"expansion/shipped_evaluation/{name}",
               [[total, bench, *row] for total, bench, row in
                zip(table.totals.tolist(), table.benchmark.tolist(),
                    table.term_values.tolist())])


def test_evaluation_keeps_the_bits_of_numpy_pow():
    # at this point numpy's pow loop and libm's pow give h(t) one ulp apart,
    # and the benchmark h(t)^2 S(t) shows it; the window points above do not
    w = lt.weibull_type(0.4)
    exp = lt.expand(w, lt.WeightSequence([1.0, 0.5]), 2)
    table = lt.evaluate(exp, w, [337.9477326726668])
    pins.check("expansion/numpy_pow",
               [table.totals[0], table.benchmark[0], *table.term_values[0]])


def _dense_grids(doc):
    """The 1000-point window and deep grids that the benchmark's analytic-dense
    workload evaluates, and one from below every tail anchor (t0 > 1) to t_max."""
    lo, hi = doc["grid"]["t_min"], doc["grid"]["t_max"]
    return (np.geomspace(lo, hi, 1000), np.geomspace(hi, 1000.0 * hi, 1000),
            np.geomspace(1.01, hi, 1000))


def _evaluation_digest(table) -> str:
    """sha256 over the float.hex of every total, benchmark and term cell, the
    flags and the notes."""
    cells = (*table.totals.tolist(), *table.benchmark.tolist(),
             *table.term_values.ravel().tolist())
    text = " ".join(v.hex() for v in cells)
    flags = table.cancellation.tobytes() + table.domain_ok.tobytes()
    return hashlib.sha256(text.encode() + flags + "\n".join(table.notes).encode()).hexdigest()


@pytest.mark.parametrize("name", SHIPPED)
def test_dense_evaluation_keeps_its_bits(name):
    # the digests of each shipped config's window, deep and below-anchor grids
    doc = config.load_config(f"{CONFIGS}/{name}.json")
    dist = config.build_distribution(doc)
    exp = config.build_expansion(doc, dist, config.build_weights(doc, dist), None)
    pins.check(f"expansion/dense_evaluation/{name}",
               [_evaluation_digest(lt.evaluate(exp, dist, grid)) for grid in _dense_grids(doc)])


def test_dense_evaluation_of_eight_components_keeps_its_bits():
    # the digests across its tail and from below its anchor: the log-survival
    # sums the eight components in np.sum's pairwise order
    mix = lt.log_power_mixture(EIGHT_COMPONENTS)
    exp = lt.expand(mix, lt.WeightSequence([1.0, 0.5]), 1)
    pins.check("expansion/dense_evaluation/eight",
               [_evaluation_digest(lt.evaluate(exp, mix, grid))
                for grid in (np.geomspace(2.5, 1e6, 1000), np.geomspace(1.01, 1e5, 1000))])


def _per_row_component_notes(exp, dist, t_grid, good):
    """The rows and notes of the check that evaluate ran row by row before it
    read the components on the whole grid, kept as the reference: on each good
    row, the first pair x < 0 < y of signed tail components, in component
    order, with |x + y| <= ratio * max(-x, y)."""
    rows, notes = [], []
    for r in np.flatnonzero(good).tolist():
        components = [float(term.coeff) * v for term in exp.terms
                      if term.deriv_index == 0
                      for v in lt.ScaledFactor(dist, term.scale).tail_reads(0, t_grid[r])[1]]
        pair = next(((x, y) for x in components if x < 0 for y in components
                     if y > 0 and abs(x + y) <= _CANCEL_RATIO * max(-x, y)), None)
        if pair:
            rows.append(r)
            notes.append(
                f"t={t_grid[r]:g}: tail components {pair[0]:.6g} and {pair[1]:.6g} cancel")
    return rows, notes


def _cancellation_case(name):
    doc = config.load_config(f"{CONFIGS}/cancellation_pair.json")
    mix = config.build_distribution(doc)
    if name != "two_pairs":
        exp = config.build_expansion(doc, mix, config.build_weights(doc, mix), None)
        return exp, mix, dict(zip(("window", "deep", "below"), _dense_grids(doc)))[name]
    # e1(t) - e1(2t) at scales 1, 0.502 and 0.2515 reads the components e1(t),
    # -e1(2t), e1(1.992t), -e1(3.984t), e1(3.976t), -e1(7.952t): both pairs
    # nearly cancel up to t = 8 or so, the second alone up to about 2e4, and
    # neither beyond
    terms = tuple(ExpansionTerm(scale=c, deriv_index=0, coeff=1.0, source_level=1,
                                operator_order=0) for c in (1.0, 0.502, 0.2515))
    exp = TailExpansion(terms=terms, remainder=RemainderScale(hazard_power=0, scale=0.2515),
                        regime=lt.Regime(lt.RegimeKind.SUBCRITICAL), order_request=0)
    return exp, mix, np.geomspace(1.5, 1e7, 300)


@pytest.mark.parametrize("name", ["window", "deep", "below", "two_pairs"])
def test_evaluate_component_cancellation_matches_the_per_row_check(name):
    exp, mix, grid = _cancellation_case(name)
    table = lt.evaluate(exp, mix, grid)
    rows, notes = _per_row_component_notes(exp, mix, grid, table.domain_ok)
    assert rows
    assert [note for note in table.notes if note.endswith(" cancel")] == notes
    # the other flags are the signed total's
    values = table.term_values
    largest = np.abs(values).max(axis=1, initial=0.0, where=np.isfinite(values))
    vanishes = (table.domain_ok & (largest > 0.0)
                & (np.abs(table.totals) < _CANCEL_RATIO * largest) & (len(exp.terms) >= 2))
    assert (np.flatnonzero(table.cancellation).tolist()
            == sorted(set(rows) | set(np.flatnonzero(vanishes).tolist())))


def test_evaluate_reads_each_mixture_scale_once():
    # the log-survival and the cancellation check share one read of the
    # components per scale, on the array of that scale's tail points
    doc = config.load_config(f"{CONFIGS}/cancellation_pair.json")
    mix = config.build_distribution(doc)
    exp = config.build_expansion(doc, mix, config.build_weights(doc, mix), None)
    reads = []

    def counted(name):
        read = getattr(mix.upper, name)

        def counting(t):
            reads.append((name, t))
            return read(t)
        return counting

    upper = replace(mix.upper, **{name: counted(name)
                                  for name in ("cum_hazard", "cum_and_components")})
    watched = replace(mix, upper=upper)
    window, deep, below = _dense_grids(doc)  # deep: every point in both scales' tails
    deep_table = lt.evaluate(exp, watched, deep)
    scales = sorted({term.scale for term in exp.terms} | {exp.remainder.scale})
    assert [name for name, _ in reads] == ["cum_and_components"] * len(scales)
    assert sorted(t.tolist() for _, t in reads) == sorted((deep / c).tolist() for c in scales)
    pins.check("expansion/dense_evaluation/cancellation_pair",
               [_evaluation_digest(lt.evaluate(exp, watched, window)),
                _evaluation_digest(deep_table),
                _evaluation_digest(lt.evaluate(exp, watched, below))])


# -- leading-order consistency across regimes ------------------------------------


@pytest.mark.parametrize("dist,order", [
    (lt.weibull_type(0.4), 0),
    (lt.lognormal_type(0.5), 1),
    (second_order_mixture(), 1),
])
def test_leading_order_is_multiplicity_times_top_tail(dist, order):
    seq = lt.WeightSequence([1.0, 1.0, 0.3])
    exp = lt.expand(dist, seq, order)
    lead = [t for t in exp.terms if t.deriv_index == 0 and t.scale == 1.0]
    assert len(lead) == 1 and lead[0].coeff == 2.0


def test_rewrite_refuses_keep_zero():
    w = lt.weibull_type(0.4)
    exp = lt.expand(w, lt.WeightSequence([1.0, 0.5]), 2)
    with pytest.raises(ValueError, match="keep must be positive"):
        lt.rewrite_in_hazard_scale(exp, w, keep=0)
