"""Weight sequences: levels, residuals, truncation, power sums."""

import math

import pytest

import lighttails as lt
from lighttails.weights import GeometricTail

from helpers import geometric_power_sum

ONE_SIDED = lt.weibull_type(0.4)
SYMMETRIC = lt.weibull_type(0.4, symmetric=True)


# -- construction ---------------------------------------------------------------


def test_zero_weights_dropped():
    seq = lt.WeightSequence([1.0, 0.0, 0.5, 0.0])
    assert [w for _, w in seq.entries] == [1.0, 0.5]


def test_one_sided_rejects_negative():
    # the sequence stores either sign; the law refuses a negative weight,
    # generated ones included, when the expansion is built
    assert not lt.WeightSequence.geometric(1.0, 0.5).has_negative
    for seq in (lt.WeightSequence([1.0, -0.5]), lt.WeightSequence.geometric(1.0, -0.5)):
        assert seq.has_negative
        with pytest.raises(lt.OutOfScopeError):
            lt.expand(ONE_SIDED, seq, 0)
        assert lt.expand(SYMMETRIC, seq, 0).terms


def test_empty_rejected():
    with pytest.raises(ValueError):
        lt.WeightSequence([0.0])


def test_delta_summability_closed_form():
    seq = lt.WeightSequence.geometric(1.0, 0.5, delta=0.3)
    # sum |c_i|^0.3 = sum (2^-0.3)^(i-1) = 1/(1 - 2^-0.3)
    assert seq._delta_sum == pytest.approx(1.0 / (1.0 - 2 ** -0.3), rel=1e-12)


def test_generator_must_continue_below_head():
    with pytest.raises(ValueError):
        lt.WeightSequence([1.0], generator=GeometricTail(0.5, 2, 2.0))


# -- levels ---------------------------------------------------------------------


def test_level_sequence_worked_listing():
    seq = lt.WeightSequence([1.0, 1.0, 0.5, 1 / 3, 1 / 3, 0.1, 0.05])
    levels = seq.levels()
    assert [(l.magnitude, l.pos_count, l.neg_count) for l in levels[:3]] == [
        (1.0, 2, 0), (0.5, 1, 0), (1 / 3, 2, 0)]


def test_level_sequence_signed():
    seq = lt.WeightSequence([1.0, -1.0, 0.5])
    levels = seq.levels()
    assert (levels[0].magnitude, levels[0].pos_count, levels[0].neg_count) == (1.0, 1, 1)
    assert (levels[1].magnitude, levels[1].pos_count, levels[1].neg_count) == (0.5, 1, 0)


def test_levels_with_generator():
    seq = lt.WeightSequence.geometric(1.0, 0.5)
    levels = seq.levels(4)
    assert [l.magnitude for l in levels] == [1.0, 0.5, 0.25, 0.125]
    assert all(l.pos_count == 1 and l.neg_count == 0 for l in levels)


def test_levels_infinite_needs_count():
    seq = lt.WeightSequence.geometric(1.0, 0.5)
    with pytest.raises(ValueError):
        seq.levels()


def test_maximal_indices_multiplicity():
    seq = lt.WeightSequence([1.0, 1.0, 0.5])
    assert seq.maximal_indices() == (1, 2)
    bal = lt.WeightSequence([1.0, -1.0, 0.5])
    assert bal.maximal_indices() == (1, 2)


# -- power sums and truncation --------------------------------------------------------


def test_power_sums_closed_form():
    seq = lt.WeightSequence.geometric(1.0, 0.5)
    for n in (1, 2, 3, 4):
        assert seq.power_sum(n) == pytest.approx(geometric_power_sum(1.0, 0.5, n),
                                                 rel=1e-14)
    # residual power sums subtract exactly one entry
    assert seq.residual_power_sum(1, 2) == pytest.approx(1 / 3, rel=1e-14)
    assert seq.residual_power_sum(1, 4) == pytest.approx(1 / 15, rel=1e-14)
    # removing a generated entry works through the closed form
    assert seq.residual_power_sum(3, 2) == pytest.approx(
        geometric_power_sum(1.0, 0.5, 2) - 0.25**2, rel=1e-13)


def test_negative_ratio_power_sums():
    seq = lt.WeightSequence([1.0, -0.5],
                            generator=GeometricTail(-0.5, 3, 0.25))
    assert seq.power_sum(1) == pytest.approx(1.0 - 0.5 + 0.25 / 1.5, rel=1e-14)
    assert seq.power_sum(2) == pytest.approx(1.0 + 0.25 + 0.0625 / 0.75, rel=1e-14)


def test_truncation_index_geometric():
    seq = lt.WeightSequence.geometric(1.0, 0.5)
    for eps in (1e-3, 1e-6, 1e-9):
        n = seq.truncation_index(eps)
        tail = seq.generator.abs_tail_sum(n + 1)
        assert tail < eps
        if n > 1:
            assert seq.generator.abs_tail_sum(n) >= eps
    # 2^(1-N) < 1e-6 first holds at N = 21
    assert seq.truncation_index(1e-6) == 21


def test_truncation_index_finite_list():
    seq = lt.WeightSequence([1.0, 0.5, 0.25])
    assert seq.truncation_index(1e-9) == 3
    assert seq.truncation_index(0.3) == 2
    assert seq.truncation_index(10.0) == 0
    with pytest.raises(ValueError):
        seq.truncation_index(0.0)


def test_truncation_index_generator_below_eps():
    # the generator's whole tail (2e-12) is under eps, so truncation scans the
    # explicit entries starting from that tail sum
    seq = lt.WeightSequence([1.0, 0.5], generator=GeometricTail(0.5, 3, 1e-12))
    assert seq.truncation_index(1e-9) == 2
    assert seq.truncation_index(0.6) == 1
    for eps in (1e-9, 0.6):
        kept = seq.truncated_entries(seq.truncation_index(eps))
        assert all(i < seq.generator.start_index for i, _ in kept)


def test_truncated_entries_include_generator():
    seq = lt.WeightSequence.geometric(1.0, 0.5)
    entries = seq.truncated_entries(4)
    assert [w for _, w in entries] == [1.0, 0.5, 0.25, 0.125]


def _tail_scan(seq, eps):
    """Smallest N with sum_{i > N} |c_i| < eps, scanning N = 0, 1, ... over the
    explicit entries plus the generator's closed-form tail from N + 1 on."""
    for n in range(10_000):
        tail = sum(abs(w) for i, w in seq.entries if i > n)
        if tail + seq.generator.abs_tail_sum(n + 1) < eps:
            return n
    raise AssertionError("no N found")


@pytest.mark.parametrize("ratio", [0.5, -0.5, 0.3, -0.3, 0.1, 0.7, 0.9])
def test_truncation_index_is_the_smallest_n(ratio):
    # eps on a tail sum itself and one ulp either side puts the closed-form
    # estimate of N off by one, so both correction steps are reached
    seq = lt.WeightSequence([1.0, 0.8], generator=GeometricTail(ratio, 3, 0.8 * ratio))
    tails = [seq.generator.abs_tail_sum(m) for m in range(3, 30)]
    for eps in [1e-2, 1e-5, 1e-9, 1.0, 5.0] + [
            e for tail in tails for e in (tail, math.nextafter(tail, 0.0),
                                           math.nextafter(tail, 1.0))]:
        assert seq.truncation_index(eps) == _tail_scan(seq, eps), eps


@pytest.mark.parametrize("ratio", [0.3, -0.3, 0.7])
def test_levels_are_the_truncated_entries(ratio):
    # a generated weight has one value, weight(i): the levels and the
    # subcritical expansion name the weights the oracle truncates to
    seq = lt.WeightSequence([1.0, 0.5], generator=GeometricTail(ratio, 3, 0.5 * ratio))
    entries = [w for _, w in seq.truncated_entries(8)]
    assert [lev.magnitude for lev in seq.levels(8)] == [abs(w) for w in entries]
    exp = lt.expand(lt.log_weibull(1.5, symmetric=ratio < 0), seq, 8)
    assert [t.scale for t in exp.terms] == entries
    assert exp.remainder.scale == abs(entries[-1])


def test_truncated_entries_of_a_finite_sequence_stop_at_its_end():
    seq = lt.WeightSequence([1.0, -0.5, 0.25])
    assert seq.truncated_entries(10) == ((1, 1.0), (2, -0.5), (3, 0.25))
    assert seq.truncated_entries(2) == ((1, 1.0), (2, -0.5))
    assert seq.truncated_entries(0) == ()
