"""Weight sequences: classes, residuals, truncation, power sums."""

import itertools
import math
import random

import pytest

import lighttails as lt
from lighttails.config import build_weights
import pins
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
    assert not lt.WeightSequence([1.0], ratio=0.5).has_negative
    for seq in (lt.WeightSequence([1.0, -0.5]), lt.WeightSequence([1.0], ratio=-0.5)):
        assert seq.has_negative
        with pytest.raises(lt.OutOfScopeError):
            lt.expand(ONE_SIDED, seq, 0)
        assert lt.expand(SYMMETRIC, seq, 0).terms


def test_empty_rejected():
    with pytest.raises(ValueError):
        lt.WeightSequence([0.0])


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_non_finite_weight_rejected(bad):
    with pytest.raises(ValueError):
        lt.WeightSequence([1.0, bad])


@pytest.mark.parametrize("ratio", [0.0, 1.0, -1.0, 1.5, math.nan])
def test_ratio_outside_the_unit_interval_rejected(ratio):
    with pytest.raises(ValueError):
        lt.WeightSequence([1.0], ratio=ratio)


def test_package_exports_resolve():
    assert all(hasattr(lt, name) for name in lt.__all__)
    # a geometric continuation is WeightSequence's ratio, not a class of its own
    gone = "GeometricTail"
    assert gone not in lt.__all__ and not hasattr(lt, gone) and not hasattr(lt.weights, gone)


# -- classes --------------------------------------------------------------------


def _counts(level):
    return level.magnitude, len(level.positive), len(level.negative)


def test_level_sequence_worked_listing():
    seq = lt.WeightSequence([1.0, 1.0, 0.5, 1 / 3, 1 / 3, 0.1, 0.05])
    levels = list(seq.classes())
    assert [_counts(l) for l in levels[:3]] == [(1.0, 2, 0), (0.5, 1, 0), (1 / 3, 2, 0)]
    assert [l.positive for l in levels] == [(1, 2), (3,), (4, 5), (6,), (7,)]


def test_level_sequence_signed():
    seq = lt.WeightSequence([1.0, -1.0, 0.5])
    levels = list(seq.classes())
    assert _counts(levels[0]) == (1.0, 1, 1)
    assert _counts(levels[1]) == (0.5, 1, 0)
    assert (levels[0].positive, levels[0].negative) == ((1,), (2,))


def test_levels_with_generator():
    seq = lt.WeightSequence([1.0], ratio=0.5)
    levels = list(itertools.islice(seq.classes(), 4))
    assert [l.magnitude for l in levels] == [1.0, 0.5, 0.25, 0.125]
    assert [(l.positive, l.negative) for l in levels] == [((i,), ()) for i in range(1, 5)]


def test_maximal_indices_multiplicity():
    seq = lt.WeightSequence([1.0, 1.0, 0.5])
    assert next(seq.classes()).positive == (1, 2)
    bal = lt.WeightSequence([1.0, -1.0, 0.5])
    top = next(bal.classes())
    assert (top.positive, top.negative) == ((1,), (2,))


def test_classes_end_where_the_generated_weights_underflow():
    # 2^-1074 is the last nonzero power of 0.5; a 0.0 class would never end
    levels = list(lt.WeightSequence([1.0], ratio=0.5).classes())
    assert len(levels) == 1075
    assert levels[-1] == (2.0 ** -1074, (1075,), ())


def _brute_classes(seq, n):
    """The classes of truncated_entries(n), grouped by exact magnitude in a dict:
    magnitude -> (positive indices, negative indices), largest first."""
    groups = {}
    for i, w in seq.truncated_entries(n):
        groups.setdefault(abs(w), ([], []))[w < 0.0].append(i)
    return [(m, tuple(pos), tuple(neg)) for m, (pos, neg) in
            sorted(groups.items(), key=lambda kv: -kv[0])]


def test_classes_group_the_truncated_entries():
    # [1, 0.25, 0.5] at ratio 0.5: c_4 = 0.5 * 0.5 = 0.25 joins c_2's class,
    # after it in index order
    seq = lt.WeightSequence([1.0, 0.25, 0.5], ratio=0.5)
    assert list(itertools.islice(seq.classes(), 4)) == [
        (1.0, (1,), ()), (0.5, (3,), ()), (0.25, (2, 4), ()), (0.125, (5,), ())]
    # random heads drawn from a few magnitudes of either sign, so classes repeat
    # and mix signs, and a ratio of either sign, whose generated weights may tie
    # a head magnitude as above
    rng = random.Random(20261020)
    ties = 0
    for _ in range(300):
        head = [rng.choice([1.0, -1.0]) * rng.choice([1.0, 0.5, 0.25, 0.3, 0.125])
                for _ in range(rng.randint(1, 7))]
        ratio = rng.choice([None, 0.5, -0.5, 0.3, -0.7, 0.9])
        seq = lt.WeightSequence(head, ratio=ratio)
        n = len(head) + (40 if ratio else 0)
        want = _brute_classes(seq, n)
        if ratio:  # a class is whole once a generated weight below it is read
            want = [c for c in want if c[0] > abs(seq.weight(n))]
        assert list(itertools.islice(seq.classes(), len(want))) == want, (head, ratio)
        ties += any(min(pos + neg) <= len(head) < max(pos + neg) for _, pos, neg in want)
    assert ties >= 10


# -- power sums and truncation --------------------------------------------------------


def test_power_sums_closed_form():
    seq = lt.WeightSequence([1.0], ratio=0.5)
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
    seq = lt.WeightSequence([1.0, -0.5], ratio=-0.5)
    assert seq.power_sum(1) == pytest.approx(1.0 - 0.5 + 0.25 / 1.5, rel=1e-14)
    assert seq.power_sum(2) == pytest.approx(1.0 + 0.25 + 0.0625 / 0.75, rel=1e-14)


def test_truncation_index_geometric():
    seq = lt.WeightSequence([1.0], ratio=0.5)
    for eps in (1e-3, 1e-6, 1e-9):
        n = seq.truncation_index(eps)
        assert _generated_tail(seq, n + 1) < eps
        if n > 1:
            assert _generated_tail(seq, n) >= eps
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
    # the generated tail (first weight 1e-12, sum 1e-12 / (1 - 2e-12)) is under
    # eps, so truncation scans the explicit entries starting from that tail sum
    seq = lt.WeightSequence([1.0, 0.5], ratio=2e-12)
    assert seq.truncation_index(1e-9) == 2
    assert seq.truncation_index(0.6) == 1
    for eps in (1e-9, 0.6):
        kept = seq.truncated_entries(seq.truncation_index(eps))
        assert all(i <= len(seq.entries) for i, _ in kept)


def test_truncated_entries_include_generator():
    seq = lt.WeightSequence([1.0], ratio=0.5)
    entries = seq.truncated_entries(4)
    assert [w for _, w in entries] == [1.0, 0.5, 0.25, 0.125]


def _generated_tail(seq, m):
    """sum_{i >= m} |c_i| over the generated weights, from the first one at
    or after m: |c_m| / (1 - |r|)."""
    return abs(seq.weight(max(m, len(seq.entries) + 1))) / (1.0 - abs(seq.ratio))


def _tail_scan(seq, eps):
    """Smallest N with sum_{i > N} |c_i| < eps, scanning N = 0, 1, ... over the
    explicit entries plus the generated weights' closed-form tail from N + 1 on."""
    for n in range(10_000):
        tail = sum(abs(w) for i, w in seq.entries if i > n)
        if tail + _generated_tail(seq, n + 1) < eps:
            return n
    raise AssertionError("no N found")


@pytest.mark.parametrize("ratio", [0.5, -0.5, 0.3, -0.3, 0.1, 0.7, 0.9])
def test_truncation_index_is_the_smallest_n(ratio):
    # eps on a tail sum itself and one ulp either side puts the closed-form
    # estimate of N off by one, so both correction steps are reached
    seq = lt.WeightSequence([1.0, 0.8], ratio=ratio)
    tails = [_generated_tail(seq, m) for m in range(3, 30)]
    for eps in [1e-2, 1e-5, 1e-9, 1.0, 5.0] + [
            e for tail in tails for e in (tail, math.nextafter(tail, 0.0),
                                           math.nextafter(tail, 1.0))]:
        assert seq.truncation_index(eps) == _tail_scan(seq, eps), eps


@pytest.mark.parametrize("ratio", [0.3, -0.3, 0.7])
def test_levels_are_the_truncated_entries(ratio):
    # a generated weight has one value, weight(i): the classes and the
    # subcritical expansion name the weights the oracle truncates to
    seq = lt.WeightSequence([1.0, 0.5], ratio=ratio)
    entries = [w for _, w in seq.truncated_entries(8)]
    levels = list(itertools.islice(seq.classes(), 8))
    assert [lev.magnitude for lev in levels] == [abs(w) for w in entries]
    exp = lt.expand(lt.log_weibull(1.5, symmetric=ratio < 0), seq, 8)
    assert [t.scale for t in exp.terms] == entries
    assert exp.remainder.scale == abs(entries[-1])


def test_generated_weights_and_sums_are_pinned_at_a_non_dyadic_ratio():
    # the generated weights c_3..c_40 of [1, 0.5] continued by ratio 0.3: each
    # is (c_2 * 0.3) * 0.3^(i - 3), which differs in the last bit from
    # c_2 * 0.3^(i - 2) at 13 of these indices
    doc = {"weights": {"weights": [1.0, 0.5], "delta": 0.5,
                       "generator": {"type": "geometric", "ratio": 0.3, "from_index": 3}}}
    for seq in (build_weights(doc, ONE_SIDED), lt.WeightSequence([1.0, 0.5], ratio=0.3)):
        pins.check("weights/geometric0.3/weights", [seq.weight(i) for i in range(3, 41)])
        pins.check("weights/geometric0.3/power_sums", [seq.power_sum(n) for n in range(1, 9)])
        pins.check("weights/geometric0.3/residual_power_sums",
                   [seq.residual_power_sum(3, n) for n in range(1, 9)])
        pins.check("weights/geometric0.3/abs_sum", seq.abs_sum())
        assert seq.truncation_index(1e-9) == 18


def test_truncated_entries_of_a_finite_sequence_stop_at_its_end():
    seq = lt.WeightSequence([1.0, -0.5, 0.25])
    assert seq.truncated_entries(10) == ((1, 1.0), (2, -0.5), (3, 0.25))
    assert seq.truncated_entries(2) == ((1, 1.0), (2, -0.5))
    assert seq.truncated_entries(0) == ()


@pytest.mark.parametrize("build, error, match", [
    (lambda: lt.WeightSequence([1.0, 0.5]).weight(0), KeyError, "no weight with index 0"),
], ids=["weight_zero"])
def test_weight_refusals(build, error, match):
    with pytest.raises(error, match=match):
        build()
