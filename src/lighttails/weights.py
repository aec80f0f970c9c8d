"""Weight sequences for the infinite sum, grouped into levels by magnitude.

A sequence is an explicit head of nonzero weights c_1..c_n, optionally
continued geometrically by a ratio r with 0 < |r| < 1: c_i = (c_n r) r^(i-n-1)
for i > n.  Such a sequence is summable for every exponent, so the sums over
the generated weights are read in closed form.

Weights of either sign are stored alike.  What a negative weight means
depends on the innovation law, so it is the law's to decide:
`ScaledFactor` reads the law of c * X, and the expansion takes a negative
weight only on a symmetric law.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator

__all__ = ["Level", "WeightSequence"]


@dataclass(frozen=True)
class Level:
    magnitude: float
    pos_count: int
    neg_count: int


class WeightSequence:
    """Nonzero weights c_i, i = 1..n explicit, continued geometrically by `ratio`."""

    def __init__(self, weights, ratio: float | None = None):
        entries = []
        for w in map(float, weights):
            if not math.isfinite(w):
                raise ValueError("weights must be finite")
            if w != 0.0:  # point mass at zero is the convolution unit
                entries.append((len(entries) + 1, w))
        if not entries:
            raise ValueError("weight sequence must contain a nonzero entry")
        if ratio is not None and not 0.0 < abs(ratio) < 1.0:
            raise ValueError("generator ratio must satisfy 0 < |ratio| < 1")

        self.entries: tuple[tuple[int, float], ...] = tuple(entries)
        self.ratio = ratio
        # c_{n+1}, the first generated weight; every later one scales it
        self._first = entries[-1][1] * ratio if ratio is not None else None

    # -- basic access -------------------------------------------------------

    @property
    def has_negative(self) -> bool:
        """Whether any weight, generated ones included, is negative."""
        return any(w < 0.0 for _, w in self.entries) or (
            self.ratio is not None and self.ratio < 0.0)

    def weight(self, i: int) -> float:
        n = len(self.entries)
        if 1 <= i <= n:
            return self.entries[i - 1][1]  # entries are numbered 1..n
        if self.ratio is not None and i > n:
            return self._first * self.ratio ** (i - n - 1)
        raise KeyError(f"no weight with index {i}")

    def iter_weights(self, min_magnitude: float = 0.0) -> Iterator[tuple[int, float]]:
        """All (index, weight) with |weight| >= min_magnitude; finite for positive bound."""
        if min_magnitude <= 0.0 and self.ratio is not None:
            raise ValueError("enumerating an infinite sequence needs a positive magnitude bound")
        yield from ((i, w) for i, w in self.entries if abs(w) >= min_magnitude)
        if self.ratio is None:
            return
        for i in itertools.count(len(self.entries) + 1):  # magnitudes decrease
            w = self.weight(i)
            if abs(w) < min_magnitude:
                return
            yield i, w

    # -- levels ---------------------------------------------------------------

    def levels(self, count: int | None = None) -> list[Level]:
        """Distinct magnitudes in decreasing order with signed multiplicities.

        For a generated (infinite) sequence, `count` bounds how many levels are
        materialized; explicit entries and generated weights are merged, grouping
        magnitudes that coincide exactly.
        """
        if count is None and self.ratio is not None:
            raise ValueError("infinite sequence: pass the number of levels to materialize")

        n = len(self.entries)
        if self.ratio is not None:
            # enough generated weights that, merged with the head, `count` levels exist
            n += count + len({abs(w) for _, w in self.entries}) + 2
        groups: dict[float, list[int]] = {}
        for _, w in self.truncated_entries(n):
            groups.setdefault(abs(w), [0, 0])[0 if w > 0 else 1] += 1

        ordered = sorted(groups.items(), key=lambda kv: -kv[0])
        return [Level(mag, pos, neg) for mag, (pos, neg) in ordered][:count]

    @property
    def max_magnitude(self) -> float:
        top = max(abs(w) for _, w in self.entries)
        return top  # generated weights lie below the last explicit entry

    def maximal_indices(self) -> tuple[int, ...]:
        """Indices of entries equivalent to the top class (|c| equal to the max)."""
        top = self.max_magnitude
        return tuple(i for i, w in self.entries if abs(w) == top)

    # -- sums -----------------------------------------------------------------

    def _generated_power_sum(self, n: int) -> float:
        """sum_{i > len(entries)} c_i^n in closed form; 0 without a ratio."""
        if self.ratio is None:
            return 0.0
        return self._first ** n / (1.0 - self.ratio ** n)

    def _generated_abs_sum(self, m: int) -> float:
        """sum_{i >= m, i > len(entries)} |c_i| in closed form; 0 without a ratio."""
        if self.ratio is None:
            return 0.0
        r = abs(self.ratio)
        return abs(self._first) * r ** max(0, m - len(self.entries) - 1) / (1.0 - r)

    def power_sum(self, n: int) -> float:
        """sum_i c_i^n over the whole sequence (head exact, generated closed form)."""
        return sum(w ** n for _, w in self.entries) + self._generated_power_sum(n)

    def residual_power_sum(self, i: int, n: int) -> float:
        """sum_{j != i} c_j^n.  For explicit i the head is summed directly so no
        cancellation error enters; generated indices subtract from the closed form."""
        if 1 <= i <= len(self.entries):
            return sum(w ** n for j, w in self.entries if j != i) + self._generated_power_sum(n)
        return self.power_sum(n) - self.weight(i) ** n

    def abs_sum(self) -> float:
        return sum(abs(w) for _, w in self.entries) + self._generated_abs_sum(0)

    def truncation_index(self, eps: float) -> int:
        """Smallest N with sum_{i > N} |c_i| < eps; closed form on the generated weights."""
        if eps <= 0.0:
            raise ValueError("eps must be positive")
        head = len(self.entries)
        tail = self._generated_abs_sum(0)
        if tail >= eps:
            # need sum_{i > N} = |c_{head+1}| r^(N-head) / (1-r) < eps
            r = abs(self.ratio)
            bound = eps * (1.0 - r) / abs(self._first)
            n = head + max(0, math.ceil(math.log(bound) / math.log(r)))
            while self._generated_abs_sum(n + 1) >= eps:
                n += 1
            while n > head and self._generated_abs_sum(n) < eps:
                n -= 1
            return n
        # drop trailing explicit entries while the remainder stays below eps
        n = head
        for j, w in reversed(self.entries):
            if tail + abs(w) >= eps:
                break
            tail += abs(w)
            n = j - 1
        return n

    def truncated_entries(self, n: int) -> tuple[tuple[int, float], ...]:
        """Entries with index <= n, generated ones included; each weight is weight(i)."""
        if self.ratio is None:
            n = min(n, len(self.entries))
        return tuple((i, self.weight(i)) for i in range(1, n + 1))

    def __repr__(self):
        head = ", ".join(f"{w:g}" for _, w in self.entries[:6])
        more = ", ..." if len(self.entries) > 6 else ""
        ratio = f", ratio={self.ratio}" if self.ratio is not None else ""
        return f"WeightSequence([{head}{more}]{ratio})"
