"""Weight sequences for the infinite sum and their classes of equal magnitude.

A sequence is an explicit head of nonzero weights c_1..c_n, optionally
continued geometrically by a ratio r with 0 < |r| < 1: c_i = (c_n r) r^(i-n-1)
for i > n.  Such a sequence is summable for every exponent, so the sums over
the generated weights are read in closed form.

`classes()` enumerates the classes of equal |c_i|, largest first: the
expansion reads the top one, those down to its floor or the m largest, and
the oracle's truncation keeps every index of the top one.

Weights of either sign are stored alike.  What a negative weight means
depends on the innovation law, so it is the law's to decide:
`ScaledFactor` reads the law of c * X, and the expansion takes a negative
weight only on a symmetric law.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Iterator, NamedTuple

__all__ = ["Level", "WeightSequence"]


class Level(NamedTuple):
    magnitude: float
    positive: tuple[int, ...]
    negative: tuple[int, ...]


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

    # -- classes --------------------------------------------------------------

    def classes(self) -> Iterator[Level]:
        """The classes of equal |c_i|, largest first, each with its positive and
        its negative indices in index order: the stably sorted head merged into
        the generated weights, which shrink strictly and stop where they underflow
        to zero.  At ratio 0.5 that is 1075 classes, so readers bound it."""
        def magnitude(entry):
            return abs(entry[1])

        head = sorted(self.entries, key=magnitude, reverse=True)
        generated = () if self.ratio is None else itertools.takewhile(
            magnitude, ((i, self.weight(i)) for i in itertools.count(len(self.entries) + 1)))
        merged = heapq.merge(head, generated, key=magnitude, reverse=True)
        for mag, group in itertools.groupby(merged, key=magnitude):
            group = tuple(group)
            yield Level(mag, tuple(i for i, w in group if w > 0.0),
                        tuple(i for i, w in group if w < 0.0))

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
