"""Weight sequences for the infinite sum, grouped into levels by magnitude.

A sequence is an explicit head of nonzero weights plus an optional geometric
generator continuing it (entry i beyond the head equals the last explicit
weight times ratio^(i - last_index)).  The summability requirement is that
sum |c_i|^delta is finite for the declared delta in (0, 1); geometric tails
always satisfy it, so the constructor verifies the head by direct summation
and the tail in closed form.

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

__all__ = ["GeometricTail", "Level", "WeightSequence"]


@dataclass(frozen=True)
class GeometricTail:
    """Continuation rule: weight(i) = first_value * ratio^(i - start_index)."""

    ratio: float
    start_index: int
    first_value: float

    def __post_init__(self):
        if not 0.0 < abs(self.ratio) < 1.0:
            raise ValueError("generator ratio must satisfy 0 < |ratio| < 1")
        if self.first_value == 0.0:
            raise ValueError("generator first value must be nonzero")

    def weight(self, i: int) -> float:
        if i < self.start_index:
            raise KeyError(i)
        return self.first_value * self.ratio ** (i - self.start_index)

    def power_sum(self, n: int) -> float:
        """sum_{i >= start} weight(i)^n, closed form."""
        r = self.ratio ** n
        return self.first_value ** n / (1.0 - r)

    def abs_tail_sum(self, from_index: int) -> float:
        """sum_{i >= from_index} |weight(i)|."""
        if from_index < self.start_index:
            from_index = self.start_index
        head = abs(self.first_value) * abs(self.ratio) ** (from_index - self.start_index)
        return head / (1.0 - abs(self.ratio))


@dataclass(frozen=True)
class Level:
    magnitude: float
    pos_count: int
    neg_count: int


class WeightSequence:
    """Nonzero weights c_i, i = 1..n explicit, optionally continued geometrically."""

    def __init__(self, weights, delta: float = 0.5, generator: GeometricTail | None = None):
        if not 0.0 < delta < 1.0:
            raise ValueError("summability exponent delta must lie in (0, 1)")
        entries = []
        index = 1
        for w in weights:
            w = float(w)
            if w == 0.0:
                continue  # point mass at zero is the convolution unit
            entries.append((index, w))
            index += 1
        if not entries:
            raise ValueError("weight sequence must contain a nonzero entry")
        if generator is not None and generator.start_index != entries[-1][0] + 1:
            raise ValueError("generator must start right after the explicit entries")
        if generator is not None and abs(generator.first_value) > abs(entries[-1][1]):
            raise ValueError("generator must continue below the last explicit weight, "
                             "so that maximal entries stay explicit")

        self.entries: tuple[tuple[int, float], ...] = tuple(entries)
        self.delta = float(delta)
        self.generator = generator
        # head summed exactly, generator tail in closed form (always finite)
        self._delta_sum = sum(abs(w) ** delta for _, w in entries)
        if generator is not None:
            r = abs(generator.ratio) ** delta
            self._delta_sum += abs(generator.first_value) ** delta / (1.0 - r)
        if not math.isfinite(self._delta_sum):
            raise ValueError("sum |c_i|^delta diverges for the declared delta")

    # -- basic access -------------------------------------------------------

    @classmethod
    def geometric(cls, first: float, ratio: float, head: int = 1,
                  delta: float = 0.5) -> "WeightSequence":
        """Fully geometric sequence c_i = first * ratio^(i-1) with `head` explicit entries."""
        weights = [first * ratio ** k for k in range(head)]
        gen = GeometricTail(ratio=ratio, start_index=head + 1,
                            first_value=first * ratio ** head)
        return cls(weights, delta=delta, generator=gen)

    @property
    def has_negative(self) -> bool:
        """Whether any weight, generated ones included, is negative."""
        gen = self.generator
        return any(w < 0.0 for _, w in self.entries) or (
            gen is not None and (gen.first_value < 0.0 or gen.ratio < 0.0))

    def weight(self, i: int) -> float:
        if 1 <= i <= len(self.entries):
            return self.entries[i - 1][1]  # entries are numbered 1..n
        if self.generator is not None:
            return self.generator.weight(i)
        raise KeyError(f"no weight with index {i}")

    def iter_weights(self, min_magnitude: float = 0.0) -> Iterator[tuple[int, float]]:
        """All (index, weight) with |weight| >= min_magnitude; finite for positive bound."""
        if min_magnitude <= 0.0 and self.generator is not None:
            raise ValueError("enumerating an infinite sequence needs a positive magnitude bound")
        yield from ((i, w) for i, w in self.entries if abs(w) >= min_magnitude)
        if self.generator is None:
            return
        for i in itertools.count(self.generator.start_index):  # magnitudes decrease
            w = self.weight(i)
            if abs(w) < min_magnitude:
                return
            yield i, w

    # -- levels ---------------------------------------------------------------

    def levels(self, count: int | None = None) -> list[Level]:
        """Distinct magnitudes in decreasing order with signed multiplicities.

        For a generated (infinite) sequence, `count` bounds how many levels are
        materialized; explicit entries and generator values are merged, grouping
        magnitudes that coincide exactly.
        """
        if count is None and self.generator is not None:
            raise ValueError("infinite sequence: pass the number of levels to materialize")

        n = len(self.entries)
        if self.generator is not None:
            # enough generator values that, merged with the head, `count` levels exist
            n += count + len({abs(w) for _, w in self.entries}) + 2
        groups: dict[float, list[int]] = {}
        for _, w in self.truncated_entries(n):
            groups.setdefault(abs(w), [0, 0])[0 if w > 0 else 1] += 1

        ordered = sorted(groups.items(), key=lambda kv: -kv[0])
        return [Level(mag, pos, neg) for mag, (pos, neg) in ordered][:count]

    @property
    def max_magnitude(self) -> float:
        top = max(abs(w) for _, w in self.entries)
        return top  # generator values are strictly below the last explicit entry

    def maximal_indices(self) -> tuple[int, ...]:
        """Indices of entries equivalent to the top class (|c| equal to the max)."""
        top = self.max_magnitude
        return tuple(i for i, w in self.entries if abs(w) == top)

    # -- sums -----------------------------------------------------------------

    def power_sum(self, n: int) -> float:
        """sum_i c_i^n over the whole sequence (head exact, generator closed form)."""
        total = sum(w ** n for _, w in self.entries)
        if self.generator is not None:
            total += self.generator.power_sum(n)
        return total

    def residual_power_sum(self, i: int, n: int) -> float:
        """sum_{j != i} c_j^n.  For explicit i the head is summed directly so no
        cancellation error enters; generator indices subtract their closed form."""
        if 1 <= i <= len(self.entries):
            total = sum(w ** n for j, w in self.entries if j != i)
            if self.generator is not None:
                total += self.generator.power_sum(n)
            return total
        if self.generator is None:
            raise KeyError(f"no weight with index {i}")
        return self.power_sum(n) - self.generator.weight(i) ** n

    def abs_sum(self) -> float:
        total = sum(abs(w) for _, w in self.entries)
        if self.generator is not None:
            total += self.generator.abs_tail_sum(self.generator.start_index)
        return total

    def truncation_index(self, eps: float) -> int:
        """Smallest N with sum_{i > N} |c_i| < eps; closed form on the generator."""
        if eps <= 0.0:
            raise ValueError("eps must be positive")
        gen = self.generator
        tail = gen.abs_tail_sum(gen.start_index) if gen is not None else 0.0
        if tail >= eps:
            # need sum_{i > N} = |first| r^(N+1-start) / (1-r) < eps
            r = abs(gen.ratio)
            bound = eps * (1.0 - r) / abs(gen.first_value)
            n = gen.start_index - 1 + max(0, math.ceil(math.log(bound) / math.log(r)))
            while gen.abs_tail_sum(n + 1) >= eps:
                n += 1
            while n > gen.start_index - 1 and gen.abs_tail_sum(n) < eps:
                n -= 1
            return n
        # drop trailing explicit entries while the remainder stays below eps
        n = self.entries[-1][0]
        for j, w in reversed(self.entries):
            if tail + abs(w) >= eps:
                break
            tail += abs(w)
            n = j - 1
        return n

    def truncated_entries(self, n: int) -> tuple[tuple[int, float], ...]:
        """Entries with index <= n, generator included; each weight is weight(i)."""
        if self.generator is None:
            n = min(n, len(self.entries))
        return tuple((i, self.weight(i)) for i in range(1, n + 1))

    def __repr__(self):
        head = ", ".join(f"{w:g}" for _, w in self.entries[:6])
        more = ", ..." if self.generator is not None or len(self.entries) > 6 else ""
        return f"WeightSequence([{head}{more}], delta={self.delta})"
