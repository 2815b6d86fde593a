"""Exact two-way split of one-dimensional score maps.

In one dimension the two-means partition with minimal within-cluster sum
of squares is contiguous in sorted order, so one scan over the cuts of
the sorted values finds it exactly (Wang & Song, "Ckmeans.1d.dp", R
Journal 2011).  The scan runs on values shifted by their mean, so the
prefix-sum cost ``sum(v^2) - (sum(v))^2 / n`` does not cancel when the
spread is small next to the magnitude.  Each item is then assigned once
to the nearer of the two split centers, which reproduces the optimal
split, and the result is a fixed point of Lloyd's assignment rule.
"""

from __future__ import annotations

from collections.abc import Hashable, Mapping
from itertools import accumulate
from math import fsum, isfinite

from .belief import INTERNAL_TOLERANCE, _Frozen
from .errors import Degenerate

__all__ = ["Partition2", "kmeans2"]


class Partition2(_Frozen):
    """A two-way split of items, with the cluster centers that produced it."""

    __slots__ = __match_args__ = ("high", "low", "center_high", "center_low")

    def __init__(self, high: frozenset[Hashable], low: frozenset[Hashable],
                 center_high: float, center_low: float):
        self._set(high, low, center_high, center_low)


def kmeans2(values: Mapping[Hashable, float]) -> Partition2:
    """Split items into a high-valued and a low-valued cluster.

    Finds the contiguous cut of the sorted values with minimal
    within-cluster sum of squares (exact cost ties prefer the larger low
    cluster), assigns every item to the nearer of the two cut means
    (items equidistant from both go low), and returns the means of the
    two sides as centers.  Raises :class:`Degenerate` for fewer than two
    items, for a value that is NaN or infinite (naming its item), or when
    all values coincide within 1e-12.
    """
    items = list(values.items())
    if len(items) < 2:
        raise Degenerate("need at least two items to split")
    for key, v in items:
        if not isfinite(v):
            raise Degenerate(f"item {key!r} has the value {v!r}, which is not finite")
    ordered = sorted(v for _, v in items)
    if ordered[-1] - ordered[0] <= INTERNAL_TOLERANCE:
        raise Degenerate("all values are numerically identical")

    count = len(ordered)
    shift = fsum(ordered) / count
    centred = [v - shift for v in ordered]
    sums = [0.0, *accumulate(centred)]
    squares = [0.0, *accumulate(c * c for c in centred)]

    def cost(start: int, stop: int) -> float:
        total = sums[stop] - sums[start]
        return squares[stop] - squares[start] - total * total / (stop - start)

    best_cut = 1
    best_cost = cost(0, 1) + cost(1, count)
    for cut in range(2, count):
        split_cost = cost(0, cut) + cost(cut, count)
        if split_cost <= best_cost:
            best_cost = split_cost
            best_cut = cut
    low_mean = sums[best_cut] / best_cut
    high_mean = (sums[count] - sums[best_cut]) / (count - best_cut)

    high, low = [], []
    for key, v in items:
        nearer_high = abs(v - shift - high_mean) < abs(v - shift - low_mean)
        (high if nearer_high else low).append((key, v))
    return Partition2(
        high=frozenset(k for k, _ in high),
        low=frozenset(k for k, _ in low),
        center_high=fsum(v for _, v in high) / len(high),
        center_low=fsum(v for _, v in low) / len(low),
    )
