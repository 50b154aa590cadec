"""Order-statistic extraction and the sample version of the tail proxy.

A sorted sample split plays the role of an empirical quantile table:
the value at fractional rank q is the order statistic with index
round(q * (n+1)), which concentrates near Q(q).  Both bucket
statistics are one four-point ratio read at two rank layouts: the
two-granularity layout takes its four order statistics from four
independent splits so the terms are independent; the single-granularity
(weak) layout reads three coarse bucket endpoints from one split, the
middle one twice.

The statistics read a split through one call, ``split.at(ranks)``: its
size ``n`` and its values at a batch of 1-based ranks, every rank the
layout reads from it at once.  ``SortedSampleSplit`` answers by
indexing the whole sorted sample; ``OrderStatistics`` holds only the
values at the ranks a layout reads, which is all the sampled test
draws.

A bucket whose length difference comes out non-positive carries no
curvature signal; the statistic maps it to ``math.inf``, which the
tester reads as light evidence at that bucket rather than an error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = [
    "SortedSampleSplit",
    "DEGENERATE",
    "is_degenerate",
    "rank_index",
    "two_scale_statistic",
    "single_scale_statistic",
]

DEGENERATE = math.inf


def is_degenerate(s: float) -> bool:
    """True for the marker produced by a non-positive bucket difference."""
    return not math.isfinite(s)


@dataclass(frozen=True)
class SortedSampleSplit:
    """An ascending array of nonnegative samples."""

    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "values", _checked_sorted(self.values))

    @property
    def n(self) -> int:
        return int(self.values.size)

    def at(self, ranks) -> np.ndarray:
        """The values at 1-based ranks in [1, n], in the shape of ranks."""
        ranks = np.asarray(ranks)
        if np.any((ranks < 1) | (ranks > self.n)):
            raise ValueError(f"ranks must lie in [1, {self.n}]")
        return self.values[ranks - 1]

    @classmethod
    def from_samples(cls, samples: np.ndarray) -> "SortedSampleSplit":
        """Sort a copy of raw samples; the caller's array is left unchanged.

        numpy's default sort kind (a SIMD quicksort where the CPU has
        one) is not stable, and need not be: equal floats are
        interchangeable, so every sort kind gives the same values.  The
        one exception is a +0.0/-0.0 pair, whose order can differ; such a
        pair only ever meets in a bucket length of zero, which is
        DEGENERATE whichever zero comes first.
        """
        arr = np.asarray(samples, dtype=float)
        return cls(values=np.sort(arr))


def _checked_sorted(values) -> np.ndarray:
    """values as a float array, if one-dimensional, nonempty, nonnegative,
    finite and ascending; else a ValueError naming the first failure."""
    values = np.asarray(values, dtype=float)
    if values.ndim != 1 or values.size < 1:
        raise ValueError("values must be a one-dimensional array with n >= 1")
    # One pass accepts exactly what the checks below accept: NaN fails
    # every comparison, so ascending from a nonnegative start to a
    # finite end means all finite.  The checks name the first failure.
    if not (np.all(values[1:] >= values[:-1]) and values[0] >= 0.0
            and math.isfinite(values[-1])):
        if not np.all(np.isfinite(values)):
            raise ValueError("values must all be finite")
        if values[0] < 0.0:
            raise ValueError("values must be nonnegative")
        raise ValueError("values must be sorted ascending")
    return values


@dataclass(frozen=True)
class OrderStatistics:
    """The order statistics of a sorted sample of n at a few ranks only.

    ``values[j]`` is the value at 1-based rank ``ranks[j]``; the ranks
    ascend without repeats, so the values must ascend too.  ``at``
    answers only for the ranks held.
    """

    n: int
    ranks: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        ranks = np.asarray(self.ranks, dtype=np.int64)
        values = _checked_sorted(self.values)
        if not (ranks.shape == values.shape and np.all(ranks[1:] > ranks[:-1])
                and 1 <= ranks[0] and ranks[-1] <= self.n):
            raise ValueError(f"ranks must ascend within [1, {self.n}], one per value")
        object.__setattr__(self, "ranks", ranks)
        object.__setattr__(self, "values", values)

    def at(self, ranks) -> np.ndarray:
        """The values at 1-based ranks, in the shape of ranks; each must be held."""
        ranks = np.asarray(ranks)
        pos = np.minimum(np.searchsorted(self.ranks, ranks), self.ranks.size - 1)
        if np.any(self.ranks[pos] != ranks):
            raise ValueError("rank not held")
        return self.values[pos]


def rank_index(n: int, q):
    """1-based order-statistic index for fractional rank q in (0, 1).

    round(q * (n+1)) with half rounded away from zero, clamped to
    [1, n]; the (n+1) centering matches where order statistics
    concentrate.  Accepts a scalar or an array of ranks.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n >= 2 ** 63 - 1:  # every rank, and n + 1, must fit in an int64
        raise ValueError("n must be < 2**63 - 1")
    q_arr = np.asarray(q, dtype=float)
    if not np.all((0.0 < q_arr) & (q_arr < 1.0)):
        raise ValueError("fractional rank must lie in (0, 1)")
    idx = np.clip(np.floor(q_arr * (n + 1) + 0.5).astype(np.int64), 1, n)
    return int(idx) if idx.ndim == 0 else idx


def length_and_change(upper, lower, upper_d, lower_d):
    """Bucket length ``upper - lower`` and its change one coarse step up,
    ``(upper_d - lower_d) - length``, elementwise."""
    length = np.asarray(upper, dtype=float) - lower
    return length, (np.asarray(upper_d, dtype=float) - lower_d) - length


def four_point_ratio(upper, lower, upper_d, lower_d, k: int):
    """The bucket statistic from four quantile-like values, elementwise.

    length / (k * (change in length)), and DEGENERATE wherever the
    length or its change is non-positive.
    """
    length, diff = length_and_change(upper, lower, upper_d, lower_d)
    return np.divide(length, k * diff, out=np.full_like(length, DEGENERATE),
                     where=(diff > 0.0) & (length > 0.0))


def _null_se_two_scale(ranks, k: int, n: int, reference):
    """Std. error of the four-split statistic under the exponential null.

    First-order delta method on four independent order statistics whose
    variances are q(1-q)/(n f^2); the local densities cancel against
    the statistic's own length scales, leaving a function of the rank
    fractions q and the reference value alone:
    ref * (1 + k*ref) * sqrt(k^4/n * sum q(1-q)).
    """
    kt = k * reference
    w_sum = (ranks * (1.0 - ranks)).sum(axis=0) * float(k) ** 4 / n
    return np.abs(reference) * (1.0 + kt) * np.sqrt(w_sum)


def _null_se_single_scale(ranks, k: int, n: int, reference):
    """Std. error of the single-split statistic under the exponential null.

    Spacings of order statistics from one sample are positively
    correlated; accounting for the covariances, the relative variance
    collapses to (1 - 1/k + 2*k*ref + 2*(k*ref)^2) * k/n.
    """
    kt = k * reference
    rel2 = (1.0 - 1.0 / k + 2.0 * kt + 2.0 * kt * kt) * k / n
    return np.abs(reference) * np.sqrt(rel2)


@dataclass(frozen=True)
class RankLayout:
    """Where a bucket statistic reads the four arguments of four_point_ratio.

    Bucket i reads endpoint j from split ``splits[j]`` at nominal rank
    fraction ``fractions(i, k)[j]``; ``buckets(k)`` are the valid bucket
    indices, every split needs ``min_n(k)`` samples, and
    ``null_se(ranks, k, n, reference)`` is the statistic's standard
    error under the exponential null.
    """

    splits: tuple[int, int, int, int]
    fractions: Callable
    buckets: Callable[[int], range]
    min_n: Callable[[int], int]
    null_se: Callable


# Two granularities on four independent splits: fine buckets of width
# 1/k^2 at masses i/k and (i+1)/k.
FOUR_SPLIT = RankLayout(
    (0, 1, 2, 3),
    lambda i, k: ((i * k + 1) / (k * k), i / k, ((i + 1) * k + 1) / (k * k), (i + 1) / k),
    lambda k: range(2, k - 1), lambda k: k * k, _null_se_two_scale)

# Coarse buckets only, all from one split: the shared endpoint (i+1)/k
# is both the top of bucket i and the bottom of bucket i+1.
ONE_SPLIT = RankLayout(
    (0, 0, 0, 0),
    lambda i, k: ((i + 1) / k, i / k, (i + 2) / k, (i + 1) / k),
    lambda k: range(1, k - 2), lambda k: k, _null_se_single_scale)


def layout_ranks(layout: RankLayout, n: int, buckets, k: int) -> np.ndarray:
    """The 1-based ranks the layout reads for buckets of k from splits of n.

    Shape (4, len(buckets)): endpoint j of bucket ``buckets[b]`` is the
    order statistic at rank ``[j, b]`` of split ``layout.splits[j]``.
    Needs only (n, k, buckets), so it can be computed before any sample
    exists.
    """
    if k < 4:
        raise ValueError("k must be >= 4")
    valid = layout.buckets(k)
    for i in buckets:
        if i not in valid:
            raise ValueError(f"bucket index {i} outside [{valid.start}, {valid.stop - 1}]")
    if n < layout.min_n(k):
        raise ValueError(f"need at least {layout.min_n(k)} samples per split, got {n}")
    return rank_index(n, np.array(layout.fractions(np.asarray(buckets), k)))


def ranks_by_split(layout: RankLayout, n: int, buckets, k: int) -> list[np.ndarray]:
    """Per split, the distinct ranks the layout reads from it, ascending."""
    idx = layout_ranks(layout, n, buckets, k)
    # Not np.unique: its first call imports numpy.ma, about 17 ms.
    return [np.array(sorted(set(idx[np.asarray(layout.splits) == s].flat)))
            for s in range(len(set(layout.splits)))]


def bucket_statistics(layout: RankLayout, splits, buckets, k: int):
    """Statistic at each bucket, plus the realized rank fractions.

    Each split is read by one ``at`` call with every rank the layout
    reads from it.  The fractions, shape (4, len(buckets)), are
    idx/(n+1) for each endpoint: what the index rounding actually landed
    on, where the tester evaluates its reference curve.
    """
    if len(splits) != len(set(layout.splits)):
        raise ValueError(f"exactly {len(set(layout.splits))} split(s) are required")
    n = splits[0].n
    if any(s.n != n for s in splits):
        raise ValueError("all four splits must hold the same number of samples")
    idx = layout_ranks(layout, n, buckets, k)
    ends = np.empty(idx.shape)
    for s, split in enumerate(splits):
        mine = np.asarray(layout.splits) == s
        ends[mine] = split.at(idx[mine])
    return four_point_ratio(*ends, k), idx / (n + 1)


def two_scale_statistic(splits, i: int, k: int) -> float:
    """Four-split bucket statistic at coarse bucket i of k.

    The numerator is the fine-bucket length at mass i/k (width 1/k^2),
    the denominator k times the difference against the matching fine
    bucket one coarse step up; each of the four order statistics comes
    from its own split.  Returns DEGENERATE when either length or the
    difference is non-positive.
    """
    return float(bucket_statistics(FOUR_SPLIT, splits, [i], k)[0][0])


def single_scale_statistic(split: SortedSampleSplit, i: int, k: int) -> float:
    """Single-split bucket statistic from coarse buckets only.

    With bucket endpoints I[j] at masses j/k, lengths L[j] = I[j+1]-I[j]
    and their forward difference, the statistic is
    L[i] / (k * (L[i+1] - L[i])); on perfect exponential quantiles this
    sits near 1 - i/k.  Coarser than the four-split form (error O(1/k)
    instead of O(1/k^2) in the length scale) but needs only n >= k.
    """
    return float(bucket_statistics(ONE_SPLIT, [split], [i], k)[0][0])
