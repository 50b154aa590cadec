"""Order-statistic extraction and the sample version of the tail proxy.

A sorted sample split plays the role of an empirical quantile table:
the value at fractional rank q is the order statistic with index
round(q * (n+1)), which concentrates near Q(q).  Both bucket
statistics are one four-point ratio read at two rank layouts: the
two-granularity layout takes its four order statistics from four
independent splits so the terms are independent; the single-granularity
(weak) layout reads three coarse bucket endpoints from one split, the
middle one twice.

A layout's ranks depend on (n, k, buckets) alone (``layout_ranks``);
``held_ranks`` lays them out as one grid, a row of distinct ranks per
split, and a split answers its row in one ``SortedSampleSplit.at`` call.

A bucket whose length difference comes out non-positive carries no
curvature signal; the statistic maps it to ``math.inf``, which the
tester reads as light evidence at that bucket rather than an error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = ["SortedSampleSplit", "rank_index"]


@dataclass(frozen=True)
class SortedSampleSplit:
    """An ascending array of nonnegative samples."""

    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1 or values.size < 1:
            raise ValueError("values must be a one-dimensional array with n >= 1")
        object.__setattr__(self, "values", _checked_sorted(values))

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
        degenerate whichever zero comes first.
        """
        return cls(values=np.sort(np.asarray(samples, dtype=float)))


def _checked_sorted(values) -> np.ndarray:
    """values as a float array, if each row (along its last axis, none
    empty) is nonnegative, finite and ascending; else a ValueError naming
    the first failure of the first row that fails, as row by row would."""
    values = np.asarray(values, dtype=float)
    # One pass per row accepts exactly what the checks below accept: NaN
    # fails every comparison, so ascending from a nonnegative start to a
    # finite end means all finite.  The checks name the first failure.
    ok = ((values[..., 1:] >= values[..., :-1]).all(axis=-1) & (values[..., 0] >= 0.0)
          & np.isfinite(values[..., -1]))
    if not ok.all():
        row = values.reshape(-1, values.shape[-1])[np.argmin(ok.ravel())]
        if not np.all(np.isfinite(row)):
            raise ValueError("values must all be finite")
        if row[0] < 0.0:
            raise ValueError("values must be nonnegative")
        raise ValueError("values must be sorted ascending")
    return values


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

    length / (k * (change in length)), and ``math.inf`` (degenerate)
    wherever the length or its change is non-positive.
    """
    length, diff = length_and_change(upper, lower, upper_d, lower_d)
    return np.divide(length, k * diff, out=np.full_like(length, math.inf),
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
    fraction ``fractions(i, k)[j]``; ``buckets(k)`` are the bucket
    indices a test scans, every split needs ``min_n(k)`` samples, and
    ``null_se(ranks, k, n, reference)`` is the statistic's standard
    error under the exponential null.
    """

    splits: tuple[int, int, int, int]
    fractions: Callable
    buckets: Callable[[int], range]
    min_n: Callable[[int], int]
    null_se: Callable

    @property
    def count(self) -> int:
        """How many splits the layout reads."""
        return len(set(self.splits))


# Two granularities on four independent splits, each endpoint from its
# own split.  At coarse bucket i the numerator is the fine-bucket length
# at mass i/k (width 1/k^2), the denominator k times its difference
# against the matching fine bucket one coarse step up.
FOUR_SPLIT = RankLayout(
    (0, 1, 2, 3),
    lambda i, k: ((i * k + 1) / (k * k), i / k, ((i + 1) * k + 1) / (k * k), (i + 1) / k),
    lambda k: range(2, k - 1), lambda k: k * k, _null_se_two_scale)

# Coarse buckets only, all from one split: with endpoints I[j] at masses
# j/k and lengths L[j] = I[j+1] - I[j], bucket i is L[i] / (k * (L[i+1] -
# L[i])), near 1 - i/k on exponential quantiles.  The shared endpoint
# (i+1)/k is both the top of bucket i and the bottom of bucket i+1.
# Coarser than the four-split form (error O(1/k) instead of O(1/k^2) in
# the length scale), but it needs only n >= k.  The statistic is defined
# at buckets 1..k-3; a test scans [ceil(0.1*k), floor(0.8*k)] of them,
# clipped to k-3 (never empty for k >= 4).  The fractions 0.1 and 0.8 are
# fixed: they skip the noisy first buckets and the non-Lipschitz tail end.
ONE_SPLIT = RankLayout(
    (0, 0, 0, 0),
    lambda i, k: ((i + 1) / k, i / k, (i + 2) / k, (i + 1) / k),
    lambda k: range(math.ceil(0.1 * k), min(math.floor(0.8 * k), k - 3) + 1),
    lambda k: k, _null_se_single_scale)


def layout_ranks(layout: RankLayout, n: int, buckets, k: int) -> np.ndarray:
    """The 1-based ranks the layout reads for buckets of k from splits of n.

    Shape (4, len(buckets)): endpoint j of bucket ``buckets[b]`` is the
    order statistic at rank ``[j, b]`` of split ``layout.splits[j]``.
    The buckets must lie in ``layout.buckets(k)``.  Needs only (n, k,
    buckets), so it can be computed before any sample exists.
    """
    if n < layout.min_n(k):
        raise ValueError(f"need at least {layout.min_n(k)} samples per split, got {n}")
    return rank_index(n, np.array(layout.fractions(np.asarray(buckets), k)))


def held_ranks(layout: RankLayout, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct ranks of ``layout_ranks``'s ``idx`` each split is read
    at, ascending, as the rows of one (splits, m) grid; and where each
    endpoint of ``idx`` lies in the grid laid out flat.

    Every layout reads as many distinct ranks from each of its splits.
    """
    splits = np.asarray(layout.splits)
    # Not np.unique: its first call imports numpy.ma, about 17 ms.
    ranks = np.array([sorted(set(idx[splits == s].flat)) for s in range(layout.count)])
    at = [s * ranks.shape[1] + np.searchsorted(ranks[s], row) for s, row in zip(splits, idx)]
    return ranks, np.array(at)
