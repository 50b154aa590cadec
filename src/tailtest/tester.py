"""End-to-end heavy/light decision procedures and budget calculators.

A distribution is declared HEAVY when the bucket statistic falls below
the decision boundary at any scanned bucket, LIGHT otherwise.

The boundary at bucket i is built from two pieces:

* a *reference curve*: the value the unit exponential - the boundary
  case between the two classes - would produce for the same estimator
  at the same realized ranks.  It converges to the asymptotic threshold
  1 - i/k as k grows but, unlike 1 - i/k, is exact at finite k, where
  both estimators sit a systematic O(1/k) below their limits;

* a safety margin: half the separation gap
  alpha*(1 - i/k)^2 / (beta^3 * b1) from the smoothness bounds, or the
  statistic's standard error under the exponential null scaled by
  ``noise_sigmas``, whichever is larger.  The standard error has a
  closed form in the rank fractions alone, so boundaries are
  deterministic given (n, k) and invariant to scaling of the data.

Both variants make one array pass over their buckets: the full test
reads the four-split rank layout at buckets 2..k-2, the weak test the
one-split layout at buckets [ceil(0.1*k), floor(0.8*k)], clipped to
[1, k-3].  The fractions 0.1 and 0.8 are fixed: they skip the noisy
first buckets and the non-Lipschitz tail end.

``noise_sigmas`` defaults to 4.0, an empirically fixed working
constant; the asymptotic theory leaves all such constants free.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .distributions import TailParams, WellBehavedBounds
from .empirical import (
    FOUR_SPLIT,
    ONE_SPLIT,
    RankLayout,
    SortedSampleSplit,
    bucket_statistics,
    length_and_change,
)
from .proxy import separation_gap

__all__ = [
    "Variant",
    "Verdict",
    "TestConfig",
    "BucketRecord",
    "TestOutcome",
    "required_buckets",
    "required_samples",
    "run_full_test",
    "run_weak_test",
]


class Variant(Enum):
    FULL = "full"
    WEAK = "weak"


class Verdict(Enum):
    HEAVY = "heavy"
    LIGHT = "light"


@dataclass(frozen=True)
class TestConfig:
    """Everything the decision procedure needs besides the samples.

    ``noise_sigmas`` scales the per-bucket noise floor.
    """

    __test__ = False  # keep pytest from collecting this as a test class

    tail: TailParams
    bounds: WellBehavedBounds
    k: int
    variant: Variant = Variant.FULL
    noise_sigmas: float = 4.0

    def __post_init__(self):
        if self.k < 4:
            raise ValueError("k must be >= 4")
        if self.k + 1e-9 < 4.0 / self.tail.rho:
            raise ValueError(
                f"k={self.k} too coarse for rho={self.tail.rho}: need k >= 4/rho"
            )
        if self.bounds.zeta > 1.0 / (2 * self.k) + 1e-12:
            raise ValueError(
                f"bounds hold only up to mass {1 - self.bounds.zeta}; "
                f"k={self.k} requires zeta <= 1/(2k)"
            )
        if not 0.0 <= self.noise_sigmas < math.inf:
            raise ValueError("noise_sigmas must be finite and >= 0")


@dataclass(frozen=True)
class BucketRecord:
    i: int
    s_hat: float
    boundary: float
    margin: float
    degenerate: bool


@dataclass(frozen=True)
class TestOutcome:
    __test__ = False  # keep pytest from collecting this as a test class

    verdict: Verdict
    records: tuple[BucketRecord, ...]
    n: int
    seed: int | None
    config: TestConfig = field(repr=False)


# ---------------------------------------------------------------------------
# budget calculators
# ---------------------------------------------------------------------------

def required_buckets(tail: TailParams, bounds: WellBehavedBounds,
                     c_k: float = 1.0) -> int:
    """Coarse bucket count: max of the smoothness and mass-resolution terms.

    ceil(max(c_k * b2 * beta^4 * (2*b1 + b2) / alpha, 4/rho)), at
    least 4.  A budget that overflows a float is a ValueError.
    """
    if not tail.alpha > 0.0:
        raise ValueError("alpha must be > 0 for the bucket calculator")
    if not c_k > 0.0:
        raise ValueError("c_k must be > 0")
    try:
        smooth = c_k * bounds.b2 * bounds.beta ** 4 * (2.0 * bounds.b1 + bounds.b2) / tail.alpha
        k = math.ceil(max(smooth, 4.0 / tail.rho))
    except OverflowError:
        raise ValueError("bucket budget is not finite: beta, b1, b2 or c_k is too large") from None
    return max(k, 4)


def required_samples(k: int, tail: TailParams, bounds: WellBehavedBounds,
                     c_n: float = 1.0) -> int:
    """Per-split sample count c_n * k^3 * ln(k) * b1^(3/2) * beta^2 / alpha.

    Rounded up with one extra sample so the bound is strictly exceeded,
    then raised to at least ``FOUR_SPLIT.min_n(k)`` = k^2, a sample per
    fine bucket.  A budget that overflows a float is a ValueError.
    """
    if k < 4:
        raise ValueError("k must be >= 4")
    if not tail.alpha > 0.0:
        raise ValueError("alpha must be > 0 for the sample calculator")
    if not c_n > 0.0:
        raise ValueError("c_n must be > 0")
    try:
        raw = c_n * k ** 3 * math.log(k) * bounds.b1 ** 1.5 * bounds.beta ** 2 / tail.alpha
        return max(math.ceil(raw) + 1, FOUR_SPLIT.min_n(k))
    except OverflowError:
        raise ValueError("sample budget is not finite: k, beta, b1 or c_n is too large") from None


# ---------------------------------------------------------------------------
# the decision core
# ---------------------------------------------------------------------------

def _decide(splits, config: TestConfig, layout: RankLayout, buckets,
            seed: int | None) -> TestOutcome:
    """Statistic, reference, noise floor and boundary for every bucket at once.

    Degenerate buckets count as above the boundary (extreme light
    evidence) and can never produce a HEAVY verdict on their own.
    """
    k = config.k
    s_hat, ranks = bucket_statistics(layout, splits, buckets, k)
    n = splits[0].n
    # math.log1p, not np.log1p: numpy's SIMD loop differs from it in the
    # last bit on some inputs, which would change the pinned report bytes.
    # The reference is the raw ratio, without the DEGENERATE mask: where
    # rounding makes the exponential length shrink, it is negative.
    length, diff = length_and_change(*-np.vectorize(math.log1p, otypes=[float])(-ranks))
    reference = length / (k * diff)
    se = layout.null_se(ranks, k, n, reference)
    gap = separation_gap(np.asarray(buckets) / k, config.tail, config.bounds)
    boundary = reference - np.maximum(gap / 2.0, config.noise_sigmas * se)
    degenerate = np.isinf(s_hat)
    margin = np.where(degenerate, math.inf, s_hat - boundary)

    records = tuple(BucketRecord(*row) for row in zip(
        buckets, s_hat.tolist(), boundary.tolist(), margin.tolist(), degenerate.tolist()))
    verdict = Verdict.HEAVY if np.any(~degenerate & (s_hat < boundary)) else Verdict.LIGHT
    return TestOutcome(verdict=verdict, records=records, n=n, seed=seed, config=config)


# ---------------------------------------------------------------------------
# decision procedures
# ---------------------------------------------------------------------------

def run_full_test(splits, config: TestConfig, seed: int | None = None) -> TestOutcome:
    """Four-split test over coarse buckets 2..k-2.

    A split is anything with ``n`` and ``at(ranks)``: a
    ``SortedSampleSplit`` or the ``OrderStatistics`` the sampled test
    gathers.
    """
    if config.variant is not Variant.FULL:
        raise ValueError("config.variant must be FULL for run_full_test")
    return _decide(list(splits), config, *scan_layout(config), seed)


def weak_scan_range(k: int) -> range:
    """Bucket indices scanned by the weak test: [ceil(0.1*k), floor(0.8*k)],
    clipped to the statistic's valid range [1, k-3]; never empty for k >= 4."""
    valid = ONE_SPLIT.buckets(k)
    return range(max(math.ceil(0.1 * k), valid.start),
                 min(math.floor(0.8 * k), valid.stop - 1) + 1)


def scan_layout(config: TestConfig) -> tuple[RankLayout, range]:
    """The rank layout and the scanned buckets of the configured variant."""
    if config.variant is Variant.WEAK:
        return ONE_SPLIT, weak_scan_range(config.k)
    return FOUR_SPLIT, FOUR_SPLIT.buckets(config.k)


def run_weak_test(split: SortedSampleSplit, config: TestConfig,
                  seed: int | None = None) -> TestOutcome:
    """Single-split test scanning the middle bucket range ``weak_scan_range(k)``."""
    if config.variant is not Variant.WEAK:
        raise ValueError("config.variant must be WEAK for run_weak_test")
    return _decide([split], config, *scan_layout(config), seed)
