"""End-to-end heavy/light decision procedures and budget calculators.

A sample is declared HEAVY when its bucket statistic falls below the
decision boundary at any scanned bucket, LIGHT otherwise.
``_Plan.outcome`` is the one place a verdict is formed.

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

Both variants make one array pass over the buckets their rank layout
scans (``TestConfig.layout``, ``RankLayout.buckets``): the full test
reads the four-split layout at buckets 2..k-2, the weak test the
one-split layout at buckets [ceil(0.1*k), floor(0.8*k)], clipped to
k-3.  The ranks read, the reference and the boundary are fixed by
(config, n) before any sample exists (``_plan``, the one place ranks
are computed); a sample adds only its values at those ranks, its
statistic, its degenerate buckets, the margins and the verdict.

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
    four_point_ratio,
    held_ranks,
    layout_ranks,
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
    "run_test",
]


class Variant(Enum):
    """The full four-split test or the weak one-split test."""
    FULL = "full"
    WEAK = "weak"


class Verdict(Enum):
    """A test's answer: heavy- or light-tailed."""
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
        if self.k >= 2 ** 63 - 1:  # no split holds n >= k samples (see rank_index)
            raise ValueError("k must be < 2**63 - 1")
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
        # Refused here, before any sample is read: the gap is largest at
        # the first scanned bucket, so it is finite at every bucket if it
        # is finite there.  ``_plan`` computes the gap of every bucket.
        separation_gap(self.layout.buckets(self.k)[0] / self.k, self.tail, self.bounds)

    @property
    def layout(self) -> RankLayout:
        """The variant's rank layout: four splits for FULL, one for WEAK."""
        return ONE_SPLIT if self.variant is Variant.WEAK else FOUR_SPLIT


@dataclass(frozen=True)
class BucketRecord:
    """One scanned bucket of a test: its statistic, boundary and margin."""
    i: int
    s_hat: float
    boundary: float
    margin: float
    degenerate: bool


@dataclass(frozen=True)
class TestOutcome:
    """A test's verdict with its per-bucket records, sample size and seed."""

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
    least 5 since rho < 1.  A budget that overflows a float, or that is
    2**63 - 1 or more (no ``TestConfig`` takes that k), is a ValueError.
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
    if k >= 2 ** 63 - 1:
        raise ValueError("bucket budget is not below 2**63 - 1: alpha or rho is too small, "
                         "or beta, b1, b2 or c_k is too large")
    return k


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

@dataclass(frozen=True)
class _Plan:
    """What a decision fixes before any sample exists: ranks and boundary.

    ``ranks`` and ``at`` are ``held_ranks``' grid and positions for the buckets.
    """

    config: TestConfig
    n: int
    buckets: range
    ranks: np.ndarray
    at: np.ndarray
    boundary: np.ndarray

    def statistics(self, held: np.ndarray) -> np.ndarray:
        """The statistic at every bucket, one row per row of held values
        (the values at ``held_ranks``' grid of ranks, laid out flat)."""
        return four_point_ratio(*np.moveaxis(held[..., self.at], -2, 0), self.config.k)

    def outcome(self, s_hat: np.ndarray, seed: int | None) -> TestOutcome:
        """The outcome of one sample's statistics, one per bucket.

        The verdict is HEAVY when a live bucket falls below the boundary:
        degenerate buckets count as above it (extreme light evidence) and
        can never make the verdict heavy on their own.
        """
        degenerate = np.isinf(s_hat)
        heavy = np.any(~degenerate & (s_hat < self.boundary))
        margin = np.where(degenerate, math.inf, s_hat - self.boundary)
        records = tuple(BucketRecord(*row) for row in zip(
            self.buckets, s_hat.tolist(), self.boundary.tolist(), margin.tolist(),
            degenerate.tolist()))
        return TestOutcome(verdict=Verdict.HEAVY if heavy else Verdict.LIGHT, records=records,
                           n=self.n, seed=seed, config=self.config)


def _plan(config: TestConfig, n: int) -> _Plan:
    """Ranks, reference, noise floor and boundary of every scanned bucket.

    A function of (config, n) alone, so one plan decides every sample of
    n per split under that config.
    """
    layout, k = config.layout, config.k
    buckets = layout.buckets(k)
    idx = layout_ranks(layout, n, buckets, k)
    ranks, at = held_ranks(layout, idx)
    fractions = idx / (n + 1)
    # math.log1p, not np.log1p: numpy's SIMD loop differs from it in the
    # last bit on some inputs, which would change the pinned report bytes.
    # The reference is the raw ratio, without the degenerate mask: where
    # rounding makes the exponential length shrink, it is negative.
    length, diff = length_and_change(*-np.vectorize(math.log1p, otypes=[float])(-fractions))
    reference = length / (k * diff)
    se = layout.null_se(fractions, k, n, reference)
    gap = separation_gap(np.asarray(buckets) / k, config.tail, config.bounds)
    boundary = reference - np.maximum(gap / 2.0, config.noise_sigmas * se)
    if not np.isfinite(boundary).all():  # a finite noise_sigmas whose noise term overflows
        raise ValueError("boundary is not finite: noise_sigmas is too large")
    return _Plan(config, n, buckets, ranks, at, boundary)


# ---------------------------------------------------------------------------
# decision procedures
# ---------------------------------------------------------------------------

def run_test(splits, config: TestConfig) -> TestOutcome:
    """Decide the configured variant on its splits' values at the plan's ranks.

    A split is anything with ``n`` and ``at(ranks)``, such as a
    ``SortedSampleSplit``.  The variant's layout fixes how many splits
    it reads, four for FULL and one for WEAK; that many splits of one
    size n >= ``min_n(k)`` are required, checked in that order.
    """
    splits = list(splits)
    count = config.layout.count
    if len(splits) != count:
        raise ValueError(f"exactly {count} split(s) are required")
    n = splits[0].n
    if any(s.n != n for s in splits):
        raise ValueError("all four splits must hold the same number of samples")
    plan = _plan(config, n)
    held = np.concatenate([split.at(r) for split, r in zip(splits, plan.ranks)])
    return plan.outcome(plan.statistics(held), None)
