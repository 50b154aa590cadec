
import json
import math

import numpy as np
import pytest

import tailtest as tt
from tailtest import tester
from tailtest import (
    Exponential,
    Lomax,
    SortedSampleSplit,
    StretchedExponential,
    TailParams,
    TestConfig,
    Variant,
    Verdict,
    WellBehavedBounds,
)

UNIT_BOUNDS_K16 = WellBehavedBounds(1.0, 1.0, 1.0, 1.0 / 32)
TAIL = TailParams(0.25, 0.5)


def perfect_splits(model, n):
    q = np.arange(1, n + 1) / (n + 1)
    return [SortedSampleSplit(np.asarray(model.quantile(q), dtype=float))] * 4


# ---------------------------------------------------------------------------
# budget calculators
# ---------------------------------------------------------------------------

def test_required_buckets_substitution():
    assert tt.required_buckets(TailParams(0.25, 0.5),
                               WellBehavedBounds(1, 1, 1, 0.04)) == 12


def test_required_buckets_rho_floor_dominates():
    assert tt.required_buckets(TailParams(10.0, 0.1),
                               WellBehavedBounds(1, 1, 1, 0.01)) == 40


def test_required_buckets_halves_with_alpha():
    smooth = lambda a: tt.required_buckets(TailParams(a, 0.9),
                                           WellBehavedBounds(1, 1, 1, 0.01))
    assert smooth(0.25) == 12
    assert smooth(0.5) == 6


def test_required_samples_regression():
    n = tt.required_samples(12, TailParams(0.25, 0.5), WellBehavedBounds(1, 1, 1, 0.04))
    assert n == 17177


def test_required_samples_floor_clamp():
    n = tt.required_samples(4, TailParams(1e9, 0.9), WellBehavedBounds(1, 1, 1, 0.1))
    assert n == 16


def test_required_samples_monotone():
    bounds = WellBehavedBounds(1, 1, 1, 0.01)
    ns_k = [tt.required_samples(k, TAIL, bounds) for k in (8, 12, 16, 24)]
    assert all(b > a for a, b in zip(ns_k, ns_k[1:]))
    ns_a = [tt.required_samples(16, TailParams(a, 0.5), bounds)
            for a in (1.0, 0.5, 0.25, 0.1)]
    assert all(b > a for a, b in zip(ns_a, ns_a[1:]))


def test_calculators_reject_zero_alpha():
    with pytest.raises(ValueError):
        tt.required_buckets(TailParams(0.0, 0.5), WellBehavedBounds(1, 1, 1, 0.1))
    with pytest.raises(ValueError):
        tt.required_samples(8, TailParams(0.0, 0.5), WellBehavedBounds(1, 1, 1, 0.1))


@pytest.mark.parametrize("call,refusal", [
    (lambda b: tt.required_buckets(TAIL, b, c_k=0.0), "c_k must be > 0"),
    (lambda b: tt.required_samples(3, TAIL, b), "k must be >= 4"),
    (lambda b: tt.required_samples(8, TAIL, b, c_n=0.0), "c_n must be > 0"),
], ids=["c_k", "k", "c_n"])
def test_calculators_refuse_constants_out_of_range(call, refusal):
    with pytest.raises(ValueError) as exc:
        call(WellBehavedBounds(1, 1, 1, 0.1))
    assert str(exc.value) == refusal


def test_calculators_reject_infinite_bounds():
    # estimate_bounds gives the stretched exponential infinite bounds: its
    # density is unbounded at the origin.
    bounds = tt.estimate_bounds(StretchedExponential(1.0, 0.5), 1 / 24)
    assert bounds.beta == bounds.b1 == math.inf
    with pytest.raises(ValueError, match="bucket budget is not finite"):
        tt.required_buckets(TAIL, bounds)
    with pytest.raises(ValueError, match="sample budget is not finite"):
        tt.required_samples(12, TAIL, bounds)


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ValueError):
        TestConfig(tail=TAIL, bounds=UNIT_BOUNDS_K16, k=3)
    with pytest.raises(ValueError, match=r"k must be < 2\*\*63 - 1"):  # not an OverflowError
        TestConfig(tail=TAIL, bounds=UNIT_BOUNDS_K16, k=10 ** 400)
    with pytest.raises(ValueError):
        TestConfig(tail=TailParams(0.25, 0.1), bounds=UNIT_BOUNDS_K16, k=16)  # k < 4/rho
    with pytest.raises(ValueError):
        TestConfig(tail=TAIL, bounds=WellBehavedBounds(1, 1, 1, 0.2), k=16)  # zeta too big
    # The gap is fixed by the config alone, so it is refused when the
    # config is built, before any sample is read.
    for variant in Variant:
        with pytest.raises(ValueError) as exc:
            TestConfig(tail=TAIL, bounds=WellBehavedBounds(1e-300, 1e-300, 1, 1 / 32), k=16,
                       variant=variant)
        assert str(exc.value) == ("separation gap alpha*(1-z)^2 / (beta^3 * b1) is not finite "
                                  "at alpha=0.25, beta=1e-300, b1=1e-300")


def test_run_test_refuses_a_wrong_split_count():
    # The variant's layout fixes the split count: four splits for the
    # weak test, or one for the full test, are refused before their size.
    cfg_full = TestConfig(tail=TAIL, bounds=UNIT_BOUNDS_K16, k=16)
    cfg_weak = TestConfig(tail=TAIL, bounds=UNIT_BOUNDS_K16, k=16, variant=Variant.WEAK)
    splits = perfect_splits(Exponential(1.0), 16 * 16)
    for given, cfg, count in ((splits, cfg_weak, 1), ([], cfg_weak, 1), (splits[:1], cfg_full, 4)):
        with pytest.raises(ValueError) as exc:
            tt.run_test(given, cfg)
        assert str(exc.value) == f"exactly {count} split(s) are required"


# ---------------------------------------------------------------------------
# verdicts on deterministic inputs
# ---------------------------------------------------------------------------

def test_full_test_perfect_exponential_is_light():
    cfg = TestConfig(tail=TAIL, bounds=UNIT_BOUNDS_K16, k=16)
    outcome = tt.run_test(perfect_splits(Exponential(1.0), 4_000_000), cfg)
    assert outcome.verdict is Verdict.LIGHT
    for r in outcome.records:
        assert r.degenerate or r.s_hat >= r.boundary


def test_full_test_perfect_lomax_is_heavy():
    cfg = TestConfig(tail=TAIL, bounds=UNIT_BOUNDS_K16, k=16)
    outcome = tt.run_test(perfect_splits(Lomax(1.0, 1.0), 4_000_000), cfg)
    assert outcome.verdict is Verdict.HEAVY


def test_weak_test_perfect_exponential_is_light():
    cfg = TestConfig(tail=TAIL, bounds=WellBehavedBounds(1, 1, 1, 1 / 64), k=32,
                     variant=Variant.WEAK)
    split = perfect_splits(Exponential(1.0), 1_000_000)[0]
    assert tt.run_test([split], cfg).verdict is Verdict.LIGHT


def test_weak_test_perfect_lomax_is_heavy():
    cfg = TestConfig(tail=TAIL, bounds=WellBehavedBounds(1, 1, 1, 1 / 64), k=32,
                     variant=Variant.WEAK)
    split = perfect_splits(Lomax(1.0, 1.0), 1_000_000)[0]
    assert tt.run_test([split], cfg).verdict is Verdict.HEAVY


def test_degenerate_buckets_never_flag_heavy():
    # uniformly spaced data degenerates every bucket
    splits = [SortedSampleSplit(np.arange(1.0, 1025.0))] * 4
    cfg = TestConfig(tail=TAIL, bounds=UNIT_BOUNDS_K16, k=16)
    outcome = tt.run_test(splits, cfg)
    assert all(r.degenerate for r in outcome.records)
    assert outcome.verdict is Verdict.LIGHT


@pytest.mark.parametrize("variant", list(Variant))
def test_plan_outcome_decides_one_row(variant):
    # One row of statistics, one per bucket: the outcome reports its
    # buckets, and is heavy when a live bucket lies below the boundary.
    cfg = TestConfig(tail=TAIL, bounds=UNIT_BOUNDS_K16, k=16, variant=variant)
    plan = tester._plan(cfg, 1000)
    light = plan.boundary + 0.5
    heavy = light.copy()
    heavy[1] = plan.boundary[1] - 0.25
    outcome = plan.outcome(heavy, 7)
    assert outcome.verdict is Verdict.HEAVY
    assert outcome.seed == 7 and outcome.n == 1000
    assert [r.i for r in outcome.records] == list(plan.buckets)
    assert [r.s_hat for r in outcome.records] == heavy.tolist()
    assert outcome.records[1].margin == pytest.approx(-0.25)
    assert plan.outcome(light, None).verdict is Verdict.LIGHT
    # A degenerate bucket is light evidence, even where its value lies below.
    for marker in (math.inf, -math.inf):
        row = light.copy()
        row[1] = marker
        outcome = plan.outcome(row, 7)
        assert outcome.verdict is Verdict.LIGHT
        assert outcome.records[1].degenerate and outcome.records[1].margin == math.inf


# (variant, k, n, bucket, seed): the rounded ranks leave the bucket's two
# exponential lengths equal, so its reference is not finite; the seed's
# sample has a live statistic there.  Each plan was refused as "boundary is
# not finite: noise_sigmas is too large".
_DEGENERATE_REFERENCE = [(Variant.FULL, 9, 106, 7, 11), (Variant.FULL, 40, 28_878, 21, 1),
                         (Variant.WEAK, 15, 17, 12, 0), (Variant.WEAK, 40, 760, 19, 0)]


@pytest.mark.parametrize("variant,k,n,i,seed", _DEGENERATE_REFERENCE,
                         ids=[f"{v.value}-{k}-{n}" for v, k, n, _, _ in _DEGENERATE_REFERENCE])
def test_a_degenerate_reference_cannot_vote_heavy(variant, k, n, i, seed):
    cfg = TestConfig(tail=TAIL, bounds=WellBehavedBounds(1, 1, 1, 1 / (2 * k)), k=k,
                     variant=variant)
    plan = tester._plan(cfg, n)
    j = list(plan.buckets).index(i)
    assert plan.boundary[j] == -math.inf
    assert np.isfinite(np.delete(plan.boundary, j)).all()
    # The least positive statistic there is light evidence; the other
    # buckets still decide.
    row = np.full(len(plan.buckets), math.inf)
    row[j] = 5e-324
    assert plan.outcome(row, None).verdict is Verdict.LIGHT
    other = (j + 1) % len(row)
    row[other] = plan.boundary[other] - 1.0
    assert plan.outcome(row, None).verdict is Verdict.HEAVY
    # A report: the bucket's boundary and margin are null, its statistic is not.
    outcome = tt.run_sampled_test(Lomax(1.0, 1.0), n, seed, cfg)
    buckets = json.loads(tt.serialize_report(outcome))["buckets"]
    assert buckets[j]["i"] == i and buckets[j]["s_hat"] is not None
    assert buckets[j]["boundary"] is None and buckets[j]["margin"] is None
    assert all(b["boundary"] is not None for b in buckets[:j] + buckets[j + 1:])
    heavy = any(not r.degenerate and r.s_hat < r.boundary for r in outcome.records)
    assert outcome.verdict is (Verdict.HEAVY if heavy else Verdict.LIGHT)


# ---------------------------------------------------------------------------
# verdicts on sampled data (fixed-seed regressions)
# ---------------------------------------------------------------------------

def test_full_test_sampled_lomax_seed42_is_heavy():
    model = Lomax(1.0, 1.0)
    bounds = tt.estimate_bounds(model, zeta=1.0 / 32)
    cfg = TestConfig(tail=TAIL, bounds=bounds, k=16)
    outcome = tt.run_sampled_test(model, 4_000_000, 42, cfg)
    assert outcome.verdict is Verdict.HEAVY


def test_weak_test_sampled_halfgaussian_seed7_is_light():
    model = tt.HalfGaussian(1.0)
    est = tt.estimate_bounds(model, zeta=1.0 / 64)
    bounds = WellBehavedBounds(beta=0.8, b1=est.b1, b2=est.b2, zeta=est.zeta)
    cfg = TestConfig(tail=TAIL, bounds=bounds, k=32, variant=Variant.WEAK)
    outcome = tt.run_sampled_test(model, 3_000_000, 7, cfg)
    assert outcome.verdict is Verdict.LIGHT


def test_budget_driven_separation():
    # k from the bucket calculator with unit bounds; the sample budget uses
    # an empirically fixed working constant since the asymptotic constant
    # is free
    tail = TAIL
    unit = WellBehavedBounds(1.0, 1.0, 1.0, 0.04)
    k = tt.required_buckets(tail, unit)
    n = tt.required_samples(k, tail, unit, c_n=60.0)
    bounds = WellBehavedBounds(1.0, 1.0, 1.0, 1.0 / (2 * k))
    cfg = TestConfig(tail=tail, bounds=bounds, k=k, variant=Variant.WEAK)
    heavy = sum(tt.run_sampled_test(Lomax(1.0, 1.0), n, 7000 + r, cfg).verdict
                is Verdict.HEAVY for r in range(20))
    light = sum(tt.run_sampled_test(Exponential(1.0), n, 8000 + r, cfg).verdict
                is Verdict.LIGHT for r in range(20))
    assert heavy >= 18
    assert light >= 18


# ---------------------------------------------------------------------------
# boundary structure
# ---------------------------------------------------------------------------

def test_boundary_below_asymptotic_threshold():
    cfg = TestConfig(tail=TAIL, bounds=UNIT_BOUNDS_K16, k=16)
    outcome = tt.run_test(perfect_splits(Exponential(1.0), 100_000), cfg)
    for r in outcome.records:
        assert r.boundary < 1.0 - r.i / 16


def test_boundary_nonincreasing_in_alpha():
    split = perfect_splits(Exponential(1.0), 1_000_000)[0]
    boundaries = {}
    for alpha in (0.1, 0.5, 2.0):
        cfg = TestConfig(tail=TailParams(alpha, 0.5), bounds=UNIT_BOUNDS_K16,
                         k=16, variant=Variant.WEAK)
        outcome = tt.run_test([split], cfg)
        boundaries[alpha] = [r.boundary for r in outcome.records]
    for lo, hi in ((0.1, 0.5), (0.5, 2.0)):
        assert all(b <= a + 1e-15 for a, b in zip(boundaries[lo], boundaries[hi]))


def test_outcome_records_are_consistent():
    cfg = TestConfig(tail=TAIL, bounds=UNIT_BOUNDS_K16, k=16)
    outcome = tt.run_test(perfect_splits(Lomax(1.0, 1.0), 40_000), cfg)
    assert outcome.config.k == 16 and outcome.n == 40_000
    flagged = [r for r in outcome.records
               if not r.degenerate and r.s_hat < r.boundary]
    assert (outcome.verdict is Verdict.HEAVY) == bool(flagged)
    for r in outcome.records:
        if not r.degenerate:
            assert r.margin == pytest.approx(r.s_hat - r.boundary)


def test_verdict_affine_invariance_spot_check():
    model = Lomax(1.0, 1.0)
    raw = tt.sample(model, 200_000, seed=3)
    splits = [SortedSampleSplit(np.sort(raw[j::4])) for j in range(4)]
    cfg = TestConfig(tail=TAIL, bounds=UNIT_BOUNDS_K16, k=16)
    base = tt.run_test(splits, cfg)
    moved = [SortedSampleSplit(2.5 * s.values + 11.0) for s in splits]
    assert tt.run_test(moved, cfg).verdict is base.verdict


def test_weak_scan_range_respects_bounds():
    from tailtest.empirical import ONE_SPLIT

    assert ONE_SPLIT.buckets(16) == range(2, 13)  # ceil(1.6), floor(12.8)
    # floor(0.8k) = 8 > k-3 = 7: the top is clipped to the statistic's range
    assert ONE_SPLIT.buckets(10) == range(1, 8)
    # never empty, down to the smallest k
    for k in range(4, 200):
        r = ONE_SPLIT.buckets(k)
        assert 1 <= r.start <= r.stop - 1 <= k - 3
