
import numpy as np
import pytest

import tailtest as tt
from tailtest import Exponential, Lomax, SortedSampleSplit
from tailtest.empirical import (
    FOUR_SPLIT,
    ONE_SPLIT,
    OrderStatistics,
    bucket_statistics,
    rank_index,
    ranks_by_split,
    single_scale_statistic,
    two_scale_statistic,
)


def perfect_split(model, n):
    """Split whose j-th value is the quantile at j/(n+1)."""
    q = np.arange(1, n + 1) / (n + 1)
    return SortedSampleSplit(np.asarray(model.quantile(q), dtype=float))


# ---------------------------------------------------------------------------
# order statistics
# ---------------------------------------------------------------------------

def test_order_statistic_examples():
    assert rank_index(4, 0.4) == 2  # round(2.0) = 2
    for q in (0.01, 0.5, 0.99):
        assert rank_index(1, q) == 1
    assert rank_index(9, 0.5) == 5
    assert rank_index(9, np.array([0.1, 0.5, 0.9])).tolist() == [1, 5, 9]


def test_rank_rounding_half_away_from_zero():
    # q*(n+1) = 2.5 must round to 3, not banker's 2
    assert rank_index(4, 0.5) == 3
    assert rank_index(9, 0.25) == 3  # 2.5 -> 3


def test_rank_clamping():
    assert rank_index(10, 0.999) == 10
    assert rank_index(10, 0.001) == 1


def test_order_statistic_domain():
    for q in (0.0, 1.0, np.array([0.5, 1.0])):
        with pytest.raises(ValueError):
            rank_index(2, q)


def test_split_validation():
    # Each bad input names its first failure in the order: shape, finite,
    # sign, sortedness.
    cases = [
        ([], "one-dimensional array with n >= 1"),
        ([2.0, 1.0], "sorted ascending"),
        ([3.0, -1.0], "sorted ascending"),
        ([-1.0, 1.0], "nonnegative"),
        ([-1.0, 3.0, 2.0], "nonnegative"),
        ([1.0, np.inf], "all be finite"),
        ([1.0, 2.0, np.inf], "all be finite"),
        ([-np.inf, 1.0, 2.0], "all be finite"),
        ([1.0, np.nan, 3.0], "all be finite"),
        ([-1.0, np.nan], "all be finite"),
    ]
    for values, message in cases:
        with pytest.raises(ValueError, match=message):
            SortedSampleSplit(np.array(values))
    assert SortedSampleSplit(np.array([-0.0, 0.0, 0.0, 1.0])).n == 4


def test_from_samples_sorts():
    split = SortedSampleSplit.from_samples(np.array([3.0, 1.0, 2.0]))
    assert np.array_equal(split.values, [1.0, 2.0, 3.0])


def test_from_samples_matches_stable_sort_bytes(tmp_path):
    # Ties (rounded draws), strided views, and the rows load_samples
    # deals from a file and sorts in place must all give the bytes of a
    # stable sort.
    stream = np.round(tt.sample(Lomax(1.0, 1.0), 40_000, seed=5), 1)
    assert np.unique(stream).size < stream.size // 10
    for x in [stream] + [stream[j::4] for j in range(4)]:
        got = SortedSampleSplit.from_samples(x).values
        assert got.tobytes() == np.sort(x, kind="stable").tobytes()
    p = tmp_path / "rounded.txt"
    p.write_text("".join(f"{v!r}\n" for v in stream.tolist()))
    for j, split in enumerate(tt.load_samples(p, tt.FileFormat.TEXT, split=True)):
        assert split.values.tobytes() == np.sort(stream[j::4], kind="stable").tobytes()


def test_from_samples_leaves_caller_array_unchanged():
    samples = tt.sample(Lomax(1.0, 1.0), 1000, seed=3)
    before = samples.tobytes()
    split = SortedSampleSplit.from_samples(samples)
    assert samples.tobytes() == before
    assert not np.shares_memory(split.values, samples)


@pytest.mark.parametrize("layout", [FOUR_SPLIT, ONE_SPLIT], ids=["four", "one"])
def test_order_statistics_answer_like_the_split(layout):
    # Holding only the ranks a layout reads gives the statistics of the
    # whole sorted split; any other rank is refused.
    k, n = 12, 5_000
    buckets = layout.buckets(k)
    splits = [SortedSampleSplit.from_samples(tt.sample(Lomax(1.0, 1.0), n, seed))
              for seed in range(len(set(layout.splits)))]
    held = [OrderStatistics(n, r, split.at(r))
            for split, r in zip(splits, ranks_by_split(layout, n, buckets, k))]
    for got, want in zip(bucket_statistics(layout, held, buckets, k),
                         bucket_statistics(layout, splits, buckets, k)):
        assert got.tobytes() == want.tobytes()
    missing = next(r for r in range(1, n + 1) if r not in held[0].ranks)
    with pytest.raises(ValueError, match="rank not held"):
        held[0].at([missing])
    for bad in (0, n + 1):
        with pytest.raises(ValueError, match="ranks must lie in"):
            splits[0].at([bad])
    with pytest.raises(ValueError, match="ranks must ascend"):
        OrderStatistics(n, [3, 2], [1.0, 2.0])


# ---------------------------------------------------------------------------
# two-granularity four-split statistic
# ---------------------------------------------------------------------------

def _matched_rank_reference(model, n, i, k):
    """The defining ratio evaluated at the ranks the index rounding lands on."""
    k2 = k * k
    q = [rank_index(n, (i * k + 1) / k2) / (n + 1),
         rank_index(n, i / k) / (n + 1),
         rank_index(n, ((i + 1) * k + 1) / k2) / (n + 1),
         rank_index(n, (i + 1) / k) / (n + 1)]
    iv = [float(model.quantile(x)) for x in q]
    num = iv[0] - iv[1]
    den = (iv[2] - iv[3]) - num
    return num / (k * den)


@pytest.mark.parametrize("model", [Exponential(1.0), Lomax(1.0, 1.0)])
def test_two_scale_on_perfect_quantiles(model):
    k = 16
    n = k ** 4
    splits = [perfect_split(model, n)] * 4
    for i in (2, 4, 8, 14):
        got = two_scale_statistic(splits, i, k)
        assert got == pytest.approx(_matched_rank_reference(model, n, i, k), abs=1e-6)


def test_two_scale_degenerate_on_uniform_spacing():
    # equally spaced values make both bucket lengths identical
    splits = [SortedSampleSplit(np.arange(1.0, 257.0))] * 4
    assert tt.is_degenerate(two_scale_statistic(splits, 4, 8))


def test_two_scale_scale_free():
    model = Lomax(1.0, 1.0)
    base = [perfect_split(model, 16 ** 4)] * 4
    scaled = [SortedSampleSplit(s.values * 3.5) for s in base]
    for i in (2, 7, 13):
        a = two_scale_statistic(base, i, 16)
        b = two_scale_statistic(scaled, i, 16)
        assert abs(a - b) <= 1e-12 * abs(a)


def test_two_scale_validation():
    split = perfect_split(Exponential(1.0), 300)
    with pytest.raises(ValueError):
        two_scale_statistic([split] * 3, 4, 16)
    with pytest.raises(ValueError):
        two_scale_statistic([split] * 4, 1, 16)   # index below range
    with pytest.raises(ValueError):
        two_scale_statistic([split] * 4, 15, 16)  # index above range
    with pytest.raises(ValueError):
        two_scale_statistic([split] * 4, 4, 18)   # n < k^2
    short = perfect_split(Exponential(1.0), 299)
    with pytest.raises(ValueError):
        two_scale_statistic([split, split, split, short], 4, 16)


def test_two_scale_is_pure():
    splits = [perfect_split(Exponential(1.0), 16 ** 4)] * 4
    assert two_scale_statistic(splits, 5, 16) == two_scale_statistic(splits, 5, 16)


# ---------------------------------------------------------------------------
# single-split statistic
# ---------------------------------------------------------------------------

def test_single_scale_calibration_on_exponential():
    split = perfect_split(Exponential(1.0), 32 ** 4)
    assert single_scale_statistic(split, 8, 32) == pytest.approx(0.75, abs=0.08)


def test_single_scale_calibration_on_lomax():
    split = perfect_split(Lomax(1.0, 1.0), 32 ** 4)
    assert single_scale_statistic(split, 8, 32) == pytest.approx(0.375, abs=0.08)


def test_single_scale_shift_invariant():
    split = perfect_split(Exponential(1.0), 10_000)
    shifted = SortedSampleSplit(split.values + 10.0)
    for i in (2, 8, 20):
        a = single_scale_statistic(split, i, 32)
        b = single_scale_statistic(shifted, i, 32)
        assert abs(a - b) <= 1e-9 * max(abs(a), 1.0)


def test_single_scale_degenerate():
    split = SortedSampleSplit(np.arange(0.0, 64.0))
    assert tt.is_degenerate(single_scale_statistic(split, 4, 16))


def test_single_scale_validation():
    split = perfect_split(Exponential(1.0), 100)
    with pytest.raises(ValueError):
        single_scale_statistic(split, 0, 16)
    with pytest.raises(ValueError):
        single_scale_statistic(split, 14, 16)  # k-3 = 13 is the last index
    with pytest.raises(ValueError):
        single_scale_statistic(perfect_split(Exponential(1.0), 10), 2, 16)


# ---------------------------------------------------------------------------
# affine invariance and bucket weights
# ---------------------------------------------------------------------------

def test_affine_invariance_of_both_statistics():
    rng = np.random.default_rng(5)
    raw = np.sort(tt.sample(Lomax(1.0, 1.0), 40_000, seed=11))
    split = SortedSampleSplit(raw)
    splits = [SortedSampleSplit(np.sort(part))
              for part in (raw[0::4], raw[1::4], raw[2::4], raw[3::4])]
    for _ in range(5):
        c = float(rng.uniform(0.05, 20.0))
        b = float(rng.uniform(0.0, 50.0))
        t_split = SortedSampleSplit(c * split.values + b)
        t_splits = [SortedSampleSplit(c * s.values + b) for s in splits]
        for i in range(2, 14):
            a0 = two_scale_statistic(splits, i, 16)
            a1 = two_scale_statistic(t_splits, i, 16)
            if tt.is_degenerate(a0):
                assert tt.is_degenerate(a1)
            else:
                assert abs(a0 - a1) <= 1e-9 * abs(a0)
        for i in range(1, 14):
            w0 = single_scale_statistic(split, i, 16)
            w1 = single_scale_statistic(t_split, i, 16)
            if tt.is_degenerate(w0):
                assert tt.is_degenerate(w1)
            else:
                assert abs(w0 - w1) <= 1e-9 * abs(w0)


def test_equal_weight_buckets():
    # when n is a multiple of k^2, consecutive endpoint ranks enclose
    # floor(n/k^2) samples, plus one extra at a single rounding crossover
    k = 4
    n = 3 * k * k
    idx = [rank_index(n, j / k ** 2) for j in range(1, k * k)]
    gaps = set(np.diff(idx).tolist())
    assert gaps <= {n // k ** 2, n // k ** 2 + 1}


def test_extracted_endpoints_monotone():
    split = perfect_split(Lomax(1.0, 1.0), 12_345)
    qs = np.arange(1, 64) / 64
    vals = split.values[rank_index(split.n, qs) - 1]
    assert np.all(np.diff(vals) >= 0.0)
