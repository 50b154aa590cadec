
import numpy as np
import pytest

import tailtest as tt
from tailtest import (
    Exponential,
    Lomax,
    SortedSampleSplit,
    TailParams,
    TestConfig,
    Variant,
    WellBehavedBounds,
)
from tailtest.empirical import _checked_sorted, rank_index


def perfect_split(model, n):
    """Split whose j-th value is the quantile at j/(n+1)."""
    q = np.arange(1, n + 1) / (n + 1)
    return SortedSampleSplit(np.asarray(model.quantile(q), dtype=float))


def config(k, variant=Variant.FULL):
    return TestConfig(tail=TailParams(0.25, 0.5), bounds=WellBehavedBounds(1, 1, 1, 1 / (2 * k)),
                      k=k, variant=variant)


def two_scale(splits, k):
    """The four-split statistic's record at each bucket the full test scans, by index."""
    return {r.i: r for r in tt.run_test(splits, config(k)).records}


def single_scale(split, k):
    """The single-split statistic's record at each bucket the weak test scans, by index."""
    return {r.i: r for r in tt.run_test([split], config(k, Variant.WEAK)).records}


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
    for n, q in ((2, 0.0), (2, 1.0), (2, np.array([0.5, 1.0])), (0, 0.5)):
        with pytest.raises(ValueError):
            rank_index(n, q)


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


def test_grid_is_checked_row_by_row():
    # A (splits, m) grid of a sampled test's values passes when every row
    # would, and otherwise names the first failure of the first row that
    # fails, as checking the rows one by one in order would.
    grid = np.array([[0.0, 1.0, 2.0], [1.0, 1.0, 5.0]])
    assert _checked_sorted(grid).tobytes() == grid.tobytes()
    cases = [
        ([[0.0, 1.0, 0.5], [1.0, np.nan, 2.0]], "sorted ascending"),
        ([[0.0, 1.0, 2.0], [-1.0, 0.0, np.inf]], "all be finite"),
        ([[0.0, 1.0, 2.0], [-1.0, 0.0, 1.0], [2.0, 1.0, 0.0]], "nonnegative"),
        ([[3.0, 4.0, 5.0], [0.0, 2.0, 1.0]], "sorted ascending"),
    ]
    for values, message in cases:
        with pytest.raises(ValueError, match=message):
            _checked_sorted(np.array(values))
    with pytest.raises(ValueError, match="one-dimensional"):
        SortedSampleSplit(grid)


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
    for j, split in enumerate(tt.load_samples(p, tt.FileFormat.TEXT, splits=4)):
        assert split.values.tobytes() == np.sort(stream[j::4], kind="stable").tobytes()


def test_from_samples_leaves_caller_array_unchanged():
    samples = tt.sample(Lomax(1.0, 1.0), 1000, seed=3)
    before = samples.tobytes()
    split = SortedSampleSplit.from_samples(samples)
    assert samples.tobytes() == before
    assert not np.shares_memory(split.values, samples)


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
    records = two_scale([perfect_split(model, n)] * 4, k)
    for i in (2, 4, 8, 14):
        want = _matched_rank_reference(model, n, i, k)
        assert records[i].s_hat == pytest.approx(want, abs=1e-6)


def test_two_scale_degenerate_on_uniform_spacing():
    # equally spaced values make both bucket lengths identical
    splits = [SortedSampleSplit(np.arange(1.0, 257.0))] * 4
    assert two_scale(splits, 8)[4].degenerate


def test_two_scale_scale_free():
    model = Lomax(1.0, 1.0)
    base = [perfect_split(model, 16 ** 4)] * 4
    a = two_scale(base, 16)
    b = two_scale([SortedSampleSplit(s.values * 3.5) for s in base], 16)
    for i in (2, 7, 13):
        assert abs(a[i].s_hat - b[i].s_hat) <= 1e-12 * abs(a[i].s_hat)


SPLIT, SHORT, TINY = (perfect_split(Exponential(1.0), n) for n in (300, 299, 10))


# Split count (an empty list too), then equal sizes, then n >= k^2.
@pytest.mark.parametrize("splits,k,message", [
    ([], 16, "exactly 4 split"), ([SPLIT] * 3, 16, "exactly 4 split"),
    ([TINY] * 3, 18, "exactly 4 split"), ([SHORT] + [SPLIT] * 3, 16, "same number of samples"),
    ([SPLIT] * 3 + [SHORT], 16, "same number of samples"),
    ([TINY] + [SPLIT] * 3, 18, "same number of samples"),
    ([SPLIT] * 4, 18, "need at least 324 samples per split, got 300"),
], ids=["empty", "three", "three-too-few", "short-first", "short-last", "short-and-too-few",
        "too-few"])
def test_full_test_refusals_in_order(splits, k, message):
    with pytest.raises(ValueError, match=message):
        tt.run_test(splits, config(k))


def test_weak_test_and_split_refusals():
    with pytest.raises(ValueError, match="need at least 16 samples per split, got 10"):
        tt.run_test([TINY], config(16, Variant.WEAK))
    for bad in (0, SPLIT.n + 1):  # a split answers only ranks in [1, n]
        with pytest.raises(ValueError, match="ranks must lie in"):
            SPLIT.at([bad])


def test_two_scale_is_pure():
    splits = [perfect_split(Exponential(1.0), 16 ** 4)] * 4
    assert two_scale(splits, 16)[5].s_hat == two_scale(splits, 16)[5].s_hat


# ---------------------------------------------------------------------------
# single-split statistic
# ---------------------------------------------------------------------------

def test_single_scale_calibration_on_exponential():
    split = perfect_split(Exponential(1.0), 32 ** 4)
    assert single_scale(split, 32)[8].s_hat == pytest.approx(0.75, abs=0.08)


def test_single_scale_calibration_on_lomax():
    split = perfect_split(Lomax(1.0, 1.0), 32 ** 4)
    assert single_scale(split, 32)[8].s_hat == pytest.approx(0.375, abs=0.08)


def test_single_scale_shift_invariant():
    split = perfect_split(Exponential(1.0), 10_000)
    a = single_scale(split, 32)
    b = single_scale(SortedSampleSplit(split.values + 10.0), 32)
    for i in (8, 20):
        assert abs(a[i].s_hat - b[i].s_hat) <= 1e-9 * max(abs(a[i].s_hat), 1.0)


def test_single_scale_degenerate():
    split = SortedSampleSplit(np.arange(0.0, 64.0))
    assert single_scale(split, 16)[4].degenerate


# ---------------------------------------------------------------------------
# affine invariance and bucket weights
# ---------------------------------------------------------------------------

def assert_same_statistics(a, b, buckets):
    """Records a and b agree at buckets: both degenerate, or within 1e-9 relative."""
    for i in buckets:
        if a[i].degenerate:
            assert b[i].degenerate
        else:
            assert abs(a[i].s_hat - b[i].s_hat) <= 1e-9 * abs(a[i].s_hat)


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
        assert_same_statistics(two_scale(splits, 16), two_scale(t_splits, 16), range(2, 14))
        assert_same_statistics(single_scale(split, 16), single_scale(t_split, 16),
                               range(2, 13))


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
