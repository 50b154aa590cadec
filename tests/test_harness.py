import functools
import json
import math
import os
import struct
import threading
import tracemalloc
from array import array

import numpy as np
import pytest

import tailtest as tt
from tailtest import (
    Exponential,
    FileFormat,
    Lomax,
    SortedSampleSplit,
    TailParams,
    TestConfig,
    Variant,
    Verdict,
    WellBehavedBounds,
)
from tailtest import _textlines, distributions, empirical, harness, tester
from tailtest.cli import run_cli
from tailtest.distributions import _CHUNK
from tailtest.harness import (
    ReplicationRow,
    _parse_text,
    sample_file_chunks,
    serialize_report,
)
from tailtest.tester import BucketRecord, TestOutcome

TAIL = TailParams(0.25, 0.5)
CLI_BOUNDS = ["--alpha", "0.25", "--rho", "0.5", "--beta", "1", "--b1", "1", "--b2", "1"]


def config_for(variant, k):
    return TestConfig(tail=TAIL, bounds=WellBehavedBounds(1, 1, 1, 1 / (2 * k)),
                      k=k, variant=variant)


def weak_config(k=32):
    return config_for(Variant.WEAK, k)


# ---------------------------------------------------------------------------
# replication
# ---------------------------------------------------------------------------

def test_replicate_deterministic_bytes():
    cfg = weak_config()
    a = tt.replicate(Exponential(1.0), 2, 20_000, cfg, base_seed=5)
    b = tt.replicate(Exponential(1.0), 2, 20_000, cfg, base_seed=5)
    assert serialize_report(a) == serialize_report(b)


def test_replicate_exponential_mean_tracks_threshold():
    cfg = weak_config()
    rows = tt.replicate(Exponential(1.0), 10, 200_000, cfg, base_seed=11)
    mid = [r for r in rows if 0.2 <= r.i / cfg.k <= 0.6]
    assert mid
    for row in mid:
        # 3 sigma of run-to-run spread plus the estimator's O(1/k) offset
        spread = 3.0 * row.s_hat_std + 3.0 / cfg.k
        assert abs(row.s_hat_mean - row.threshold) <= spread


def test_replicate_lomax_dips_below_boundary_every_rep():
    cfg = weak_config()
    model = Lomax(1.0, 1.0)
    for r in range(10):
        outcome = tt.run_sampled_test(model, 200_000, 11 + r, cfg)
        assert outcome.verdict is Verdict.HEAVY
    rows = tt.replicate(model, 10, 200_000, cfg, base_seed=11)
    assert any(row.s_hat_mean < row.boundary for row in rows)


# Full and weak, a heavy and a light family, and a weak n=20 whose
# buckets often come out degenerate.
PER_SEED_CASES = [(Exponential(1.0), Variant.FULL, 8, 1_000),
                  (Lomax(1.0, 1.0), Variant.FULL, 16, 32_768),
                  (tt.HalfGaussian(1.0), Variant.WEAK, 16, 10_000),
                  (Exponential(1.0), Variant.WEAK, 8, 20)]


@pytest.mark.parametrize("model,variant,k,n", PER_SEED_CASES,
                         ids=[f"{type(m).__name__.lower()}-{v.value}-n{n}"
                              for m, v, _, n in PER_SEED_CASES])
def test_replicate_matches_per_seed_tests(model, variant, k, n):
    # Drawing every rep in one call gives, bit for bit, the moments and
    # boundary of the seeds' single tests, and their reports.
    config, reps, base = config_for(variant, k), 30, 17
    single = [tt.run_sampled_test(model, n, base + r, config) for r in range(reps)]
    rows = tt.replicate(model, reps, n, config, base)
    assert [row.i for row in rows] == [rec.i for rec in single[0].records]
    for j, row in enumerate(rows):
        live = np.array([o.records[j].s_hat for o in single if not o.records[j].degenerate])
        moments = [np.mean(live) if live.size else math.nan,
                   np.std(live, ddof=1) if live.size > 1 else math.nan]
        assert np.array_equal([row.s_hat_mean, row.s_hat_std], moments, equal_nan=True), row.i
        assert all(row.boundary == o.records[j].boundary for o in single), row.i
    plan, stats = harness._sampled(model, n, config, base, reps)
    assert [serialize_report(plan.outcome(row, base + r)) for r, row in enumerate(stats)] == \
        [serialize_report(o) for o in single]
    if n == 20:
        assert any(rec.degenerate for o in single for rec in o.records)


@pytest.mark.parametrize("variant,n,base", [(Variant.FULL, 1_000, 10), (Variant.WEAK, 11, 3)])
def test_bucket_live_in_one_rep_has_no_standard_deviation(variant, n, base):
    # The exponential golden simulate calls: one value has a mean but no
    # sample standard deviation, so such a bucket's std is nan, as is a
    # bucket with no live rep.
    model, config = Exponential(1.0), config_for(variant, 8)
    _, stats = harness._sampled(model, n, config, base, 3)
    live = np.count_nonzero(~np.isinf(stats), axis=0)
    assert 1 in live
    for row, count in zip(tt.replicate(model, 3, n, config, base), live):
        assert math.isnan(row.s_hat_std) == (count < 2), row.i
        assert math.isnan(row.s_hat_mean) == (count < 1), row.i


class _CountedGenerator:
    """A seed's generator whose ``standard_gamma`` calls are counted."""

    def __init__(self, seed, calls):
        self.gen, self.calls = np.random.Generator(np.random.PCG64(seed)), calls

    def standard_gamma(self, shape):
        self.calls.append("gamma")
        return self.gen.standard_gamma(shape)


@pytest.mark.parametrize("variant", list(Variant))
def test_a_seed_is_one_gamma_call_and_one_quantile_call(monkeypatch, variant):
    # However many splits the layout reads, each seed draws its whole
    # grid of spacings at once and maps it at once, and the statistics
    # are those of the unpatched draw.
    model, config, reps, n = Lomax(1.0, 1.0), config_for(variant, 16), 7, 50_000
    _, expected = harness._sampled(model, n, config, 2, reps)
    calls, quantile = [], Lomax.quantile
    monkeypatch.setattr(np.random, "default_rng", lambda seed: _CountedGenerator(seed, calls))
    monkeypatch.setattr(Lomax, "quantile", lambda self, u: calls.append("quantile") or
                        quantile(self, u))
    _, stats = harness._sampled(model, n, config, 2, reps)
    assert calls == ["gamma", "quantile"] * reps
    assert stats.tobytes() == expected.tobytes()


def test_test_at_each_seed_is_that_seeds_row_of_a_batch(tmp_path):
    # Seeds 35..39 are light, heavy, heavy, heavy, light one by one: each
    # `test --seed s` writes the report of row s - 35 of one batched draw
    # of those seeds, so a seed's verdict does not depend on its company.
    bounds = WellBehavedBounds(1.0, 1.0, 1.0, 1 / 16)  # the flags' floats, as the CLI reads them
    config, n, model = TestConfig(tail=TAIL, bounds=bounds, k=8, variant=Variant.WEAK), 3000, \
        Lomax(1.0, 1.0)
    plan, stats = harness._sampled(model, n, config, 35, 5)
    batched = [plan.outcome(row, 35 + r) for r, row in enumerate(stats)]
    assert [o.verdict for o in batched] == [Verdict.LIGHT, *[Verdict.HEAVY] * 3, Verdict.LIGHT]
    for r, expected in enumerate(batched):
        out = tmp_path / f"r{r}.json"
        assert run_cli(["test", "--dist", "lomax", "--params", "a=1,lambda=1", "--n", str(n),
                        "--seed", str(35 + r), "--k", "8", *CLI_BOUNDS, "--weak",
                        "--out", str(out)]) == 0
        assert out.read_bytes() == serialize_report(expected)


@pytest.mark.parametrize("reps", [2, 50])
def test_boundary_is_computed_once_per_call(tmp_path, monkeypatch, reps):
    # Ranks, reference, noise floor and boundary depend on (config, n)
    # alone: one plan, and one computation of the ranks, serves every
    # rep of a call and every split of a file.
    plans, ranks = [], []
    plan, layout_ranks = tester._plan, empirical.layout_ranks

    def counted_plan(config, n):
        plans.append(n)
        return plan(config, n)

    def counted_ranks(layout, n, buckets, k):
        ranks.append(n)
        return layout_ranks(layout, n, buckets, k)

    monkeypatch.setattr(tester, "_plan", counted_plan)
    for module in (empirical, tester):
        monkeypatch.setattr(module, "layout_ranks", counted_ranks)
    sample = tmp_path / "s.txt"
    sample.write_text("".join(f"{v!r}\n" for v in tt.sample(Lomax(1.0, 1.0), 4_000, 5).tolist()))
    model, config = Exponential(1.0), config_for(Variant.FULL, 8)
    out = ["--out", str(tmp_path / "r.json")]
    for n, call in ((1_000, lambda: tt.replicate(model, reps, 1_000, config, 3)),
                    (1_000, lambda: tt.run_sampled_test(model, 1_000, 3, config)),
                    (1_000, lambda: run_cli(["test", "--dist", "exponential", "--params",
                                             "lambda=1", "--n", "1000", "--k", "8", *CLI_BOUNDS,
                                             *out]) == 0),
                    (1_000, lambda: run_cli(["test", "--input", str(sample), "--k", "8",
                                             *CLI_BOUNDS, *out]) == 0),
                    (4_000, lambda: run_cli(["test", "--input", str(sample), "--weak",
                                             "--k", "8", *CLI_BOUNDS, *out]) == 0)):
        del plans[:], ranks[:]
        assert call()
        assert plans == ranks == [n]


class _FaultyExponential(Exponential):
    """Exponential(1) whose quantile spoils the last row of what it returns on call ``at``."""

    def __init__(self, fault, at):
        super().__init__(1.0)
        object.__setattr__(self, "spoil", (fault, at, [0]))

    def quantile(self, u):
        fault, at, calls = self.spoil
        x = np.array(super().quantile(u))
        if calls[0] == at:
            last = x.reshape(-1, x.shape[-1])[-1]  # a view: the last split's values
            if fault == "nan":
                last[1] = math.nan
            elif fault == "negative":
                last[0] = -1.0
            else:
                last[[0, 1]] = last[[1, 0]]
        calls[0] += 1
        return x


@pytest.mark.parametrize("variant", list(Variant))
@pytest.mark.parametrize("fault,message", [("nan", "values must all be finite"),
                                           ("negative", "values must be nonnegative"),
                                           ("descending", "values must be sorted ascending")])
def test_every_check_survives_batching(variant, fault, message):
    # Rep 3 of 5 maps its last split's order statistics wrong, after the
    # splits before it mapped right: drawing every rep in one call still
    # refuses it, as the test at its seed does.
    config, n, base = config_for(variant, 8), 1_000, 40
    with pytest.raises(ValueError) as one:
        tt.run_sampled_test(_FaultyExponential(fault, 0), n, base + 3, config)
    assert str(one.value) == message
    with pytest.raises(ValueError) as batched:
        tt.replicate(_FaultyExponential(fault, 3), 5, n, config, base)
    assert str(batched.value) == message


def test_replicate_seed_hygiene():
    a = tt.sample(Exponential(1.0), 100, seed=9)
    b = tt.sample(Exponential(1.0), 100, seed=10)
    assert not np.any(a == b)


def _peak_bytes(fn, *args):
    """tracemalloc peak of one call, above the level at its start."""
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        result = fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak - base


def _s_hats(outcomes) -> np.ndarray:
    """(buckets, runs) array of the runs' statistics, inf where degenerate."""
    return np.array([[r.s_hat for r in o.records] for o in outcomes]).T


def _two_proportion_p(a: int, b: int, runs: int) -> float:
    """Two-sided p of a pooled two-proportion z test of a and b hits in runs each."""
    pooled = (a + b) / (2 * runs)
    if pooled in (0.0, 1.0):
        return 1.0
    z = (a - b) / runs / math.sqrt(pooled * (1.0 - pooled) * 2 / runs)
    return math.erfc(abs(z) / math.sqrt(2.0))


# Exponential and Lomax, full k=8 n=2,000 (five scanned buckets) and weak
# k=16 n=5,000 (eleven): two p values a bucket, 64 in all.
DISTRIBUTION_CASES = [(model, variant, k, n) for model in (Exponential(1.0), Lomax(1.0, 1.0))
                      for variant, k, n in ((Variant.FULL, 8, 2_000), (Variant.WEAK, 16, 5_000))]


def sampled_test_p_values(model, variant, k, n, runs=1000):
    """Per bucket, p of the exact sampler's statistic against sorted samples'.

    Seeds 0 to runs - 1 on each side.  Each bucket gives a two-sample KS
    p over the finite statistics and a two-proportion p over the
    degenerate counts.
    """
    from scipy.stats import ks_2samp

    config = config_for(variant, k)
    if variant is Variant.FULL:
        # Four splits dealt round-robin from one stream, as a sample file is.
        drawn = [tt.run_test([SortedSampleSplit.from_samples(v[j::4]) for j in range(4)],
                             config)
                 for v in (tt.sample(model, 4 * n, s) for s in range(runs))]
    else:
        drawn = [tt.run_test([SortedSampleSplit.from_samples(tt.sample(model, n, s))], config)
                 for s in range(runs)]
    exact = [tt.run_sampled_test(model, n, s, config) for s in range(runs)]
    pvalues = []
    for a, b in zip(_s_hats(exact), _s_hats(drawn)):
        fa, fb = a[np.isfinite(a)], b[np.isfinite(b)]
        pvalues.append(ks_2samp(fa, fb).pvalue)
        pvalues.append(_two_proportion_p(runs - fa.size, runs - fb.size, runs))
    return pvalues


@pytest.mark.parametrize("model,variant,k,n", DISTRIBUTION_CASES,
                         ids=[f"{type(m).__name__.lower()}-{v.value}"
                              for m, v, _, _ in DISTRIBUTION_CASES])
def test_sampled_test_matches_sorted_samples_in_distribution(model, variant, k, n):
    # The exact order statistics must give the statistic the law it has
    # on sorted samples, at a family-wise level of 1e-3 over every case
    # (Bonferroni).
    pvalues = sampled_test_p_values(model, variant, k, n)
    assert len(pvalues) == (10 if variant is Variant.FULL else 22)
    assert min(pvalues) > 1e-3 / 64


@pytest.mark.parametrize("variant", list(Variant))
def test_sampled_test_maps_only_what_it_reads(monkeypatch, variant):
    # The quantile sees at most the four endpoints of each scanned bucket.
    seen = []
    quantile = Lomax.quantile

    def counted(self, u):
        seen.append(np.size(u))
        return quantile(self, u)

    monkeypatch.setattr(Lomax, "quantile", counted)
    outcome = tt.run_sampled_test(Lomax(1.0, 1.0), 400_000, 4, config_for(variant, 16))
    assert 0 < sum(seen) <= 4 * len(outcome.records)


@pytest.mark.parametrize("variant", list(Variant))
def test_sampled_test_peak_memory_is_fixed_in_n(variant):
    # Only the order statistics the test reads are drawn, so a test of a
    # trillion samples per split holds what a test of a thousand holds:
    # the ranks, their values and the Python objects around them.
    model, config = Lomax(1.0, 1.0), config_for(variant, 16)
    tt.run_sampled_test(model, 1000, 5, config)  # runs the first call's imports
    for n in (10 ** 3, 10 ** 12):
        outcome, peak = _peak_bytes(tt.run_sampled_test, model, n, 5, config)
        assert outcome.n == n
        assert peak <= 64 << 10, n


@pytest.mark.parametrize("variant", list(Variant))
@pytest.mark.parametrize("n", ["least", 10 ** 6, 10 ** 12])
def test_order_statistics_fill_every_split_the_layout_reads(variant, n):
    # One array per split, at that split's ranks, rising strictly inside
    # (0, 1), from the fewest samples the layout takes to a trillion.
    config = config_for(variant, 16)
    n = config.layout.min_n(16) if n == "least" else n
    ranks = tester._plan(config, n).ranks
    draws = distributions.uniform_order_statistics(n, ranks, 3)
    assert [u.shape for u in draws] == [r.shape for r in ranks]
    for u in draws:
        assert 0.0 < u[0] and u[-1] < 1.0 and np.all(np.diff(u) > 0.0)


@pytest.mark.parametrize("variant", list(Variant))
def test_sampled_test_answers_up_to_the_int64_bound(variant):
    # Every rank and n + 1 must fit in an int64: the largest n answers,
    # one more is refused before anything is drawn.
    model, config = Lomax(1.0, 1.0), config_for(variant, 16)
    assert tt.run_sampled_test(model, 2 ** 63 - 2, 1, config).n == 2 ** 63 - 2
    with pytest.raises(ValueError, match=r"n must be < 2\*\*63 - 1"):
        tt.run_sampled_test(model, 2 ** 63 - 1, 1, config)


def test_replicate_requires_two_reps():
    with pytest.raises(ValueError):
        tt.replicate(Exponential(1.0), 1, 1000, weak_config(), base_seed=0)


# ---------------------------------------------------------------------------
# file ingestion
# ---------------------------------------------------------------------------

def test_load_text_with_comments(tmp_path):
    p = tmp_path / "samples.txt"
    p.write_text("1.0\n# a comment\n\n2.5\n")
    for fmt in (FileFormat.TEXT, "text"):
        assert np.array_equal(tt.load_samples(p, fmt)[0].values, [1.0, 2.5])


def test_load_text_rejects_negative(tmp_path):
    # Named by file line, with or without a comment line before it.
    assert _load_error(tmp_path, "negative") == \
        "negative value -1.0 at line 3; domain is [0, inf)"
    assert _load_error(tmp_path, "comment_negative") == \
        "negative value -0.5 at line 3; domain is [0, inf)"


def test_load_refuses_an_unknown_format(tmp_path):
    p = tmp_path / "eight.txt"  # 40 bytes, which the raw reader took for five doubles
    p.write_text("".join(f"{v}.00\n" for v in range(1, 9)))
    with pytest.raises(ValueError, match="'csv' is not a valid FileFormat"):
        tt.load_samples(p, "csv")


def test_load_text_parse_error_carries_line(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("1.0\nnot-a-number\n")
    with pytest.raises(ValueError, match="line 2"):
        tt.load_samples(p, FileFormat.TEXT)


def test_load_raw_f64_sorts(tmp_path):
    p = tmp_path / "two.f64"
    p.write_bytes(struct.pack("<2d", 3.0, 1.0))
    for fmt in (FileFormat.RAW_F64, "f64"):
        assert np.array_equal(tt.load_samples(p, fmt)[0].values, [1.0, 3.0])


def test_load_raw_f64_rejects_fragment(tmp_path):
    p = tmp_path / "frag.f64"
    p.write_bytes(b"\x00" * 12)
    with pytest.raises(ValueError) as exc:
        tt.load_samples(p, FileFormat.RAW_F64)
    assert str(exc.value) == \
        f"{p}: length 12 is not a multiple of 8 (trailing fragment at offset 8)"


def test_load_raw_f64_rejects_empty(tmp_path):
    p = tmp_path / "empty.f64"
    p.write_bytes(b"")
    with pytest.raises(ValueError) as exc:
        tt.load_samples(p, FileFormat.RAW_F64)
    assert str(exc.value) == f"{p}: empty file"


@pytest.mark.parametrize("ending", [b"\n", b"\r\n", b"\r"], ids=["lf", "crlf", "cr"])
def test_load_raw_f64_refuses_text(tmp_path, ending):
    # 40 or 48 bytes of text were read as five or six doubles.
    p = tmp_path / "text.f64"
    p.write_bytes((b"0.25" + ending) * 8)
    with pytest.raises(ValueError) as exc:
        tt.load_samples(p, FileFormat.RAW_F64)
    assert str(exc.value) == f"{p}: printable ASCII lines are text, not raw f64; read it as text"


def test_load_raw_f64_takes_printable_bytes_without_a_line_ending(tmp_path):
    p = tmp_path / "printable.f64"
    p.write_bytes(b"ABCDEFGH")
    [split] = tt.load_samples(p, FileFormat.RAW_F64)
    assert split.values.tolist() == [struct.unpack("<d", b"ABCDEFGH")[0]]


@pytest.mark.parametrize("change", ["grows", "shrinks"])
def test_load_raw_f64_reads_a_changing_file_to_its_end(tmp_path, monkeypatch, change):
    # The length on disk only sizes the first read; the file is read on to
    # its end, as text is.  A file that shrank was refused, and one that
    # grew was read only as far as its old length.
    values = tt.sample(Lomax(1.0, 1.0), 3000, seed=4)
    data = values.astype("<f8").tobytes()
    p = tmp_path / "changing.f64"
    p.write_bytes(data[:8000] if change == "grows" else data)
    fstat = os.fstat

    def fstat_then_change(fd):
        st = fstat(fd)
        if change == "grows":
            with p.open("ab") as fh:
                fh.write(data[8000:])
        else:
            os.truncate(p, 8000)
        return st

    monkeypatch.setattr(harness.os, "fstat", fstat_then_change)
    [split] = tt.load_samples(p, FileFormat.RAW_F64)
    kept = values if change == "grows" else values[:1000]
    assert split.values.tobytes() == np.sort(kept).tobytes()


@pytest.mark.parametrize("splits", [0, -1, 2, 3, 5, 4.0, True])
def test_load_refuses_splits_no_layout_reads(tmp_path, splits):
    # 0 divided by zero, -1 failed in numpy's reshape, and 3 dealt three
    # splits that no layout reads.  4.0 and True equal a count, and each
    # failed in numpy's reshape with a TypeError.
    p = tmp_path / "twelve.txt"
    p.write_text("".join(f"{v}.5\n" for v in range(12)))
    with pytest.raises(ValueError) as exc:
        tt.load_samples(p, FileFormat.TEXT, splits)
    assert str(exc.value) == f"splits must be a rank layout's count, 1 or 4, not {splits}"


def test_load_raw_peak_memory_per_value(tmp_path):
    # The file is read straight into the array it is sorted in: 8 B per
    # value.  Viewing the file's bytes and sorting a copy took about 17 B.
    n = 1_000_000
    p = tmp_path / "big.f64"
    values = tt.sample(Lomax(1.0, 1.0), n, seed=4)
    p.write_bytes(values.astype("<f8").tobytes())
    [split], peak = _peak_bytes(tt.load_samples, p, FileFormat.RAW_F64)
    assert split.values.tobytes() == np.sort(values).tobytes()
    assert peak / n <= 10.0


def test_load_split_holds_each_value_once(tmp_path):
    # The four splits are the sorted rows of the file's own array, viewed
    # as (n, 4) and transposed; sorting a strided row takes a row-sized
    # buffer (2 B per value), and checking one whole split a 1 B mask.
    # Dealing into a second (4, n) array took 16.25 B per value against
    # 9.0 B for one split.
    n = 1_000_000
    p = tmp_path / "big.f64"
    values = tt.sample(Lomax(1.0, 1.0), n, seed=4)
    p.write_bytes(values.astype("<f8").tobytes())
    _, whole = _peak_bytes(tt.load_samples, p, FileFormat.RAW_F64, 1)
    splits, dealt = _peak_bytes(tt.load_samples, p, FileFormat.RAW_F64, 4)
    for j, split in enumerate(splits):
        assert split.values.tobytes() == np.sort(values[j::4]).tobytes()
    assert (dealt - whole) / n <= 1.5


@pytest.mark.parametrize("count", [1, 2, 3, 5, 6, 7, 4 * 1000 + 3])
def test_load_split_refuses_uneven_count(tmp_path, count):
    # Fewer than four values fill no split.  The benchmark's file
    # workload matches the uneven count's exact message.
    p = tmp_path / "uneven.txt"
    p.write_text("".join(f"{v}.5\n" for v in range(count)))
    with pytest.raises(ValueError) as exc:
        tt.load_samples(p, FileFormat.TEXT, splits=4)
    assert str(exc.value) == (f"{p}: need at least 4 values to build four splits" if count < 4
                              else "all four splits must hold the same number of samples")


def test_load_preserves_multiset(tmp_path):
    values = tt.sample(Lomax(1.0, 1.0), 1001, seed=2)
    p = tmp_path / "all.txt"
    p.write_text("\n".join(repr(float(v)) for v in values) + "\n")
    [split] = tt.load_samples(p, FileFormat.TEXT)
    assert np.array_equal(split.values, np.sort(values))


# Four-split sizes whose 4n ends on a chunk edge, one past it, mid-chunk
# or inside the first chunk.
SPLIT_CHUNK_CUTS = {"on_chunk_edge": _CHUNK // 2, "odd_n": _CHUNK // 2 + 1,
                    "mid_chunk": 3 * (_CHUNK // 4) + 5, "inside_one_chunk": 100}


@pytest.mark.parametrize("cut", SPLIT_CHUNK_CUTS)
def test_split_file_is_strided_slices_of_one_stream(tmp_path, cut):
    # A sample file of 4n values loads as split j = stable sort of the
    # stream's values j, j + 4, ...
    n = SPLIT_CHUNK_CUTS[cut]
    stream = tt.sample(Lomax(1.0, 1.0), 4 * n, seed=6)
    p = tmp_path / "s.f64"
    p.write_bytes(stream.astype("<f8").tobytes())
    splits = tt.load_samples(p, FileFormat.RAW_F64, splits=4)
    for j, split in enumerate(splits):
        assert split.values.tobytes() == np.sort(stream[j::4], kind="stable").tobytes()


def test_load_round_robin_split(tmp_path):
    p = tmp_path / "seq.txt"
    p.write_text("\n".join(str(float(v)) for v in range(8)) + "\n")
    splits = tt.load_samples(p, FileFormat.TEXT, splits=4)
    assert [list(s.values) for s in splits] == [
        [0.0, 4.0], [1.0, 5.0], [2.0, 6.0], [3.0, 7.0]]


def _lines(values) -> list[str]:
    return [repr(v) for v in values.tolist()]


def _line_loop(path):
    """The whole-file line loop the reader must match: each line of the
    file as UTF-8 text, stripped, blank and ``#`` lines skipped, the
    first line that is not a nonnegative finite float named."""
    out = array("d")
    with path.open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            try:
                value = float(text)
            except ValueError:
                raise ValueError(f"{path}: line {lineno}: cannot parse {text!r}") from None
            if not math.isfinite(value):
                raise ValueError(f"non-finite value {value!r} at line {lineno}")
            if value < 0.0:
                raise ValueError(f"negative value {value!r} at line {lineno}; domain is [0, inf)")
            out.append(value)
    if not out:
        raise ValueError(f"{path}: no sample values found")
    return np.frombuffer(out)


@functools.cache
def _text_corpus() -> dict[str, bytes]:
    """Text sample files of every shape the line loop accepts or rejects."""
    values = _lines(tt.sample(Lomax(1.0, 1.0), 100_000, seed=12))
    mixed = []
    for j, line in enumerate(values):
        if j % 997 == 0:
            mixed.append("# comment " + str(j))
        if j % 1009 == 0:
            mixed.append("   " if j % 2 else "")
        mixed.append(line)
    short = values[:50]
    pads = ["\t", " ", "\u00a0", "\u3000", "\u2028", "\x1c"]
    return {
        "clean": ("\n".join(values) + "\n").encode(),
        "no_final_newline": "\n".join(short).encode(),
        "comments_and_blanks": ("\n".join(mixed) + "\n").encode(),
        "crlf": ("\r\n".join(short) + "\r\n").encode(),
        "lone_cr": ("\r".join(short) + "\r").encode(),
        **{f"pad_{ord(c):04x}": "".join(f"{c}{v}{c}\n" for v in short).encode()
           for c in pads},
        "underscores": b"1_000\n2.5\n1_0.2_5\n",
        "non_ascii_digits": "\u0661\u0662\u0663\n\u0967.\u096b\n4.0\n".encode(),
        "inf_nan": b"1.0\ninf\n-Infinity\nnan\n",
        "header_inf": b"# header\n1.0\n\ninf\n",
        "negative": b"1.0\n2.0\n-1.0\n",
        "negative_before_inf": b"1.0\n-2.0\ninf\n",
        "negative_before_bad_literal": b"1.0\n-2.0\n3.0e\n",
        "comment_negative": b"1.0\n# note\n-0.5\n",
        "comment_non_ascii": "1.0\n# caf\u00e9\n2.0\n".encode(),
        "comment_invalid_utf8": b"1.0\n# caf\xe9\n2.0\n",
        "bom": b"\xef\xbb\xbf1.0\n2.0\n",
        "invalid_utf8": b"1.0\n2.0\n\xff\xfe\n3.0\n",
        "empty": b"",
        "comments_only": b"# nothing\n\n# here\n",
        "whitespace_only": b"  \n\t\n",
        "bad_literal": b"1.0\n2.0 3.0\n",
        "bad_line_200001": ("\n".join(values + values) + "\n4.0e\n5.0\n").encode(),
        # Faults only in the last quarter, past the first blocks.
        "late_bad_literal": _late(values, [b"4.0e"]),
        "late_inf": _late(values, [b"inf"]),
        "late_negative": _late(values, [b"-2.5"]),
        "late_comment": _late(values, [b"# note"]),
        "late_blank": _late(values, [b""]),
        "late_comment_negative": _late(values, [b"# note", b"-2.5"]),
        "late_crlf": _late(values, [], b"\r\n"),
        "late_lone_cr": _late(values, [], b"\r"),
        "late_invalid_utf8": _late(values, [b"\xff\xfe"]),
        "long_no_final_newline": "\n".join(values[:2000]).encode(),
        # Lines longer than several of the smaller blocks.
        "long_lines": b"1.0\r\n" + b" " * 300 + b"2.5\r\n" + b"\t" * 200 + b"3.0",
        "long_bad_line": b"1.0\n" + b"9" * 300 + b"x\n2.0\n",
    }


def _late(values, lines: list[bytes], ending: bytes = b"\n") -> bytes:
    """2,000 values, with ``lines`` after the 1,500th and ``ending`` from there on."""
    head = b"".join(v.encode() + b"\n" for v in values[:1500])
    return head + b"".join(line + ending for line in lines + [v.encode() for v in values[1500:2000]])


# The files whose bytes are not UTF-8, by the line that names it: the
# line loop's whole-file decoder could name only an offset into its buffer.
_NOT_UTF8 = {"comment_invalid_utf8": 2, "invalid_utf8": 3, "late_invalid_utf8": 1501}


def _load_error(tmp_path, name) -> str:
    p = tmp_path / f"{name}.txt"
    p.write_bytes(_text_corpus()[name])
    with pytest.raises(ValueError) as exc:
        tt.load_samples(p, FileFormat.TEXT)
    return str(exc.value)


def _parse_result(parse, path):
    try:
        return "values", parse(path).tobytes()
    except Exception as exc:  # the comparison is over the exception's type and text
        return type(exc), str(exc)


def _expected(name, path):
    """What the reader must give for corpus file ``name`` at ``path``."""
    if name in _NOT_UTF8:
        return ValueError, f"{path}: line {_NOT_UTF8[name]}: not UTF-8"
    return _parse_result(_line_loop, path)


# Read sizes that cut a line, and a \r\n, at every byte, then one that
# holds a few lines, then the default, each with the largest corpus file
# read at that size: small reads of a large file take seconds and meet
# no shape the smaller files lack.
_BLOCKS = {1: 4096, 2: 4096, 3: 4096, 7: 4096, 64: 1 << 16, _textlines._BLOCK: math.inf}


@pytest.mark.parametrize("block", _BLOCKS)
def test_parse_text_matches_line_loop(tmp_path, monkeypatch, block):
    # The reader must give the line loop's array bytes, or its exception
    # type and message, on every file, with its blocks cut anywhere.
    monkeypatch.setattr(_textlines, "_BLOCK", block)
    for name, data in _text_corpus().items():
        if len(data) > _BLOCKS[block]:
            continue
        p = tmp_path / f"{name}.txt"
        p.write_bytes(data)
        assert _parse_result(_parse_text, p) == _expected(name, p), name


@pytest.mark.parametrize("block", _BLOCKS)
@pytest.mark.parametrize("name", ["no_final_newline", "crlf", "lone_cr", "late_crlf",
                                  "late_lone_cr", "long_no_final_newline", "long_lines"])
def test_clean_file_never_takes_the_line_loop(tmp_path, monkeypatch, block, name):
    # Wherever a read ends, between \r and \n, after a final \r or inside
    # a long line, each block holds whole lines, and the kernel and the
    # float() map take them all.
    monkeypatch.setattr(_textlines, "_BLOCK", block)
    p = tmp_path / f"{name}.txt"
    p.write_bytes(_text_corpus()[name])
    monkeypatch.setattr(harness, "_read_lines", None)
    assert _parse_text(p).tobytes() == _line_loop(p).tobytes()


def test_parse_text_spends_each_block_before_the_next_read(tmp_path, monkeypatch):
    # A block's buffer and the arrays the kernel returns for it are the
    # stream's own, overwritten by the next read: the reader is done with
    # them by then, so scribbling over them as the next block is asked
    # for changes nothing, on the kernel's path and the odd lines' path.
    monkeypatch.setattr(_textlines, "_BLOCK", 4096)
    lines = _lines(tt.sample(Lomax(1.0, 1.0), 5000, seed=9))
    lines[2500:2500] = ["# comment", "", "\u00a01.5", "2.5e3"]
    p = tmp_path / "spent.txt"
    p.write_text("\n".join(lines) + "\n", encoding="utf-8")
    returned, kernel, read = [], _textlines.Work.values, _textlines.blocks

    def values(self, text, size):
        returned[:] = kernel(self, text, size)
        return tuple(returned)

    def blocks(fd):
        for text, size in read(fd):
            yield text, size
            text[24:24 + size] = b"x" * size
            for array in returned:
                array[...] = 7
    monkeypatch.setattr(_textlines.Work, "values", values)
    monkeypatch.setattr(_textlines, "blocks", blocks)
    assert _parse_text(p).tobytes() == _line_loop(p).tobytes()


def test_parse_text_error_names_late_line(tmp_path):
    p = tmp_path / "late.txt"
    p.write_bytes(_text_corpus()["bad_line_200001"])
    with pytest.raises(ValueError, match=r"line 200001: cannot parse '4\.0e'$"):
        tt.load_samples(p, FileFormat.TEXT)


def test_load_text_non_finite_keeps_message(tmp_path):
    # A bad value is named by its plain float repr and its file line.
    assert _load_error(tmp_path, "inf_nan") == "non-finite value inf at line 2"
    assert _load_error(tmp_path, "header_inf") == "non-finite value inf at line 4"


def test_first_fault_in_file_order_is_named(tmp_path):
    # A negative value before an inf or a bad literal is the fault named;
    # a non-finite value anywhere, or a parse error anywhere, used to win.
    assert _load_error(tmp_path, "negative_before_inf") == \
        "negative value -2.0 at line 2; domain is [0, inf)"
    assert _load_error(tmp_path, "negative_before_bad_literal") == \
        "negative value -2.0 at line 2; domain is [0, inf)"


@pytest.mark.parametrize("name", sorted(_NOT_UTF8))
def test_invalid_utf8_is_named_by_its_line(tmp_path, name):
    assert _load_error(tmp_path, name) == \
        f"{tmp_path / name}.txt: line {_NOT_UTF8[name]}: not UTF-8"


def test_only_comment_and_blank_lines_take_the_line_loop(tmp_path, monkeypatch):
    # A comment every 997 lines and a blank line every 1,009: the line
    # loop reads those lines alone, not the blocks around them.  The
    # values are multiples of 2**-10, which the kernel divides exactly,
    # so it leaves no other line in their blocks.
    values = _lines(np.round(tt.sample(Lomax(1.0, 1.0), 100_000, seed=12) * 1024) / 1024)
    lines = []
    for j, line in enumerate(values):
        lines += [f"# comment {j}"] * (j % 997 == 0) + [""] * (j % 1009 == 0) + [line]
    odd = [line.encode() for line in lines if not line or line.startswith("#")]
    p = tmp_path / "commented.txt"
    p.write_bytes(("\n".join(lines) + "\n").encode())
    looped, read_lines = [], harness._read_lines
    monkeypatch.setattr(harness, "_read_lines", lambda path, lines, numbers: (
        looped.extend(lines) or read_lines(path, lines, numbers)))
    assert _parse_text(p).tobytes() == _line_loop(p).tobytes()
    assert looped == odd and len(odd) == 101 + 100


def test_negative_after_a_comment_is_named_by_its_line(tmp_path, monkeypatch):
    monkeypatch.setattr(_textlines, "_BLOCK", 4096)
    assert _load_error(tmp_path, "comment_negative") == \
        "negative value -0.5 at line 3; domain is [0, inf)"
    assert _load_error(tmp_path, "late_comment_negative") == \
        "negative value -2.5 at line 1502; domain is [0, inf)"


def test_load_raw_f64_names_value_position(tmp_path):
    p = tmp_path / "bad.f64"
    p.write_bytes(struct.pack("<3d", 1.0, 2.0, -1.0))
    with pytest.raises(ValueError) as exc:
        tt.load_samples(p, FileFormat.RAW_F64)
    assert str(exc.value) == "negative value -1.0 at value 3; domain is [0, inf)"


@pytest.mark.parametrize("values, message", [
    ((1.0, -2.0, math.inf), "negative value -2.0 at value 2; domain is [0, inf)"),
    ((1.0, math.nan, -2.0), "non-finite value nan at value 2"),
    ((-math.inf, 2.0), "non-finite value -inf at value 1"),
])
def test_load_raw_f64_names_its_first_bad_value(tmp_path, values, message):
    # One rule for both formats: the first value that is not nonnegative
    # and finite, labelled non-finite or negative.
    p = tmp_path / "bad.f64"
    p.write_bytes(struct.pack(f"<{len(values)}d", *values))
    with pytest.raises(ValueError) as exc:
        tt.load_samples(p, FileFormat.RAW_F64)
    assert str(exc.value) == message


def test_load_text_peak_memory_per_value(tmp_path):
    # The one-pass reader peaks near 12 B/value, with or without a header
    # comment, which only its own block of lines is read twice for.
    n = 200_000
    body = "\n".join(_lines(tt.sample(Lomax(1.0, 1.0), n, seed=4))) + "\n"
    for name, text in (("plain", body), ("commented", "# Lomax(1, 1), seed 4\n" + body)):
        p = tmp_path / f"{name}.txt"
        p.write_text(text)
        [split], peak = _peak_bytes(tt.load_samples, p, FileFormat.TEXT)
        assert split.n == n, name
        assert peak / n <= 20.0, name


def test_an_odd_line_costs_one_block(tmp_path):
    # One NBSP-padded line, which only the line loop can read, goes there
    # with the few other lines of its block the kernel leaves, and no
    # other line does: reading the whole file again line by line peaked
    # at 19.2 B/value.
    n = 200_000
    lines = _lines(tt.sample(Lomax(1.0, 1.0), n, seed=4))
    lines[n // 2] = f"\u00a0{lines[n // 2]}"
    p = tmp_path / "nbsp.txt"
    p.write_text("\n".join(lines) + "\n", encoding="utf-8")
    [split], peak = _peak_bytes(tt.load_samples, p, FileFormat.TEXT)
    assert split.n == n
    assert peak / n <= 15.0


def _sample_file(n: int):
    """The text of n Lomax(1, 1) values at seed 4, streamed from the model."""
    return sample_file_chunks(distributions._sample_chunks(Lomax(1.0, 1.0), n, 4), "text")


@pytest.mark.parametrize("n", [1 << 18, 1 << 20 | 1])
def test_sample_file_chunks_text_peak_memory(n):
    # One chunk of text at a time, streamed from the model: a chunk's
    # 16,384 doubles, the writer's one set of work arrays (1.3 MB) and
    # the text of one block of 8,192 of them, at any n.  The writer's
    # tables and numpy.random, both loaded on first use, are imported
    # before the trace, so that each n measures only the writer, in any
    # order (the first to load them traced 3.4 MB).
    import numpy.random  # noqa: F401
    import tailtest._decimal  # noqa: F401
    _, peak = _peak_bytes(lambda: sum(len(c) for c in _sample_file(n)))
    assert peak <= 4_000_000


def _text(values) -> bytes:
    return ("\n".join(_lines(values)) + "\n").encode("ascii")


def _load_from_a_fifo(tmp_path, data: bytes, fmt):
    p = tmp_path / "fifo"
    os.mkfifo(p)
    feeder = threading.Thread(target=p.write_bytes, args=(data,), daemon=True)
    feeder.start()  # its open blocks until the reader opens the other end
    try:
        return tt.load_samples(p, fmt)
    finally:
        feeder.join(timeout=30)
        assert not feeder.is_alive()
        p.unlink()


def test_clean_text_from_a_fifo_never_takes_the_line_loop(tmp_path, monkeypatch):
    # A stream is read block by block as a file is, and a clean one never
    # by the line loop.
    values = tt.sample(Lomax(1.0, 1.0), 5000, seed=4)
    monkeypatch.setattr(harness, "_read_lines", None)
    [loaded] = _load_from_a_fifo(tmp_path, _text(values), FileFormat.TEXT)
    assert loaded.values.tobytes() == np.sort(values).tobytes()


def test_load_raw_f64_from_a_fifo(tmp_path):
    # A pipe's size reads 0: it is read whole, not refused as empty.
    values = tt.sample(Lomax(1.0, 1.0), 5000, seed=4)
    [loaded] = _load_from_a_fifo(tmp_path, values.astype("<f8").tobytes(), FileFormat.RAW_F64)
    assert loaded.values.tobytes() == np.sort(values).tobytes()
    for data, message in ((b"", "empty file"),
                          (bytes(12), "length 12 is not a multiple of 8 "
                                      "(trailing fragment at offset 8)")):
        with pytest.raises(ValueError) as exc:
            _load_from_a_fifo(tmp_path, data, FileFormat.RAW_F64)
        assert str(exc.value) == f"{tmp_path / 'fifo'}: {message}"


def test_load_raw_f64_from_a_fifo_holds_each_value_once(tmp_path):
    # A stream is read into one array that grows by what each read
    # brings, so it peaks as a file does, near 9 B per value with the
    # sortedness mask.  Reading it whole, then copying it into the array,
    # held every value twice: 16 B.
    n = 1_000_000
    values = tt.sample(Lomax(1.0, 1.0), n, seed=4)
    data = values.astype("<f8").tobytes()
    [split], peak = _peak_bytes(_load_from_a_fifo, tmp_path, data, FileFormat.RAW_F64)
    assert split.values.tobytes() == np.sort(values).tobytes()
    assert peak / n <= 10.0


@pytest.mark.parametrize("name", ["negative", "late_bad_literal"])
def test_bad_text_from_a_fifo_is_named_by_its_line(tmp_path, name):
    # A stream is read as a file is: its message is the file's.
    p = tmp_path / f"{name}.txt"
    p.write_bytes(_text_corpus()[name])
    expected = _parse_result(_line_loop, p)[1].replace(str(p), str(tmp_path / "fifo"))
    with pytest.raises(ValueError) as exc:
        _load_from_a_fifo(tmp_path, p.read_bytes(), FileFormat.TEXT)
    assert str(exc.value) == expected


# ---------------------------------------------------------------------------
# report serialization
# ---------------------------------------------------------------------------

def outcome_with(records):
    cfg = TestConfig(tail=TAIL, bounds=WellBehavedBounds(1, 1, 1, 1 / 32), k=16)
    verdict = Verdict.HEAVY if any(
        not r.degenerate and r.s_hat < r.boundary for r in records) else Verdict.LIGHT
    return TestOutcome(verdict=verdict, records=tuple(records), n=256, seed=3, config=cfg)


def test_json_schema_and_field_order():
    outcome = outcome_with([BucketRecord(2, 0.5, 0.4, 0.1, False)])
    doc = json.loads(serialize_report(outcome))
    assert list(doc) == ["verdict", "k", "n", "alpha", "rho", "beta", "b1", "b2",
                         "seed", "buckets"]
    assert doc["verdict"] == "light"
    assert doc["buckets"][0] == {
        "i": 2, "s_hat": 0.5, "boundary": 0.4, "margin": pytest.approx(0.1),
        "degenerate": False}


def test_json_empty_bucket_list():
    doc = json.loads(serialize_report(outcome_with([])))
    assert doc["buckets"] == []
    for key in ("verdict", "k", "n", "alpha", "rho", "beta", "b1", "b2", "seed"):
        assert key in doc


def test_json_degenerate_bucket_serializes_null():
    outcome = outcome_with([BucketRecord(2, math.inf, 0.4, math.inf, True)])
    doc = json.loads(serialize_report(outcome))
    assert doc["buckets"][0]["s_hat"] is None
    assert doc["buckets"][0]["margin"] is None
    assert doc["buckets"][0]["degenerate"] is True


def test_csv_row_count_for_three_bucket_report():
    rows = tuple(ReplicationRow(i, 0.5, 0.1, 0.6, 1 - i / 16, 0.4) for i in (2, 3, 4))
    text = serialize_report(rows).decode()
    lines = text.strip().split("\n")
    assert len(lines) == 4
    assert lines[0] == "i,s_hat_mean,s_hat_std,proxy_s,threshold,boundary"


def test_serialization_is_byte_stable():
    outcome = outcome_with([BucketRecord(2, 1 / 3, 0.25, 1 / 3 - 0.25, False)])
    assert serialize_report(outcome) == serialize_report(outcome)
    rows = (ReplicationRow(2, 1 / 3, 1 / 7, 0.9, 0.875, 0.25),)
    assert serialize_report(rows) == serialize_report(rows)


def test_proxy_rows_serialize_as_csv():
    rows = tt.proxy_curve(Lomax(1.0, 1.0), 8, TAIL, WellBehavedBounds(1, 1, 1, 1 / 16))
    lines = serialize_report(rows).decode().splitlines()
    assert lines[0] == "i,z,proxy_s,s_tilde,threshold,gap"
    assert [int(line.split(",")[0]) for line in lines[1:]] == [r.i for r in rows]


def test_serialize_rejects_other_types():
    row = ReplicationRow(2, 0.5, 0.1, 0.6, 0.875, 0.4)
    outcomes = (tt.run_sampled_test(Exponential(1.0), 2_000, 3, weak_config(k=8)),) * 2
    proxy_row = tt.ProxyPoint(2, 0.25, 0.75, 0.75, 0.75, 0.0)
    for report in ((), outcomes, [row], (row, proxy_row)):
        with pytest.raises(ValueError, match="cannot serialize"):
            serialize_report(report)


def test_json_round_trip_is_lossless():
    cfg = weak_config(k=16)
    outcome = tt.run_sampled_test(Exponential(1.0), 5_000, 13, cfg)
    doc = json.loads(serialize_report(outcome))
    assert doc["k"] == outcome.config.k and doc["n"] == outcome.n
    assert doc["alpha"] == outcome.config.tail.alpha
    assert doc["rho"] == outcome.config.tail.rho
    for rec, bucket in zip(outcome.records, doc["buckets"]):
        if rec.degenerate:
            assert bucket["s_hat"] is None
        else:
            assert bucket["s_hat"] == rec.s_hat  # repr round-trip is exact
            assert bucket["boundary"] == rec.boundary


def test_csv_floats_carry_full_precision():
    row = ReplicationRow(2, 0.123456789012345, 0.1, 0.6, 0.875, 0.023456789012345)
    text = serialize_report((row,)).decode()
    assert "0.123456789012345" in text
    assert "0.023456789012345" in text
