import functools
import json
import math
import os
import struct
import sys
import threading
import tracemalloc

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
from tailtest import distributions
from tailtest.distributions import _CHUNK, _PER_WORKER, on_workers
from tailtest.harness import (
    ReplicationRow,
    _parse_text,
    _parse_text_lines,
    _sorted_draws,
    run_replicates,
    sample_file_chunks,
    serialize_report,
)
from tailtest.tester import BucketRecord, TestOutcome

TAIL = TailParams(0.25, 0.5)


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


def test_replicate_seed_hygiene():
    a = tt.sample(Exponential(1.0), 100, seed=9)
    b = tt.sample(Exponential(1.0), 100, seed=10)
    assert not np.any(a == b)


# ---------------------------------------------------------------------------
# dealing
# ---------------------------------------------------------------------------

# Four-split sizes whose 4n ends mid-chunk (3 * 16384 + 5) or inside the
# first chunk (100).
@pytest.mark.parametrize("n", [3 * (_CHUNK // 4) + 5, 100])
def test_sample_splits_match_strided_stable_sort(n):
    model = Lomax(1.0, 1.0)
    stream = tt.sample(model, 4 * n, seed=6)
    splits = tt.sample_splits(model, n, seed=6)
    for j, split in enumerate(splits):
        assert split.values.tobytes() == np.sort(stream[j::4], kind="stable").tobytes()


@pytest.mark.parametrize("rows", [1, 4])
def test_deal_whole_column_chunks_of_any_size(monkeypatch, rows):
    # uniforms draws whole columns a chunk at a time; chunks of 1 to 1000
    # columns, none of the sampler's size, and a chunk smaller than a
    # column, which is drawn as one column, all deal the one stream.
    gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(8)))
    stream = gen.random(rows * 2000)
    for chunk in sorted({1, rows, 2 * rows, 3 * rows, 7 * rows, 13 * rows, 1000 * rows}):
        monkeypatch.setattr(distributions, "_CHUNK", chunk)
        grid = distributions.uniforms(2000, 8, rows)
        for j in range(rows):
            assert grid[j].tobytes() == stream[j::rows].tobytes()


def _cores(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


def test_on_workers_takes_a_core_per_floor_of_values(monkeypatch):
    def blocks(size, values):
        seen = []
        on_workers(lambda a, b: seen.append((a, b, threading.get_ident() == caller)),
                   size, values)
        return sorted(seen)

    caller = threading.get_ident()
    _cores(monkeypatch, 2)
    assert blocks(10, 2 * _PER_WORKER - 1) == [(0, 10, True)]
    assert blocks(10, 2 * _PER_WORKER) == [(0, 5, True), (5, 10, False)]
    assert blocks(10, 9 * _PER_WORKER) == [(0, 5, True), (5, 10, False)]
    _cores(monkeypatch, 8)
    assert blocks(3, 9 * _PER_WORKER) == [(0, 1, True), (1, 2, False), (2, 3, False)]


def test_more_workers_than_cores_fill_every_block(monkeypatch):
    # Eight threads on blocks of a few values each, switching every
    # microsecond: a lost or misplaced block breaks the equalities.
    monkeypatch.setattr(distributions, "_PER_WORKER", 1)
    _cores(monkeypatch, 8)
    baseline, interval = threading.active_count(), sys.getswitchinterval()
    gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(3)))
    stream = gen.random(8 * 5000).reshape(5000, 8).T
    expected = np.sort(stream, axis=1)
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            assert distributions.uniforms(5000, 3, 8).tobytes() == stream.tobytes()
            assert _sorted_draws(5000, 3, 8).tobytes() == expected.tobytes()
    finally:
        sys.setswitchinterval(interval)
    assert threading.active_count() == baseline


@pytest.mark.parametrize("bad,message", [(math.nan, "values must all be finite"),
                                         (-1.0, "values must be nonnegative")])
def test_worker_failure_reaches_the_caller(monkeypatch, bad, message):
    # Rows 2 and 3 of a (4, n) grid above the floor are wrapped, and their
    # values checked, on the second thread; its error is raised here once
    # every thread has joined.
    _cores(monkeypatch, 2)
    baseline, caller = threading.active_count(), threading.get_ident()
    grid = np.sort(np.random.default_rng(1).random((4, _PER_WORKER // 2)), axis=1)
    grid[3, 0] = bad  # first, so the row stays sorted
    checked = []

    def check(r0, r1):
        checked.extend((r, threading.get_ident() == caller) for r in range(r0, r1))
        for row in grid[r0:r1]:
            SortedSampleSplit(row)

    with pytest.raises(ValueError, match=message):
        on_workers(check, len(grid), grid.size)
    assert threading.active_count() == baseline
    assert sorted(checked) == [(0, True), (1, True), (2, False), (3, False)]


def test_caller_failure_wins_over_a_worker_failure(monkeypatch):
    # Both blocks fail; the worker's error is dropped for this thread's,
    # and only after the worker has joined.
    _cores(monkeypatch, 2)
    baseline, caller = threading.active_count(), threading.get_ident()
    done = []

    def block(start, stop):
        done.append((start, stop))
        if threading.get_ident() != caller:
            raise ValueError(f"worker block [{start}, {stop}) failed")
        raise RuntimeError("caller block failed")

    with pytest.raises(RuntimeError, match="caller block"):
        on_workers(block, 4, 2 * _PER_WORKER)
    assert threading.active_count() == baseline
    assert sorted(done) == [(0, 2), (2, 4)]


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


def test_sample_splits_peak_memory_per_value():
    # The (4, n) array holds each drawn value once (8 B); the chunk
    # buffer and the quantile's temporaries are chunk-sized.  Sorting
    # copies of the splits beside the whole stream took 16.25 B.
    n = 250_000
    splits, peak = _peak_bytes(tt.sample_splits, Lomax(1.0, 1.0), n, 5)
    assert [s.n for s in splits] == [n] * 4
    assert peak / (4 * n) <= 10.0


def test_sample_splits_peak_memory_per_value_on_two_workers(monkeypatch):
    # Above the floor each thread holds its own chunk buffer; the mapped
    # rows are checked one at a time on this thread.
    _cores(monkeypatch, 2)
    n = 300_000
    splits, peak = _peak_bytes(tt.sample_splits, Lomax(1.0, 1.0), n, 5)
    assert [s.n for s in splits] == [n] * 4
    assert peak / (4 * n) <= 10.0


def test_sample_single_peak_memory_per_value():
    # Sorting the drawn array in place adds nothing; a sorted copy took 17 B.
    n = 1_000_000
    split, peak = _peak_bytes(tt.sample_single, Lomax(1.0, 1.0), n, 5)
    assert split.n == n
    assert peak / n <= 10.0


@pytest.mark.parametrize("model", [Exponential(1.0), Lomax(2.0, 0.5), tt.HalfGaussian(1.0),
                                   tt.StretchedExponential(1.0, 0.5)], ids=repr)
@pytest.mark.parametrize("variant", list(Variant))
def test_sampled_test_reads_the_sorted_samples(model, variant):
    # Mapping only the order statistics the test reads must give the
    # report of testing every sample, sorted.
    config = config_for(variant, 16)
    for n, seed in ((300, 1), (20_000, 2)):
        if variant is Variant.FULL:
            expected = tt.run_full_test(tt.sample_splits(model, n, seed), config, seed=seed)
        else:
            expected = tt.run_weak_test(tt.sample_single(model, n, seed), config, seed=seed)
        got = tt.run_sampled_test(model, n, seed, config)
        assert serialize_report(got) == serialize_report(expected)


@pytest.mark.parametrize("variant", list(Variant))
def test_sampled_test_maps_only_what_it_reads(monkeypatch, variant):
    # The quantile sees at most the four endpoints of each scanned bucket,
    # and only once no n-sized array is alive.
    n = 400_000
    seen, alive = [], []
    quantile = Lomax.quantile

    def counted(self, u):
        seen.append(np.size(u))
        alive.append(tracemalloc.get_traced_memory()[0] - base)
        return quantile(self, u)

    monkeypatch.setattr(Lomax, "quantile", counted)
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        outcome = tt.run_sampled_test(Lomax(1.0, 1.0), n, 4, config_for(variant, 16))
    finally:
        tracemalloc.stop()
    assert 0 < sum(seen) <= 4 * len(outcome.records)
    assert max(alive) < 4 * n


# Above 8 B per drawn value and a chunk buffer per thread, a sampled test
# holds only the ranks, the gathered draws and the Python objects around
# them: 3 to 8 KiB measured, under this slack.  Checking each sorted row
# of draws took an n-byte mask per row (up to 1 B per drawn value).
_SLACK = 16 << 10


def _sampled_test_peak(variant, n):
    """Peak bytes of a sampled test past 8 B per drawn value, after a warm-up
    call has run the imports the first draw makes."""
    model, config = Lomax(1.0, 1.0), config_for(variant, 16)
    tt.run_sampled_test(model, 1000, 5, config)
    outcome, peak = _peak_bytes(tt.run_sampled_test, model, n, 5, config)
    assert outcome.n == n
    return peak - 8 * (n if variant is Variant.WEAK else 4 * n)


@pytest.mark.parametrize("variant", list(Variant))
def test_sampled_test_peak_memory_per_value(variant):
    # The sorted draws and one chunk buffer; the quantile runs on a
    # handful of values after they are gone.
    n = 1_000_000 if variant is Variant.WEAK else 250_000
    assert _sampled_test_peak(variant, n) <= 8 * _CHUNK + _SLACK


@pytest.mark.parametrize("variant", list(Variant))
def test_sampled_test_peak_memory_per_value_on_two_workers(monkeypatch, variant):
    _cores(monkeypatch, 2)
    n = 1_200_000 if variant is Variant.WEAK else 300_000
    assert _sampled_test_peak(variant, n) <= 2 * 8 * _CHUNK + _SLACK


@pytest.mark.parametrize("variant", list(Variant))
@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_sampled_test_matches_one_stream_at_the_worker_floor(monkeypatch, variant, offset):
    # Just below 2 * _PER_WORKER draws one thread draws and sorts; at and
    # above it, two.  The oracle draws the whole stream at once, deals it
    # by slicing and sorts mapped copies.
    _cores(monkeypatch, 2)
    model, seed, config = Lomax(1.0, 1.0), 9, config_for(variant, 16)
    rows = 1 if variant is Variant.WEAK else 4
    n = 2 * _PER_WORKER // rows + offset
    gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    stream = gen.random(rows * n)
    splits = [tt.SortedSampleSplit.from_samples(distributions.transform(model, stream[j::rows]))
              for j in range(rows)]
    if variant is Variant.WEAK:
        expected = tt.run_weak_test(splits[0], config, seed=seed)
    else:
        expected = tt.run_full_test(splits, config, seed=seed)
    got = tt.run_sampled_test(model, n, seed, config)
    assert serialize_report(got) == serialize_report(expected)


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
        assert np.array_equal(tt.load_samples(p, fmt).values, [1.0, 2.5])


def test_load_text_rejects_negative(tmp_path):
    # Named by file line, by the one-pass reader and by the line loop alike.
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
        assert np.array_equal(tt.load_samples(p, fmt).values, [1.0, 3.0])


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


def test_load_raw_peak_memory_per_value(tmp_path):
    # The file is read straight into the array it is sorted in: 8 B per
    # value.  Viewing the file's bytes and sorting a copy took about 17 B.
    n = 1_000_000
    p = tmp_path / "big.f64"
    values = tt.sample(Lomax(1.0, 1.0), n, seed=4)
    p.write_bytes(values.astype("<f8").tobytes())
    split, peak = _peak_bytes(tt.load_samples, p, FileFormat.RAW_F64)
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
    _, whole = _peak_bytes(tt.load_samples, p, FileFormat.RAW_F64, False)
    splits, dealt = _peak_bytes(tt.load_samples, p, FileFormat.RAW_F64, True)
    for j, split in enumerate(splits):
        assert split.values.tobytes() == np.sort(values[j::4]).tobytes()
    assert (dealt - whole) / n <= 1.5


def test_load_split_sorts_strided_rows_on_one_thread(monkeypatch, tmp_path):
    # Above the floor a second thread would hold a second row buffer.
    _cores(monkeypatch, 2)
    n = 1_200_000
    p = tmp_path / "big.f64"
    p.write_bytes(tt.sample(Lomax(1.0, 1.0), n, seed=4).astype("<f8").tobytes())
    _, whole = _peak_bytes(tt.load_samples, p, FileFormat.RAW_F64, False)
    _, dealt = _peak_bytes(tt.load_samples, p, FileFormat.RAW_F64, True)
    assert (dealt - whole) / n <= 1.5


@pytest.mark.parametrize("count", [5, 6, 7, 4 * 1000 + 3])
def test_load_split_refuses_uneven_count(tmp_path, count):
    # The benchmark's file workload matches this exact message.
    p = tmp_path / "uneven.txt"
    p.write_text("".join(f"{v}.5\n" for v in range(count)))
    with pytest.raises(ValueError) as exc:
        tt.load_samples(p, FileFormat.TEXT, split=True)
    assert str(exc.value) == "all four splits must hold the same number of samples"


def test_load_preserves_multiset(tmp_path):
    values = tt.sample(Lomax(1.0, 1.0), 1001, seed=2)
    p = tmp_path / "all.txt"
    p.write_text("\n".join(repr(float(v)) for v in values) + "\n")
    split = tt.load_samples(p, FileFormat.TEXT)
    assert np.array_equal(split.values, np.sort(values))


def test_load_round_robin_split(tmp_path):
    p = tmp_path / "seq.txt"
    p.write_text("\n".join(str(float(v)) for v in range(8)) + "\n")
    splits = tt.load_samples(p, FileFormat.TEXT, split=True)
    assert [list(s.values) for s in splits] == [
        [0.0, 4.0], [1.0, 5.0], [2.0, 6.0], [3.0, 7.0]]


def _lines(values) -> list[str]:
    return [repr(v) for v in values.tolist()]


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
        "comment_negative": b"1.0\n# note\n-0.5\n",
        "bom": b"\xef\xbb\xbf1.0\n2.0\n",
        "invalid_utf8": b"1.0\n2.0\n\xff\xfe\n3.0\n",
        "empty": b"",
        "comments_only": b"# nothing\n\n# here\n",
        "whitespace_only": b"  \n\t\n",
        "bad_literal": b"1.0\n2.0 3.0\n",
        "bad_line_200001": ("\n".join(values + values) + "\n4.0e\n5.0\n").encode(),
    }


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


def test_parse_text_matches_line_loop(tmp_path):
    # The one-pass reader must give the line loop's array bytes, or its
    # exception type and message, on every file.
    for name, data in _text_corpus().items():
        p = tmp_path / f"{name}.txt"
        p.write_bytes(data)
        assert _parse_result(_parse_text, p) == _parse_result(_parse_text_lines, p), name


def test_parse_text_error_names_late_line(tmp_path):
    p = tmp_path / "late.txt"
    p.write_bytes(_text_corpus()["bad_line_200001"])
    with pytest.raises(ValueError, match=r"line 200001: cannot parse '4\.0e'$"):
        tt.load_samples(p, FileFormat.TEXT)


def test_load_text_non_finite_keeps_message(tmp_path):
    # A bad value is named by its plain float repr and its file line,
    # whether the one-pass reader or the line loop took the file.
    assert _load_error(tmp_path, "inf_nan") == "non-finite value inf at line 2"
    assert _load_error(tmp_path, "header_inf") == "non-finite value inf at line 4"


def test_load_raw_f64_names_value_position(tmp_path):
    p = tmp_path / "bad.f64"
    p.write_bytes(struct.pack("<3d", 1.0, 2.0, -1.0))
    with pytest.raises(ValueError) as exc:
        tt.load_samples(p, FileFormat.RAW_F64)
    assert str(exc.value) == "negative value -1.0 at value 3; domain is [0, inf)"


def test_load_text_peak_memory_per_value(tmp_path):
    # The one-pass reader peaks near 12 B/value.  A header comment sends the
    # file to the line loop: near 17 B/value with a machine double and line
    # number per value, about 49 B/value with a list of Python floats.
    n = 200_000
    body = "\n".join(_lines(tt.sample(Lomax(1.0, 1.0), n, seed=4))) + "\n"
    for name, text in (("plain", body), ("commented", "# Lomax(1, 1), seed 4\n" + body)):
        p = tmp_path / f"{name}.txt"
        p.write_text(text)
        split, peak = _peak_bytes(tt.load_samples, p, FileFormat.TEXT)
        assert split.n == n, name
        assert peak / n <= 20.0, name


def test_sample_file_chunks_text_peak_memory():
    # One chunk of text at a time: its floats, their strings and the
    # joined line block, about 2 MB for a 16,384-value chunk.
    values = tt.sample(Lomax(1.0, 1.0), 1_000_001, seed=4)
    _, peak = _peak_bytes(lambda: sum(len(c) for c in sample_file_chunks(values, "text")))
    assert peak <= 4_000_000


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
    outcomes = run_replicates(Exponential(1.0), 2, 2_000, weak_config(k=8), 3)
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
