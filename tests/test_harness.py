import functools
import json
import math
import struct
import tracemalloc

import numpy as np
import pytest

import tailtest as tt
from tailtest import (
    Exponential,
    FileFormat,
    Lomax,
    TailParams,
    TestConfig,
    Variant,
    Verdict,
    WellBehavedBounds,
)
from tailtest.distributions import _CHUNK
from tailtest.harness import (
    ReplicationRow,
    _deal,
    _parse_text,
    _parse_text_lines,
    serialize_report,
)
from tailtest.tester import BucketRecord, TestOutcome

TAIL = TailParams(0.25, 0.5)


def weak_config(k=32):
    return TestConfig(tail=TAIL, bounds=WellBehavedBounds(1, 1, 1, 1 / (2 * k)),
                      k=k, variant=Variant.WEAK)


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
    report = tt.replicate(Exponential(1.0), 10, 200_000, cfg, base_seed=11)
    mid = [r for r in report.rows if 0.2 <= r.i / cfg.k <= 0.6]
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
    report = tt.replicate(model, 10, 200_000, cfg, base_seed=11)
    assert any(row.s_hat_mean < row.boundary for row in report.rows)


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


def test_deal_any_chunk_boundaries():
    # Chunks of every size mod 4, so no split's first offset is assumed.
    stream = np.round(tt.sample(Lomax(1.0, 1.0), 4 * 1000, seed=8), 2)
    cuts = np.cumsum([1, 2, 3, 5, 6, 7, 9, 13, 1000, 1, 2001])
    chunks = np.split(stream, cuts)
    assert sum(c.size for c in chunks) == stream.size and chunks[-1].size > 0
    splits = _deal(chunks, 1000)
    for j, split in enumerate(splits):
        assert split.values.tobytes() == np.sort(stream[j::4], kind="stable").tobytes()


def test_deal_refuses_a_stream_of_the_wrong_length():
    with pytest.raises(ValueError, match="dealt 7 values into four splits of 2"):
        _deal([np.ones(7)], 2)


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


def test_sample_single_peak_memory_per_value():
    # Sorting the drawn array in place adds nothing; a sorted copy took 17 B.
    n = 1_000_000
    split, peak = _peak_bytes(tt.sample_single, Lomax(1.0, 1.0), n, 5)
    assert split.n == n
    assert peak / n <= 10.0


def test_replicate_requires_two_reps():
    with pytest.raises(ValueError):
        tt.replicate(Exponential(1.0), 1, 1000, weak_config(), base_seed=0)


# ---------------------------------------------------------------------------
# file ingestion
# ---------------------------------------------------------------------------

def test_load_text_with_comments(tmp_path):
    p = tmp_path / "samples.txt"
    p.write_text("1.0\n# a comment\n\n2.5\n")
    split = tt.load_samples(p, FileFormat.TEXT)
    assert np.array_equal(split.values, [1.0, 2.5])


def test_load_text_rejects_negative(tmp_path):
    # Named by file line, by the one-pass reader and by the line loop alike.
    assert _load_error(tmp_path, "negative") == \
        "negative value -1.0 at line 3; domain is [0, inf)"
    assert _load_error(tmp_path, "comment_negative") == \
        "negative value -0.5 at line 3; domain is [0, inf)"


def test_load_text_parse_error_carries_line(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("1.0\nnot-a-number\n")
    with pytest.raises(ValueError, match="line 2"):
        tt.load_samples(p, FileFormat.TEXT)


def test_load_raw_f64_sorts(tmp_path):
    p = tmp_path / "two.f64"
    p.write_bytes(struct.pack("<2d", 3.0, 1.0))
    split = tt.load_samples(p, FileFormat.RAW_F64)
    assert np.array_equal(split.values, [1.0, 3.0])


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
    # The line loop held a list of Python floats: about 40 B/value at
    # peak.  Reading into the array directly, which grows as it reads,
    # and sorting it in place peaks near 12 B/value.
    n = 200_000
    p = tmp_path / "big.txt"
    p.write_text("\n".join(_lines(tt.sample(Lomax(1.0, 1.0), n, seed=4))) + "\n")
    split, peak = _peak_bytes(tt.load_samples, p, FileFormat.TEXT)
    assert split.n == n
    assert peak / n <= 20.0


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


def report_with(rows):
    return tt.ReplicationReport(rows=tuple(rows))


def test_csv_row_count_for_three_bucket_report():
    rows = [ReplicationRow(i, 0.5, 0.1, 0.6, 1 - i / 16, 0.4) for i in (2, 3, 4)]
    text = serialize_report(report_with(rows)).decode()
    lines = text.strip().split("\n")
    assert len(lines) == 4
    assert lines[0] == "i,s_hat_mean,s_hat_std,proxy_s,threshold,boundary"


def test_serialization_is_byte_stable():
    outcome = outcome_with([BucketRecord(2, 1 / 3, 0.25, 1 / 3 - 0.25, False)])
    assert serialize_report(outcome) == serialize_report(outcome)
    report = report_with([ReplicationRow(2, 1 / 3, 1 / 7, 0.9, 0.875, 0.25)])
    assert serialize_report(report) == serialize_report(report)


def test_serialize_rejects_other_types():
    with pytest.raises(ValueError):
        serialize_report(outcome_with([]).records)


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
    text = serialize_report(report_with([row])).decode()
    assert "0.123456789012345" in text
    assert "0.023456789012345" in text
