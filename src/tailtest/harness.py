"""Experiment replication, and every byte format the package reads or writes.

A sampled test (``run_sampled_test``, behind ``replicate``) reads at
most four order statistics per bucket, and draws only those: the
layout's ranks per split go to ``distributions.uniform_order_statistics``,
whose exact uniform order statistics the family's quantile maps, so no
array of n values exists at any point.  They come from their own
stream, so the test at a seed is not the test of ``sample_splits`` or
``sample_single`` at that seed, nor of a ``sample`` file.

``sample_splits`` draws one stream of 4n variates and deals it
round-robin, exactly how ``load_samples`` splits a sample file, so
testing its splits gives the report of testing ``sample``'s file of 4n
values at the same seed.  ``sample_single`` and ``sample_splits`` deal
the raw draws chunk by chunk into one (rows, n) array, sort its rows in
place and map every sorted draw through the quantile in place: every
family's quantile is nondecreasing on the draws, so that gives the
sorted samples and holds each value once.  A sample file's four splits
are the rows of its own array viewed as (n, 4) and transposed, sorted
where they lie.  Every array this module sorts is its own, so it sorts
in place; equal floats are interchangeable, so that gives the bytes of
sorting a copy (see ``SortedSampleSplit.from_samples``).

Sample files: ``sample_file_chunks`` writes them and ``load_samples``
reads them.  Text is written ``distributions._CHUNK`` values at a time
and read in one ``float()`` pass over the lines into an array; a file
that pass cannot read whole (comments, blank lines, a bad literal) is
read again line by line, which gives the same values or names the
offending line.  Either way a negative or non-finite value is named by
its file line.  Raw f64 files are the array's own buffer, read straight
into one array, and a bad value is named by its position.

Reports: ``serialize_report`` writes a TestOutcome as JSON and a
non-empty tuple of ReplicationRow or ProxyPoint rows (what ``replicate``
and ``proxy_curve`` return) as CSV headed by the row type's field names.
"""

from __future__ import annotations

import json
import math
import os
from array import array
from collections.abc import Iterable
from dataclasses import asdict, astuple, dataclass, fields
from enum import Enum
from pathlib import Path

import numpy as np

from .distributions import DistributionModel
from .empirical import OrderStatistics, SortedSampleSplit, ranks_by_split
from .proxy import ProxyPoint, proxy_value
from .tester import (TestConfig, TestOutcome, Variant, run_full_test, run_weak_test,
                     scan_layout)
from . import distributions

__all__ = [
    "FileFormat",
    "ReplicationRow",
    "sample_single",
    "sample_splits",
    "run_sampled_test",
    "replicate",
    "load_samples",
    "serialize_report",
]


class FileFormat(Enum):
    TEXT = "text"
    RAW_F64 = "f64"


@dataclass(frozen=True)
class ReplicationRow:
    i: int
    s_hat_mean: float
    s_hat_std: float
    proxy_s: float
    threshold: float
    boundary: float


# ---------------------------------------------------------------------------
# sampling front ends
# ---------------------------------------------------------------------------

def _sorted_draws(n: int, seed: int, rows: int = 1) -> np.ndarray:
    """The seed's (rows, n) array of raw draws, each row sorted in place.

    They are the generator's own draws, so nothing is checked: a caller
    checks the values it keeps.
    """
    grid = distributions.uniforms(n, seed, rows)
    grid.sort(axis=1)
    return grid


def sample_single(model: DistributionModel, n: int, seed: int) -> SortedSampleSplit:
    """One sorted split of n seeded samples."""
    [row] = _sorted_draws(n, seed)
    return SortedSampleSplit(distributions.transform(model, row))


def sample_splits(model: DistributionModel, n: int, seed: int) -> list[SortedSampleSplit]:
    """Four sorted splits of n samples each, dealt round-robin from one stream."""
    return [SortedSampleSplit(distributions.transform(model, row))
            for row in _sorted_draws(n, seed, 4)]


def run_sampled_test(model: DistributionModel, n: int, seed: int,
                     config: TestConfig) -> TestOutcome:
    """Draw the order statistics the configured variant reads and decide.

    Only the values at the ranks the layout reads are drawn, O(k) per
    split whatever n is.  They are exact uniform order statistics of n
    draws per split, mapped through the quantile as they are: unlike
    ``transform``'s variates they lie on no 2**-53 grid, so they need no
    half-step offset.
    """
    layout, buckets = scan_layout(config)
    ranks = ranks_by_split(layout, n, buckets, config.k)
    splits = [OrderStatistics(n, r, model.quantile(u))
              for r, u in zip(ranks, distributions.uniform_order_statistics(n, ranks, seed))]
    if config.variant is Variant.WEAK:
        return run_weak_test(splits[0], config, seed=seed)
    return run_full_test(splits, config, seed=seed)


def run_replicates(model: DistributionModel, reps: int, n: int, config: TestConfig,
                   base_seed: int) -> tuple[TestOutcome, ...]:
    """Run the configured tester reps times with seeds base_seed + index."""
    if reps < 1:
        raise ValueError("reps must be >= 1")
    return tuple(run_sampled_test(model, n, base_seed + r, config) for r in range(reps))


def replicate(model: DistributionModel, reps: int, n: int, config: TestConfig,
              base_seed: int) -> tuple[ReplicationRow, ...]:
    """Run the configured tester reps times with seeds base_seed + index.

    Per bucket, aggregates mean and sample standard deviation of the
    statistic with degenerate markers left out of the moments, and
    attaches the analytic proxy curve and the mean realized boundary for
    overlay.
    """
    if reps < 2:
        raise ValueError("reps must be >= 2")
    outcomes = run_replicates(model, reps, n, config, base_seed)

    rows = []
    for j, record in enumerate(outcomes[0].records):
        i = record.i
        values = [o.records[j].s_hat for o in outcomes if not o.records[j].degenerate]
        if values:
            mean = float(np.mean(values))
            std = float(np.std(values, ddof=1)) if len(values) > 1 else 0.0
        else:
            mean = math.nan
            std = math.nan
        rows.append(ReplicationRow(
            i=i,
            s_hat_mean=mean,
            s_hat_std=std,
            proxy_s=proxy_value(model, i / config.k),
            threshold=1.0 - i / config.k,
            boundary=float(np.mean([o.records[j].boundary for o in outcomes])),
        ))
    return tuple(rows)


# ---------------------------------------------------------------------------
# sample files
# ---------------------------------------------------------------------------

def sample_file_chunks(values: np.ndarray, fmt: FileFormat | str) -> Iterable:
    """A sample file's bytes in ``fmt``, as bytes-like chunks to write in order.

    RAW_F64 is the values' own little-endian buffer.  Text is one
    shortest round-trip decimal per line, formatted ``_CHUNK`` values at
    a time, so neither a string per value nor the whole text is held at
    once.
    """
    if FileFormat(fmt) is FileFormat.RAW_F64:
        return [np.ascontiguousarray(values, dtype="<f8")]
    values, step = np.asarray(values, dtype=float), distributions._CHUNK
    return (("\n".join(map(repr, values[i:i + step].tolist())) + "\n").encode("ascii")
            for i in range(0, values.size, step))


def _reject_bad_values(arr: np.ndarray, where: str, numbers=None) -> None:
    """Raise on the first non-finite value, else on the first negative one.

    The message names value j as ``where`` number ``numbers[j]``, or
    j + 1 when no numbers are given.  Clean data costs two reductions
    and no temporary array: NaN fails both comparisons.
    """
    if arr.min() >= 0.0 and arr.max() < math.inf:
        return
    for what, bad, note in (("non-finite", ~np.isfinite(arr), ""),
                            ("negative", arr < 0.0, "; domain is [0, inf)")):
        if np.any(bad):
            pos = int(np.argmax(bad))
            at = pos + 1 if numbers is None else numbers[pos]
            raise ValueError(f"{what} value {float(arr[pos])!r} at {where} {at}{note}")


def _parse_text(path: Path) -> np.ndarray:
    """Read a text sample file: one C-level ``float()`` pass, else the line loop.

    Wherever ``float(line)`` succeeds on every line, the loop would give
    the same values: ``float`` strips a subset of what ``str.strip``
    strips (not U+001C..U+001F), and a line it accepts is neither blank
    nor a comment.  Any failure (a comment, a blank line, a bad literal,
    undecodable bytes) or an empty file re-reads the file line by line,
    which returns the values or raises the line-numbered message.
    Negative and non-finite values are rejected by file line, with the
    same message on either path.
    """
    try:
        with path.open("r", encoding="utf-8") as fh:
            arr = np.fromiter(map(float, fh), dtype=float)
    except ValueError:
        arr = np.empty(0)
    if not arr.size:
        return _parse_text_lines(path)
    _reject_bad_values(arr, "line")  # no line was skipped: value j is on line j + 1
    return arr


def _parse_text_lines(path: Path) -> np.ndarray:
    out, linenos = array("d"), array("q")  # machine values, not Python objects
    with path.open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            try:
                out.append(float(text))
            except ValueError:
                raise ValueError(f"{path}: line {lineno}: cannot parse {text!r}") from None
            linenos.append(lineno)
    if not out:
        raise ValueError(f"{path}: no sample values found")
    arr = np.frombuffer(out, dtype=float)  # writable: the array's own buffer
    _reject_bad_values(arr, "line", linenos)
    return arr


def _parse_raw_f64(path: Path) -> np.ndarray:
    """Read a raw file, sized by its length on disk, into one writable array."""
    with path.open("rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if size == 0:
            raise ValueError(f"{path}: empty file")
        if size % 8 != 0:
            raise ValueError(
                f"{path}: length {size} is not a multiple of 8 "
                f"(trailing fragment at offset {size - size % 8})"
            )
        arr = np.empty(size // 8, dtype="<f8")
        if fh.readinto(arr) != size:
            raise ValueError(f"{path}: file changed size while being read")
    arr = arr.astype(float, copy=False)
    _reject_bad_values(arr, "value")
    return arr


def load_samples(path, fmt: FileFormat | str = FileFormat.TEXT, split: bool = False):
    """Load a sample file into sorted split(s).

    ``fmt`` is a FileFormat or its value ("text" or "f64").  Text files
    hold one decimal literal per line; '#' comment lines and blank lines
    are skipped.  RAW_F64 is packed little-endian IEEE-754.  Negative
    and non-finite values are rejected.  With ``split=True``
    the values are dealt round-robin on input order into four splits
    before sorting - fine for i.i.d. data, a deliberate warning sign
    for time-ordered data - and their count must be a multiple of 4.
    """
    path = Path(path)
    arr = _parse_text(path) if FileFormat(fmt) is FileFormat.TEXT else _parse_raw_f64(path)
    if not split:
        arr.sort()
        return SortedSampleSplit(arr)
    if arr.size < 4:
        raise ValueError(f"{path}: need at least 4 values to build four splits")
    if arr.size % 4:
        raise ValueError("all four splits must hold the same number of samples")
    # Row j of the transposed (n, 4) view is every fourth value from j:
    # the round-robin deal, sorted where the values lie through one
    # row-sized buffer, on this thread so that only one is alive.
    rows = arr.reshape(-1, 4).T
    rows.sort(axis=1)
    return [SortedSampleSplit(row) for row in rows]


# ---------------------------------------------------------------------------
# report serialization
# ---------------------------------------------------------------------------

def _outcome_json(outcome: TestOutcome) -> dict:
    cfg = outcome.config
    buckets = [asdict(r) for r in outcome.records]  # BucketRecord's fields, in order
    for bucket in buckets:
        if bucket["degenerate"]:  # s_hat and margin are inf, which JSON cannot hold
            bucket.update(s_hat=None, margin=None)
    return {
        "verdict": outcome.verdict.value,
        "k": cfg.k,
        "n": outcome.n,
        "alpha": cfg.tail.alpha,
        "rho": cfg.tail.rho,
        "beta": cfg.bounds.beta,
        "b1": cfg.bounds.b1,
        "b2": cfg.bounds.b2,
        "seed": outcome.seed,
        "buckets": buckets,
    }


def serialize_report(report) -> bytes:
    """Stable bytes of a report: a TestOutcome as JSON, rows as CSV.

    Outcome JSON follows the fixed report schema.  A non-empty tuple of
    ReplicationRow or of ProxyPoint rows becomes CSV headed by the row
    type's field names: per row its integer index, then its values as
    shortest round-trip decimals (>= 12 significant digits where needed).
    """
    if isinstance(report, TestOutcome):
        text = json.dumps(_outcome_json(report), indent=2, allow_nan=False)
        return (text + "\n").encode("utf-8")
    if isinstance(report, tuple) and {type(r) for r in report} in ({ReplicationRow}, {ProxyPoint}):
        lines = [",".join(f.name for f in fields(report[0]))]
        lines += [",".join([str(r[0]), *(repr(float(v)) for v in r[1:])])
                  for r in map(astuple, report)]
        return ("\n".join(lines) + "\n").encode("utf-8")
    raise ValueError(f"cannot serialize {type(report).__name__}")
