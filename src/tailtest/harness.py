"""Experiment replication, sample-file ingestion, and report serialization.

Sampling for the four-split test draws one stream of 4n variates and
deals them round-robin, exactly how a sample file is split on
ingestion, so piping a file through ``load_samples`` and testing it
gives the same verdict as testing the seeded stream directly.  Both
variants draw through one path: the raw draws are dealt chunk by chunk
into one (rows, n) array whose rows are sorted in place, so each drawn
value is held once.  A large array is drawn and sorted on one thread
per core (``distributions.on_workers``), a file's strided rows on the
calling thread.  Every family's quantile is nondecreasing on the draws,
so the value at rank r of a sorted split is the quantile of the draw at
rank r.  Sorted draws are the generator's own, so they are not checked;
a split is built, and its values checked, only where values are kept.
``sample_single`` and ``sample_splits`` map every sorted draw in place
and wrap each row; ``run_sampled_test`` gathers the draws at the ranks
its layout reads, at most four per bucket, and maps only those after
the array is freed.  A sample file's four splits are the rows of its
own array viewed as (n, 4) and transposed, sorted where they lie.
Every array this module sorts is its own, so it sorts in place; equal
floats are interchangeable, so that gives the bytes of sorting a copy
(see ``SortedSampleSplit.from_samples``).

Text sample files are read in one ``float()`` pass over the lines into
an array; a file that pass cannot read whole (comments, blank lines, a
bad literal) is read again line by line, which gives the same values or
names the offending line.  Either way a negative or non-finite value is
named by its file line.  Raw f64 files are read straight into one
array, and a bad value is named by its position.

Each report type has one format: ``serialize_report`` writes a
TestOutcome as JSON and a ReplicationReport as CSV.  ``csv_bytes`` is
the one CSV writer, headed by the row dataclass's field names; the
CLI's proxy table of ProxyPoint rows goes through it too.
"""

from __future__ import annotations

import json
import math
import os
from array import array
from dataclasses import astuple, dataclass, fields
from enum import Enum
from pathlib import Path

import numpy as np

from .distributions import DistributionModel
from .empirical import OrderStatistics, SortedSampleSplit, ranks_by_split
from .proxy import proxy_value
from .tester import (TestConfig, TestOutcome, Variant, run_full_test, run_weak_test,
                     scan_layout)
from . import distributions

__all__ = [
    "FileFormat",
    "ReplicationRow",
    "ReplicationReport",
    "sample_single",
    "sample_splits",
    "run_sampled_test",
    "replicate",
    "load_samples",
    "csv_bytes",
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


@dataclass(frozen=True)
class ReplicationReport:
    rows: tuple[ReplicationRow, ...]


# ---------------------------------------------------------------------------
# sampling front ends
# ---------------------------------------------------------------------------

def _sorted_draws(n: int, seed: int, rows: int = 1) -> np.ndarray:
    """The seed's (rows, n) array of raw draws, each row sorted in place.

    The rows are sorted on ``distributions.on_workers``, a block of rows
    per thread.  They are the generator's own draws, so nothing is
    checked: a caller checks the values it keeps.
    """
    grid = distributions.uniforms(n, seed, rows)
    distributions.on_workers(lambda r0, r1: grid[r0:r1].sort(axis=1), rows, grid.size)
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
    """Draw per the configured variant and run the decision procedure.

    The raw draws are sorted before any quantile, and only those at the
    ranks the layout reads are mapped, once no n-sized array is alive.
    The variate map and the quantile are nondecreasing, so these are the
    order statistics of the sorted samples, bit for bit.
    """
    layout, buckets = scan_layout(config)
    ranks = ranks_by_split(layout, n, buckets, config.k)
    grid = _sorted_draws(n, seed, len(ranks))
    gathered = [row[r - 1] for row, r in zip(grid, ranks)]
    del grid  # frees the (len(ranks), n) array of draws
    splits = [OrderStatistics(n, r, distributions.transform(model, u))
              for r, u in zip(ranks, gathered)]
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
              base_seed: int) -> ReplicationReport:
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
    return ReplicationReport(rows=tuple(rows))


# ---------------------------------------------------------------------------
# file ingestion
# ---------------------------------------------------------------------------

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
    out, linenos = [], array("q")  # a machine int per value, not an int object
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
    arr = np.asarray(out, dtype=float)
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


def load_samples(path, fmt: FileFormat = FileFormat.TEXT, split: bool = False):
    """Load a sample file into sorted split(s).

    Text files hold one decimal literal per line; '#' comment lines and
    blank lines are skipped.  RAW_F64 is packed little-endian IEEE-754.
    Negative and non-finite values are rejected.  With ``split=True``
    the values are dealt round-robin on input order into four splits
    before sorting - fine for i.i.d. data, a deliberate warning sign
    for time-ordered data - and their count must be a multiple of 4.
    """
    path = Path(path)
    arr = _parse_text(path) if fmt is FileFormat.TEXT else _parse_raw_f64(path)
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
    buckets = []
    for r in outcome.records:
        buckets.append({
            "i": r.i,
            "s_hat": None if r.degenerate else r.s_hat,
            "boundary": r.boundary,
            "margin": None if r.degenerate else r.margin,
            "degenerate": r.degenerate,
        })
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


def csv_bytes(rows) -> bytes:
    """CSV of dataclass rows headed by their field names: per row its integer
    index, then its values as shortest round-trip decimals (>= 12 significant
    digits where needed)."""
    lines = [",".join(f.name for f in fields(rows[0]))]
    lines += [",".join([str(r[0]), *(repr(float(v)) for v in r[1:])]) for r in map(astuple, rows)]
    return ("\n".join(lines) + "\n").encode("utf-8")


def serialize_report(report) -> bytes:
    """Stable bytes of a TestOutcome as JSON or a ReplicationReport as CSV.

    Outcome JSON follows the fixed report schema; the replication CSV
    columns are ReplicationRow's fields.
    """
    if isinstance(report, TestOutcome):
        text = json.dumps(_outcome_json(report), indent=2, allow_nan=False)
        return (text + "\n").encode("utf-8")
    if isinstance(report, ReplicationReport):
        return csv_bytes(report.rows)
    raise ValueError(f"cannot serialize {type(report).__name__}")
