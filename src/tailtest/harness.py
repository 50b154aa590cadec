"""Experiment replication, and every byte format the package reads or writes.

A sampled test draws only the order statistics it reads, so no array
of n values exists.  ``run_sampled_test`` and ``replicate`` are one
path over seeds base_seed + r: the ranks and the boundary depend on
(config, n) alone and are computed once per call (``tester._plan``);
each seed's grid of exact uniform order statistics is one
``distributions.uniform_order_statistics`` call, from its own stream
(so not the test of a ``sample`` file at that seed), and one quantile
call maps it.  Every seed's statistics are one row of a (reps, buckets)
array, which ``replicate`` reduces per bucket and ``run_sampled_test``
hands whole to the plan, whose ``outcome`` takes the seeds' majority vote.

``load_samples(path, fmt, splits)`` deals a sample file round-robin into
as many splits as a rank layout reads (``RankLayout.count``): the splits
are the rows of the file's own array viewed as (n, splits) and
transposed, sorted where they lie, so one split is the whole array
sorted in place.  Equal floats are interchangeable, so sorting in place
gives the bytes of sorting a copy (see
``SortedSampleSplit.from_samples``).

Sample files: ``sample_file_chunks`` writes them and ``load_samples``
reads them.  A file is written as its values are drawn, one
``distributions._CHUNK`` of values at a time, so no process holds n
values.  Text is written in this process, each chunk's lines by
``_decimal.stream``, a numpy kernel that writes ``repr``'s bytes.  Text
is read in this process too, a file or a stream alike, in blocks of
whole lines, by ``_textlines.Work.values``, a numpy kernel that gives
``float()``'s value of each plain decimal line.  The lines it leaves go
through one ``float()`` map, or if that fails through the line loop,
which skips comment and blank lines and names the first fault by its
file line.  Raw f64 files are the chunks' own buffers; a file or stream
is read into one buffer, sized by its length on disk and read on to its
end, which becomes the array, and a bad value is named by its position.

Reports: ``serialize_report`` writes a TestOutcome as JSON and a
non-empty tuple of ReplicationRow or ProxyPoint rows (what ``replicate``
and ``proxy_curve`` return) as CSV headed by the row type's field names.
"""

from __future__ import annotations

import json
import math
import os
import re
from collections.abc import Iterable
from dataclasses import asdict, astuple, dataclass, fields
from enum import Enum
from pathlib import Path

import numpy as np

from .distributions import DistributionModel
from .empirical import SortedSampleSplit, _checked_sorted
from .proxy import ProxyPoint, proxy_value
from .tester import TestConfig, TestOutcome
from . import distributions, tester

__all__ = [
    "FileFormat",
    "ReplicationRow",
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
# sampled tests
# ---------------------------------------------------------------------------

def _sampled(model: DistributionModel, n: int, config: TestConfig, base_seed: int, reps: int):
    """The decision plan, and the statistics of seed base_seed + r's sample as row r.

    A seed draws the plan's (splits, m) grid of ranks in one call and
    maps it through the quantile in one, as it is: exact uniform order
    statistics lie on no 2**-53 grid, so unlike ``sample``'s variates
    they need no half-step offset.  Its rows are checked as sorted
    samples are, in split order, before the next seed draws.
    """
    if reps < 1:
        raise ValueError("reps must be >= 1")
    plan = tester._plan(config, n)
    held = np.empty((reps, *plan.ranks.shape))
    for grid, seed in zip(held, range(base_seed, base_seed + reps)):
        draws = distributions.uniform_order_statistics(n, plan.ranks, seed)
        grid[...] = _checked_sorted(model.quantile(draws))
    return plan, plan.statistics(held.reshape(reps, -1))


def run_sampled_test(model: DistributionModel, n: int, seed: int, config: TestConfig,
                     reps: int = 1) -> TestOutcome:
    """Draw the order statistics the configured variant reads and decide.

    Seeds seed..seed + reps - 1 each decide; the outcome carries the
    first seed's buckets and the seeds' majority verdict, and a tie is
    light (``tester._Plan.outcome``).
    """
    plan, stats = _sampled(model, n, config, seed, reps)
    return plan.outcome(stats, seed)


def replicate(model: DistributionModel, reps: int, n: int, config: TestConfig,
              base_seed: int) -> tuple[ReplicationRow, ...]:
    """Run the configured tester reps times with seeds base_seed + index.

    Per bucket, aggregates mean and sample standard deviation of the
    statistic with degenerate markers left out of the moments (``nan``
    where too few reps are left for one), and attaches the analytic
    proxy curve and the boundary for overlay.  The
    boundary is a function of (n, k, config) alone: the one a ``test``
    of the same n reports.
    """
    if reps < 2:
        raise ValueError("reps must be >= 2")
    plan, stats = _sampled(model, n, config, base_seed, reps)
    live = ~np.isinf(stats)

    rows = []
    for j, i in enumerate(plan.buckets):
        values = stats[live[:, j], j]  # contiguous, reduced as a list of them would be
        rows.append(ReplicationRow(
            i=i,
            s_hat_mean=float(np.mean(values)) if values.size else math.nan,
            s_hat_std=float(np.std(values, ddof=1)) if values.size > 1 else math.nan,
            proxy_s=proxy_value(model, i / config.k),
            threshold=1.0 - i / config.k,
            boundary=float(plan.boundary[j]),
        ))
    return tuple(rows)


# ---------------------------------------------------------------------------
# sample files
# ---------------------------------------------------------------------------

# A byte a text line does not hold.  A random double's 8 bytes all avoid
# it with probability about 5e-4, two doubles' about 2e-7.
_NOT_TEXT, _LINE_END = re.compile(rb"[^\t\n\r\x20-\x7e]"), re.compile(rb"[\n\r]")

# The text reader's first array, 2 MiB: glibc maps it apart from the heap,
# so it grows by remapping pages, not copying bytes (one copy at a few MB
# added 5 MB to ``test --input``'s peak RSS).  It grows by an eighth or
# more at a time, a dozen times to 1M values, and ``resize`` zeroes what
# it adds, so at most an eighth more than the values is resident.
_TEXT_FIRST = 1 << 18


def sample_file_chunks(chunks: Iterable[np.ndarray], fmt: FileFormat | str) -> Iterable:
    """A sample file's bytes in ``fmt``, as bytes-like chunks to write in order.

    ``chunks`` are the file's values as contiguous float64 arrays in
    file order, as ``distributions._sample_chunks`` draws them, taken as
    the bytes are wanted, so one chunk is held at a time.  RAW_F64 is
    each chunk's own little-endian buffer.  Text is one shortest
    round-trip decimal per line: each chunk's ``repr`` lines, written in
    this process by ``_decimal.stream`` a block of them at a time.
    """
    if FileFormat(fmt) is FileFormat.RAW_F64:
        return (np.ascontiguousarray(chunk, dtype="<f8") for chunk in chunks)
    from ._decimal import stream  # its tables are built only where text is written

    return stream(chunks)


def _check_value(value: float, where: str, at: int) -> None:
    """Raise unless ``value``, ``where`` number ``at``, is nonnegative and finite."""
    if not 0.0 <= value < math.inf:  # NaN fails too
        what, note = (("negative", "; domain is [0, inf)") if math.isfinite(value)
                      else ("non-finite", ""))
        raise ValueError(f"{what} value {value!r} at {where} {at}{note}")


def _parse_text(path: Path) -> np.ndarray:
    """Read a text sample file or stream block by block: the kernel, one
    ``float()`` map of the lines it leaves, and the line loop if that fails
    or gives a negative or non-finite value, so the first fault in file
    order raises.  A line ``float`` takes is neither blank nor a comment,
    and it strips a subset of what ``str.strip`` strips (not
    U+001C..U+001F), so the line loop would give the same value."""
    from ._textlines import _PAD, Work, blocks

    out, n, lines, work = np.empty(_TEXT_FIRST), 0, 0, Work()
    with path.open("rb", buffering=0) as fh:
        for text, size in blocks(fh.fileno()):  # each block is spent here, before the next read
            got, left, starts, ends = work.values(text, size)
            at = np.flatnonzero(left)
            if at.size:
                odd = [bytes(text[_PAD + s:_PAD + e])
                       for s, e in zip(starts[at].tolist(), ends[at].tolist())]
                try:
                    read = np.fromiter(map(float, odd), float, at.size)
                except ValueError:  # a comment, blank or bad line
                    read = None
                if read is None or not (read.min() >= 0.0 and read.max() < math.inf):  # or NaN
                    read = _read_lines(path, odd, lines + 1 + at)
                got[at] = read
                got = got[~np.isnan(got)]  # the blank and comment lines
            if n + got.size > out.size:  # by an eighth or more, then cut to n at the end
                out.resize(max(out.size + out.size // 8, n + got.size), refcheck=False)
            out[n:n + got.size] = got
            n += got.size
            lines += starts.size
    if not n:
        raise ValueError(f"{path}: no sample values found")
    out.resize(n, refcheck=False)
    return out


def _read_lines(path: Path, lines: list, numbers: np.ndarray) -> np.ndarray:
    """The line loop, the one reader of blank and ``#`` lines: the value
    of each of ``lines``, bytes that are lines ``numbers`` of the file,
    NaN for a blank or ``#`` line; raise at the first line that is not
    UTF-8, not a float, or not nonnegative and finite."""
    got = np.full(len(lines), math.nan)
    for j, (line, lineno) in enumerate(zip(lines, numbers.tolist())):
        try:
            text = line.decode("utf-8").strip()
        except UnicodeDecodeError:
            raise ValueError(f"{path}: line {lineno}: not UTF-8") from None
        if not text or text.startswith("#"):
            continue
        try:
            value = float(text)
        except ValueError:
            raise ValueError(f"{path}: line {lineno}: cannot parse {text!r}") from None
        _check_value(value, "line", lineno)
        got[j] = value
    return got


def _parse_raw_f64(path: Path) -> np.ndarray:
    """Read a raw file or stream into one writable array: a buffer sized
    by its length on disk (0 for a stream), read on to its end 1 MiB at a
    time.  Text is refused; the first bad value is named by its position."""
    with path.open("rb") as fh:
        data = np.empty(os.fstat(fh.fileno()).st_size, np.uint8)
        size = fh.readinto(data)
        data.resize(size, refcheck=False)  # trimmed if the file came up short
        chunk = np.empty(1 << 20, np.uint8)
        while got := fh.readinto(chunk):  # on to the end, where a stream's values arrive
            data.resize(size + got, refcheck=False)  # no view of data is alive
            data[size:] = chunk[:got]
            size += got
    if size == 0:
        raise ValueError(f"{path}: empty file")
    if size % 8 != 0:
        raise ValueError(f"{path}: length {size} is not a multiple of 8 "
                         f"(trailing fragment at offset {size - size % 8})")
    if not _NOT_TEXT.search(data) and _LINE_END.search(data):
        raise ValueError(f"{path}: printable ASCII lines are text, not raw f64; read it as text")
    arr = data.view("<f8").astype(float, copy=False)
    if not (arr.min() >= 0.0 and arr.max() < math.inf):  # NaN fails both
        pos = int(np.argmin((arr >= 0.0) & (arr < math.inf)))
        _check_value(float(arr[pos]), "value", pos + 1)
    return arr


def load_samples(path, fmt: FileFormat | str = FileFormat.TEXT,
                 splits: int = 1) -> list[SortedSampleSplit]:
    """Load a sample file into a list of ``splits`` sorted splits.

    ``fmt`` is a FileFormat or its value ("text" or "f64").  Text files
    hold one decimal literal per line; '#' comment lines and blank lines
    are skipped.  RAW_F64 is packed little-endian IEEE-754; bytes that
    are all printable ASCII lines are refused as text.  Negative and
    non-finite values are rejected.  ``splits`` is a rank layout's
    ``count``, 1 or 4, and nothing else: the values are dealt round-robin
    on input order into that many splits before sorting - fine for i.i.d.
    data, a deliberate warning sign for time-ordered data - and their
    count must be a multiple of it.
    """
    if type(splits) is not int or splits not in (1, 4):  # not 4.0, not True
        raise ValueError(f"splits must be a rank layout's count, 1 or 4, not {splits!r}")
    path = Path(path)
    arr = _parse_text(path) if FileFormat(fmt) is FileFormat.TEXT else _parse_raw_f64(path)
    if arr.size < splits:
        raise ValueError(f"{path}: need at least 4 values to build four splits")
    if arr.size % splits:
        raise ValueError("all four splits must hold the same number of samples")
    # Row j of the transposed (n, splits) view is every splits-th value
    # from j: the round-robin deal, sorted where the values lie (one
    # contiguous row in place; four strided rows through one row-sized
    # buffer, on this thread so that only one is alive).
    rows = arr.reshape(-1, splits).T
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
