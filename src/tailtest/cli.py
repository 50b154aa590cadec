"""Command-line interface.

Subcommands mirror the library workflows: ``sample`` (seeded draws to a
file), ``proxy`` (ProxyPoint rows as CSV), ``test`` (heavy or light
verdict as a JSON report), ``simulate`` (ReplicationRow rows as CSV),
and ``complexity`` (bucket and sample budgets).

Exit codes: 0 success, 1 domain or parse failure, 2 usage error; with
``--exit-verdict`` the ``test`` subcommand exits 3 for a heavy verdict
and 4 for light.  All output is byte-deterministic for a given seed.

This module only parses flags, builds objects and writes bytes: every
byte format is ``tailtest.harness``'s (``sample_file_chunks`` for sample
files, ``serialize_report`` for reports).  Output files are written
chunk by chunk: a regular file atomically (temp file then rename, beside
the file a symlink resolves to), with the mode of a plain new file; a
FIFO or device in place.
"""

from __future__ import annotations

import argparse
import gc
import math
import os
import stat
import sys
import tempfile
from collections.abc import Iterable
from pathlib import Path

import numpy as np

from . import distributions
from .distributions import TailParams, WellBehavedBounds, model_from_name
from .harness import (
    FileFormat,
    load_samples,
    replicate,
    run_sampled_test,
    sample_file_chunks,
    serialize_report,
)
from .proxy import proxy_curve
from .tester import (
    TestConfig,
    Variant,
    Verdict,
    required_buckets,
    required_samples,
    run_test,
)

__all__ = ["main", "run_cli"]

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 2
EXIT_HEAVY = 3
EXIT_LIGHT = 4


def _parse_params(spec: str) -> dict[str, float]:
    """Parse 'k=v[,k=v...]' parameter strings."""
    params: dict[str, float] = {}
    for item in spec.split(","):
        item = item.strip()
        if not item:
            continue
        if "=" not in item:
            raise ValueError(f"parameter {item!r} is not of the form key=value")
        key, _, value = item.partition("=")
        key = key.strip()
        if key in params:
            raise ValueError(f"parameter {key!r} is given more than once")
        try:
            params[key] = float(value)
        except ValueError:
            raise ValueError(f"parameter {key!r} has non-numeric value {value!r}") from None
    return params


def _atomic_write(path: str, chunks: Iterable) -> None:
    """Write bytes-like chunks to ``path``: a regular file atomically, anything else in place.

    A path that names, or links to, something other than a regular file
    (a FIFO, a device) is opened and written straight, as ``open`` would.
    Otherwise the chunks go to a temp file beside the file the path
    resolves to, which is renamed over it, so a symlink stays a symlink.
    The file gets the mode a plain ``open`` gives a new file, 0666 less
    the umask, not the temp file's 0600.  If producing or writing a chunk
    fails, the temp file is removed and a regular target is left as it was.
    """
    try:
        regular = stat.S_ISREG(os.stat(path).st_mode)  # follows links
    except FileNotFoundError:
        regular = True
    if regular:
        _replace(Path(os.path.realpath(path)), chunks)
    else:
        with open(path, "wb") as fh:
            fh.writelines(chunks)


def _replace(target: Path, chunks: Iterable) -> None:
    """Write chunks to a temp file beside ``target``, then rename it over ``target``."""
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=target.parent, prefix=target.name + ".")
    try:
        umask = os.umask(0)  # read by setting; the CLI writes on one thread
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        with os.fdopen(fd, "wb") as fh:
            fh.writelines(chunks)
        os.replace(tmp, target)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _add_dist_args(p: argparse.ArgumentParser, required: bool = True) -> None:
    p.add_argument("--dist", required=required,
                   help="family: exponential | lomax | halfgaussian | stretchedexponential")
    p.add_argument("--params", default="",
                   help="comma-separated parameters; names are fixed per family: "
                        "exponential: lambda; lomax: a,lambda; halfgaussian: sigma; "
                        "stretchedexponential: gamma,m")


def _add_bounds_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--alpha", type=float, required=True,
                   help="hazard-rate drop magnitude (>0)")
    p.add_argument("--rho", type=float, required=True,
                   help="probability mass of the heavy region, in (0,1)")
    p.add_argument("--beta", type=float, required=True, help="density upper bound")
    p.add_argument("--b1", type=float, required=True,
                   help="Lipschitz bound on the quantile function's first derivative")
    p.add_argument("--b2", type=float, required=True,
                   help="Lipschitz bound on the quantile function's second derivative")


def _add_variant_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--weak", action="store_true",
                   help="single-split, single-granularity variant; scans buckets "
                        "ceil(0.1k)..min(floor(0.8k), k-3)")


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="tailtest",
        description="Decide whether sampled data is light- or heavy-tailed.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="draw seeded samples to a file")
    _add_dist_args(p)
    p.add_argument("--n", type=int, required=True, help="number of samples")
    p.add_argument("--seed", type=int, required=True, help="64-bit generator seed")
    p.add_argument("--out", required=True, help="output path")
    p.add_argument("--format", choices=[f.value for f in FileFormat], default=FileFormat.TEXT.value,
                   help="text: one decimal per line; f64: packed little-endian doubles")

    p = sub.add_parser("proxy", help="analytic proxy curve per bucket as CSV")
    _add_dist_args(p)
    p.add_argument("--k", type=int, required=True, help="coarse bucket count")
    p.add_argument("--alpha", type=float, default=0.0, help="gap parameter (default 0: no gap)")
    p.add_argument("--beta", type=float, default=1.0, help="density bound for the gap")
    p.add_argument("--b1", type=float, default=1.0, help="smoothness bound for the gap")
    p.add_argument("--out", required=True, help="output CSV path")

    p = sub.add_parser("test", help="run the heavy/light decision, write a JSON report")
    p.add_argument("--input", default=None, help="sample file to test instead of --dist")
    p.add_argument("--format", choices=[f.value for f in FileFormat],
                   help="--input file format (default text)")
    _add_dist_args(p, required=False)
    p.add_argument("--n", type=int, default=None,
                   help="samples per split when drawing via --dist")
    p.add_argument("--seed", type=int, default=None,
                   help="generator seed when drawing via --dist (default 0)")
    p.add_argument("--k", type=int, required=True, help="coarse bucket count")
    _add_bounds_args(p)
    _add_variant_args(p)
    p.add_argument("--out", default=None, help="JSON report path (default: stdout)")
    p.add_argument("--exit-verdict", action="store_true",
                   help="exit 3 on heavy, 4 on light (otherwise always 0)")

    p = sub.add_parser("simulate", help="repeated runs aggregated per bucket as CSV")
    _add_dist_args(p)
    p.add_argument("--reps", type=int, required=True, help="number of repetitions (>=2)")
    p.add_argument("--k", type=int, required=True, help="coarse bucket count")
    p.add_argument("--n", type=int, required=True, help="samples per split and repetition")
    p.add_argument("--seed", type=int, required=True, help="base seed; rep r uses seed+r")
    _add_bounds_args(p)
    _add_variant_args(p)
    p.add_argument("--out", required=True, help="output CSV path")

    p = sub.add_parser("complexity", help="print bucket and sample budgets",
                       description="Bucket count k and per-split sample count n from the "
                                   "theory's formulas with their constants fixed at 1 (scaled "
                                   "by --ck and --cn): their shape, not a calibrated budget.")
    _add_bounds_args(p)
    p.add_argument("--ck", type=float, default=1.0, help="bucket-count constant (default 1)")
    p.add_argument("--cn", type=float, default=1.0, help="sample-count constant (default 1)")

    return top


def _zeta(k: int) -> float:
    """1/(2k): k buckets need the smoothness bounds held on [0, 1 - zeta]."""
    if k < 4:  # before the division, which k = 0 would fail
        raise ValueError("k must be >= 4")
    if k >= 2 ** 63 - 1:  # as TestConfig; from 2**1024 the division overflows
        raise ValueError("k must be < 2**63 - 1")
    return 1.0 / (2 * k)


def _bounds(args, k: int) -> WellBehavedBounds:
    """The flags' smoothness bounds, held as k buckets need."""
    return WellBehavedBounds(beta=args.beta, b1=args.b1, b2=args.b2, zeta=_zeta(k))


def _require_finite(args, *names: str) -> None:
    # A TestConfig takes infinite bounds, the honest estimate for a density
    # unbounded at 0 (its gap is then 0), but a bounds flag of inf leaves
    # the report unwritable (JSON holds no inf) or its gap silently 0.
    for name in names:
        if not math.isfinite(getattr(args, name)):
            raise ValueError(f"{name} must be finite")


def _make_config(args) -> TestConfig:
    _require_finite(args, "beta", "b1", "b2")
    return TestConfig(
        tail=TailParams(alpha=args.alpha, rho=args.rho),
        bounds=_bounds(args, args.k),
        k=args.k,
        variant=Variant.WEAK if args.weak else Variant.FULL,
    )


def _cmd_sample(args) -> int:
    model = model_from_name(args.dist, _parse_params(args.params))
    chunks = distributions._sample_chunks(model, args.n, args.seed)
    _atomic_write(args.out, sample_file_chunks(chunks, args.format))
    return EXIT_OK


def _cmd_proxy(args) -> int:
    _require_finite(args, "beta", "b1")
    model = model_from_name(args.dist, _parse_params(args.params))
    tail = TailParams(alpha=args.alpha, rho=0.5)
    bounds = WellBehavedBounds(beta=args.beta, b1=args.b1, b2=1.0, zeta=_zeta(args.k))
    _atomic_write(args.out, [serialize_report(proxy_curve(model, args.k, tail, bounds))])
    return EXIT_OK


def _cmd_test(args) -> int:
    if (args.input is None) == (args.dist is None):
        raise ValueError("provide exactly one of --input or --dist")
    config = _make_config(args)

    if args.input is not None:
        if args.n is not None or args.params or args.seed is not None:
            raise ValueError("--n, --params and --seed apply only to --dist; file data is fixed")
        splits = load_samples(args.input, args.format or FileFormat.TEXT, config.layout.count)
        outcome = run_test(splits, config)
    else:
        if args.format is not None:
            raise ValueError("--format applies only to --input; drawn data has no file format")
        if args.n is None:
            raise ValueError("--n is required with --dist")
        model = model_from_name(args.dist, _parse_params(args.params))
        outcome = run_sampled_test(model, args.n, 0 if args.seed is None else args.seed, config)

    payload = serialize_report(outcome)
    if args.out is not None:
        _atomic_write(args.out, [payload])
    else:
        sys.stdout.write(payload.decode("utf-8"))
    if args.exit_verdict:
        return EXIT_HEAVY if outcome.verdict is Verdict.HEAVY else EXIT_LIGHT
    return EXIT_OK


def _cmd_simulate(args) -> int:
    model = model_from_name(args.dist, _parse_params(args.params))
    config = _make_config(args)
    rows = replicate(model, args.reps, args.n, config, args.seed)
    _atomic_write(args.out, [serialize_report(rows)])
    return EXIT_OK


def _cmd_complexity(args) -> int:
    tail = TailParams(alpha=args.alpha, rho=args.rho)
    # The bucket count reads no zeta, so the bounds for any k serve it.
    k = required_buckets(tail, _bounds(args, 4), c_k=args.ck)
    n = required_samples(k, tail, _bounds(args, k), c_n=args.cn)
    print(f"k={k}")
    print(f"n={n}")
    return EXIT_OK


_HANDLERS = {
    "sample": _cmd_sample,
    "proxy": _cmd_proxy,
    "test": _cmd_test,
    "simulate": _cmd_simulate,
    "complexity": _cmd_complexity,
}


def run_cli(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        # numpy's own refusal of a negative seed names neither flag nor value.
        if getattr(args, "seed", None) is not None and args.seed < 0:
            raise ValueError("seed must be >= 0")
        with np.errstate(all="ignore"):  # each non-finite result is refused by its own check
            return _HANDLERS[args.command](args)
    except (ValueError, OSError, MemoryError) as exc:
        # A bare MemoryError has no message of its own.
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_DOMAIN


def main() -> None:
    gc.freeze()  # the imported heap lives to exit: no collection, exit's included, need trace it
    raise SystemExit(run_cli())


if __name__ == "__main__":
    main()
