"""End-to-end and per-layer benchmark of the tailtest CLI.

Run from the repository root:

    python3 bench/run.py --workload full_lomax --seed 1 --seconds 20 --trace 0

``--workload all`` runs every workload in turn.  The program under test
is ``src/tailtest`` of the checkout the script sits in; nothing is
installed.  Each CLI call is a separate child process
(``python -m tailtest.cli``), made one at a time, so calls never
compete for the two cores of the reference machine.

``--trace 0`` measures the end-to-end metrics: wall time and peak RSS
of each child (from its own ``wait4`` rusage).  ``--trace 1`` makes
each workload call as an untraced child and again in this process
through ``tailtest.cli.run_cli`` with tailtest's layer boundaries
wrapped (see ``tracing.py``), checks that both give the same bytes, and
reports per-layer metrics.  Every output is checked: test
verdicts against ``classify_tail``, simulate CSVs for one finite row per
scanned bucket, sample files against the seeded stream.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines above
it are a readable report that also names the machine and software.
``--out PATH`` additionally writes the full record of the run as JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import random
import shutil
import subprocess
import sys
import tempfile
import time
import traceback
import tracemalloc
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import spans as sp
from tracing import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

TAIL = {"alpha": 0.25, "rho": 0.5}  # as in the acceptance suite
CALL_TIMEOUT_S = 150.0
REFUSAL = "all four splits must hold the same number of samples"
CSV_HEADER = "i,s_hat_mean,s_hat_std,proxy_s,threshold,boundary"

# End-to-end metrics: the gated ones first, then the per-kind latencies
# and error rate, which are printed for every workload but gated only
# through latency_s because not every workload makes every kind of call.
GATED_UNITS = {"latency_s": "s", "setup_s": "s", "values_per_s": "1/s", "peak_rss_mb": "MB"}
KINDS = ("test", "simulate", "sample")


# ---------------------------------------------------------------------------
# calls and their checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Call:
    kind: str                 # "test", "simulate", "sample" or "complexity"
    argv: tuple[str, ...]
    values: int               # sample values the call draws or reads
    out: Path | None          # output file; None means standard output
    check: Callable[[int, bytes, bytes], str | None]  # (exit code, output, stderr) -> error


def _expect_ok(code: int, err: bytes) -> str | None:
    if code != 0:
        return f"exit {code}: {err.decode(errors='replace').strip()[-300:]}"
    return None


def check_report(verdict: str, k: int, n: int | None, buckets: int, refusal: str | None = None):
    """A JSON test report with the expected verdict, sizes and bucket count.

    With ``refusal``, exit 1 with that message is also accepted: the call
    still counts as failed, but the program said why.
    """
    def check(code, out, err):
        if refusal is not None and code == 1 and refusal in err.decode(errors="replace"):
            return None
        problem = _expect_ok(code, err)
        if problem:
            return problem
        doc = json.loads(out)
        if doc["verdict"] != verdict:
            return f"verdict {doc['verdict']!r}, classify_tail says {verdict!r}"
        if doc["k"] != k or (n is not None and doc["n"] != n):
            return f"report has k={doc['k']} n={doc['n']}, expected k={k} n={n}"
        if len(doc["buckets"]) != buckets:
            return f"report has {len(doc['buckets'])} buckets, expected {buckets}"
        return None
    return check


def check_csv(rows: range):
    """One row of finite numbers per scanned bucket, in bucket order."""
    def check(code, out, err):
        problem = _expect_ok(code, err)
        if problem:
            return problem
        lines = out.decode().splitlines()
        if lines[0] != CSV_HEADER:
            return f"CSV header {lines[0]!r}"
        got = [int(line.split(",")[0]) for line in lines[1:]]
        if got != list(rows):
            return f"CSV buckets {got}, expected {list(rows)}"
        for line in lines[1:]:
            if not all(math.isfinite(float(x)) for x in line.split(",")[1:]):
                return f"non-finite CSV row {line!r}"
        return None
    return check


def check_sample_file(expected, spots: int = 2001):
    """The file holds exactly the seeded stream, one repr per line (spot-checked)."""
    def check(code, out, err):
        problem = _expect_ok(code, err)
        if problem:
            return problem
        lines = out.split(b"\n")
        if lines[-1] != b"" or len(lines) - 1 != len(expected):
            return f"{len(lines) - 1} lines, expected {len(expected)}"
        step = max(1, (len(expected) - 1) // (spots - 1))
        for j in list(range(0, len(expected), step)) + [len(expected) - 1]:
            if lines[j] != repr(float(expected[j])).encode():
                return f"line {j + 1} is {lines[j]!r}, expected {float(expected[j])!r}"
        return None
    return check


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def scanned(k: int, weak: bool) -> range:
    """Buckets a test scans: 2..k-2 (full), or [ceil(0.1k), floor(0.8k)] within [1, k-3]
    (weak, at the CLI's default --c1 and --c2)."""
    if weak:
        return range(max(math.ceil(0.1 * k), 1), min(math.floor(0.8 * k), k - 3) + 1)
    return range(2, k - 1)


class Calls:
    """Builds a workload's CLI calls; seeds come from the benchmark seed only."""

    def __init__(self, tt, workload: str, seed: int, workdir: Path):
        self.tt = tt
        self.rng = random.Random(f"{workload}/{seed}")
        self.workdir = workdir
        self._models = {}

    def model(self, family: str, params: dict):
        key = (family, tuple(sorted(params.items())))
        if key not in self._models:
            model = self.tt.model_from_name(family, params)
            cls = self.tt.classify_tail(model, self.tt.TailParams(**TAIL))
            verdict = {"HEAVY_AT_LEAST": "heavy", "LIGHT": "light"}[cls.name]
            self._models[key] = (model, verdict, {})
        return self._models[key]

    def flags(self, family: str, params: dict, k: int) -> list[str]:
        """Distribution, tail and bounds flags; bounds as in the acceptance suite."""
        model, _, bounds = self.model(family, params)
        if k not in bounds:
            bounds[k] = self.tt.estimate_bounds(model, zeta=1.0 / (2 * k))
        b = bounds[k]
        return ["--k", str(k), "--alpha", repr(TAIL["alpha"]), "--rho", repr(TAIL["rho"]),
                "--beta", repr(b.beta), "--b1", repr(b.b1), "--b2", repr(b.b2)]

    @staticmethod
    def dist(family: str, params: dict) -> list[str]:
        return ["--dist", family, "--params", ",".join(f"{key}={v!r}" for key, v in params.items())]

    def seed(self) -> int:
        return self.rng.getrandbits(32)

    def test(self, family, params, k, n, weak=False) -> Call:
        argv = ["test", *self.dist(family, params), "--n", str(n), "--seed", str(self.seed()),
                *self.flags(family, params, k), *(["--weak"] if weak else [])]
        verdict = self.model(family, params)[1]
        return Call("test", tuple(argv), n if weak else 4 * n, None,
                    check_report(verdict, k, n, len(scanned(k, weak))))

    def simulate(self, family, params, k, n, reps) -> Call:
        """A full-variant simulate call."""
        out = self.workdir / f"simulate_{family}.csv"
        argv = ["simulate", *self.dist(family, params), "--reps", str(reps), "--n", str(n),
                "--seed", str(self.seed()), *self.flags(family, params, k), "--out", str(out)]
        return Call("simulate", tuple(argv), reps * 4 * n, out, check_csv(scanned(k, weak=False)))

    def sample_text(self, family, params, n, path: Path) -> Call:
        seed = self.seed()
        argv = ["sample", *self.dist(family, params), "--n", str(n), "--seed", str(seed),
                "--format", "text", "--out", str(path)]
        expected = self.tt.sample(self.model(family, params)[0], n, seed)
        return Call("sample", tuple(argv), n, path, check_sample_file(expected))

    def test_file(self, path: Path, family, params, k, n, weak) -> Call:
        argv = ["test", "--input", str(path), "--format", "text", *self.flags(family, params, k),
                *(["--weak"] if weak else [])]
        verdict = self.model(family, params)[1]
        # The full variant deals the file into four splits; it refuses a
        # count that is not a multiple of 4 today, and its n is per split.
        check = check_report(verdict, k, n if weak else None, len(scanned(k, weak)),
                             refusal=None if weak else REFUSAL)
        return Call("test", tuple(argv), n, None, check)


LOMAX = ("lomax", {"a": 1.0, "lambda": 1.0})
EXPONENTIAL = ("exponential", {"lambda": 1.0})
HALFGAUSSIAN = ("halfgaussian", {"sigma": 1.0})


@dataclass(frozen=True)
class Workload:
    why: str
    cycle: Callable[[Calls], list[Call]]   # repeated until the run's time is up
    timed: tuple[str, ...]                 # call kinds whose medians add up to latency_s
    once: Callable[[Calls], list[Call]] = lambda c: []  # made first, before the timed window


def file_cycle(c: Calls) -> list[Call]:
    path = c.workdir / "lomax.txt"
    n = 1_000_001
    return [c.sample_text(*LOMAX, n=n, path=path),
            c.test_file(path, *LOMAX, k=16, n=n, weak=True),
            c.test_file(path, *LOMAX, k=16, n=n, weak=False)]


WORKLOADS = {
    # The single-verdict path: uniforms, quantile and the sort of four 2M
    # splits; no erf inverse, no file I/O.  One exponential call per run
    # checks the light verdict on the same path.
    "full_lomax": Workload(
        why="one full-variant test, k=12, on 4 x 2M Lomax draws: uniforms and the sort "
            "dominate; bypasses the erf inverse and file I/O",
        once=lambda c: [c.test(*EXPONENTIAL, k=12, n=2_000_000)],
        cycle=lambda c: [c.test(*LOMAX, k=12, n=2_000_000)],
        timed=("test",)),
    # The only workload whose quantile is the hand-written erf inverse.
    "weak_halfgaussian": Workload(
        why="weak-variant test, k=32, on 4M half-Gaussian draws: the only workload whose "
            "quantile is the erf inverse",
        cycle=lambda c: [c.test(*HALFGAUSSIAN, k=32, n=4_000_000, weak=True)],
        timed=("test",)),
    # Calibration traffic: per-rep fixed costs, the decision, the proxy
    # overlay and replicate take their largest share here.
    "many_small": Workload(
        why="full-variant simulate, 100 reps of 4 x 32768 exponential draws: per-rep fixed "
            "costs, the decision and the proxy overlay",
        cycle=lambda c: [c.simulate(*EXPONENTIAL, k=32, n=32_768, reps=100)],
        timed=("simulate",)),
    # The text writer and parser.  1,000,001 is deliberately not a multiple
    # of 4: the full call is refused today and counts as failed.
    "file_text": Workload(
        why="sample 1,000,001 Lomax values as text, then test the file weak and full: text "
            "writer and parser; full call refused today",
        cycle=file_cycle,
        timed=("sample", "test")),
}


def _check_complexity(code: int, out: bytes, err: bytes) -> str | None:
    if code != 0 or not out.startswith(b"k="):
        return _expect_ok(code, err) or f"unexpected output {out[:80]!r}"
    return None


# A CLI call that does no work: interpreter start plus imports.
SETUP = Call("complexity", ("complexity", "--alpha", "0.25", "--rho", "0.5",
                            "--beta", "1", "--b1", "1", "--b2", "1"), 0, None, _check_complexity)


# ---------------------------------------------------------------------------
# running calls
# ---------------------------------------------------------------------------

def _read_out(call: Call, stdout: bytes) -> bytes:
    if call.out is None:
        return stdout
    return call.out.read_bytes() if call.out.exists() else b""


def _check(call: Call, code: int, output: bytes, stderr: bytes) -> str | None:
    try:
        return call.check(code, output, stderr)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unreadable {call.kind} output: {exc!r}"


class Launcher:
    """The small process that spawns and reaps the CLI children (see launcher.py)."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, str(HERE / "launcher.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), self.env.get("PYTHONPATH")]))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.proc.stdin.close()
        self.proc.wait()

    def run(self, call: Call, workdir: Path) -> dict:
        """One untraced CLI child; wall time and the child's own peak RSS."""
        out_path, err_path = workdir / "child.stdout", workdir / "child.stderr"
        if call.out is not None:
            call.out.unlink(missing_ok=True)
        request = {"argv": [sys.executable, "-m", "tailtest.cli", *call.argv],
                   "env": self.env, "cwd": str(ROOT), "stdout": str(out_path),
                   "stderr": str(err_path), "timeout": CALL_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("the launcher process ended early")
        reply = json.loads(reply)
        stderr = err_path.read_bytes()
        output = _read_out(call, out_path.read_bytes())
        return {"kind": call.kind, "argv": list(call.argv), "values": call.values,
                "wall_s": reply["wall_s"], "rss_mb": reply["maxrss_kb"] * 1024 / sp.MB,
                "code": reply["code"], "error": _check(call, reply["code"], output, stderr),
                "output": output}


def run_traced(call: Call, tracer: Tracer, cli, memory: bool) -> dict:
    """The same call in this process, through run_cli, with spans (and tracemalloc)."""
    stdout, stderr = io.StringIO(), io.StringIO()
    if call.out is not None:
        call.out.unlink(missing_ok=True)
    tracer.install()
    if memory:
        tracemalloc.start()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = tracer.call(sp.CLI, cli.run_cli, list(call.argv))
            except SystemExit as exc:
                code = exc.code
            except Exception:  # a crash in the program is a failed call, not a crashed run
                traceback.print_exc()
                code = 1
    finally:
        tracemalloc.stop()  # no-op when not tracing
        tracer.uninstall()
    output = _read_out(call, stdout.getvalue().encode())
    err = stderr.getvalue().encode()
    return {"kind": call.kind, "code": code, "tracemalloc": memory,
            "error": _check(call, code, output, err), "output": output}


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def end_to_end(workload: Workload, setup: list[dict], calls: list[dict]) -> dict:
    """All end-to-end figures of one run, with the number of calls behind each."""
    ok = [c for c in calls if c["code"] == 0]
    figures = {"setup_s": (sp.median([c["wall_s"] for c in setup]), "s", len(setup))}
    for kind in KINDS:
        walls = [c["wall_s"] for c in ok if c["kind"] == kind]
        figures[f"{kind}_p50_s"] = (sp.median(walls) if walls else None, "s", len(walls))
    timed = [figures[f"{kind}_p50_s"] for kind in workload.timed]
    figures["latency_s"] = (sum(f[0] for f in timed) if all(f[0] for f in timed) else None,
                            "s", sum(f[2] for f in timed))
    wall = sum(c["wall_s"] for c in ok)
    figures["values_per_s"] = (sum(c["values"] for c in ok) / wall if wall else None,
                               "1/s", len(ok))
    figures["peak_rss_mb"] = (max((c["rss_mb"] for c in calls), default=None), "MB", len(calls))
    figures["error_rate"] = ((len(calls) - len(ok)) / len(calls) if calls else None,
                             "ratio", len(calls))
    return figures


def per_layer(passes: list[dict], memory_pass: dict) -> dict[str, float]:
    """Medians over the timing passes; peaks from the tracemalloc pass."""
    return {name: memory_pass[name] if sp.LAYER_UNITS[name] == "MB"
            else sp.median([p[name] for p in passes]) for name in sp.LAYER_UNITS}


# ---------------------------------------------------------------------------
# machine and software
# ---------------------------------------------------------------------------

def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def machine(tt) -> dict:
    import numpy
    import scipy

    cpu = next((line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
                if line.startswith("model name")), platform.processor())
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(f"{index}/level").strip(), _read(f"{index}/type").strip()
        caches[f"L{level} {kind}"] = _read(f"{index}/size").strip()
    mem_kb = next((int(line.split()[1]) for line in _read("/proc/meminfo").splitlines()
                   if line.startswith("MemTotal:")), 0)
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short", "HEAD"],
                              capture_output=True, text=True)
        commit = done.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "tailtest").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu, "caches": caches,
            "ram_gb": round(mem_kb / 1024 ** 2, 1), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "tailtest": tt.__version__, "commit": commit, "src_sha256": digest.hexdigest()[:16]}


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------

def run_workload(name: str, seed: int, seconds: float, trace: bool, tt, cli,
                 launcher: Launcher) -> dict:
    workload = WORKLOADS[name]
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
    try:
        calls = Calls(tt, name, seed, workdir)
        launcher.run(SETUP, workdir)  # warms the file cache; not counted
        setup, untraced, traced, pass_data, missing = [], [], [], [], set()

        def make(batch, memory):
            """Make each call as a child and, when tracing, again in process.

            A no-work call follows each batch, so set-up time is sampled
            over the same stretch of the run as the workload.  The
            in-process timing pass runs without tracemalloc, which slows
            Python-object-heavy code (the text parser, the decision loop)
            several times over; a separate pass with it gives the peaks.
            """
            timing, heap, pairs = Tracer(), Tracer(), []
            for call in batch:
                child = launcher.run(call, workdir)
                untraced.append(child)
                if not trace:
                    continue
                runs = [run_traced(call, timing, cli, memory=False)]
                if memory:
                    runs.append(run_traced(call, heap, cli, memory=True))
                for inproc in runs:
                    if inproc["output"] != child["output"]:
                        inproc["error"] = inproc["error"] or "traced output differs from CLI output"
                    traced.append(inproc)
                pairs.append((child, runs[0]))
            setup.append(launcher.run(SETUP, workdir))
            missing.update(timing.missing)
            return timing.spans, heap.spans, pairs

        once = workload.once(calls)
        if once:
            make(once, memory=False)
        start = time.perf_counter()
        while True:
            pass_data.append(make(workload.cycle(calls), memory=trace and not pass_data))
            if time.perf_counter() - start >= seconds:
                break

        setup_s = sp.median([c["wall_s"] for c in setup])
        errors = [c["error"] for c in setup + untraced + traced if c["error"]]
        attempted = untraced + traced
        result = {
            "workload": name, "why": workload.why, "seed": seed, "seconds": seconds,
            "trace": int(trace),
            "correct": not errors,
            "attempted": len(attempted),
            "failed": sum(c["code"] != 0 for c in attempted),
            "errors": errors,
            "end_to_end": end_to_end(workload, setup, untraced),
            "calls": [{key: value for key, value in c.items() if key != "output"}
                      for c in setup + untraced + traced],
        }
        if trace:
            passes = []
            for spans, heap_spans, pairs in pass_data:
                totals = {"untraced_wall_s": sum(child["wall_s"] for child, _ in pairs),
                          "setup_s": setup_s, "calls": len(pairs),
                          "bytes_written": sum(len(inproc["output"]) for _, inproc in pairs)}
                passes.append(sp.layer_metrics(spans, **totals))
                if heap_spans:
                    memory_pass = sp.layer_metrics(heap_spans, **totals)
            result["per_layer"] = per_layer(passes, memory_pass)
            result["passes"] = passes
            result["memory_pass"] = memory_pass
            result["missing_boundaries"] = sorted(missing)
        return result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def result_line(result: dict) -> dict:
    """The final JSON line: gated end-to-end metrics, or per-layer ones when traced."""
    if result["trace"]:
        metrics = {name: {"value": value, "unit": sp.LAYER_UNITS[name]}
                   for name, value in result["per_layer"].items()}
    else:
        figures = result["end_to_end"]
        metrics = {name: {"value": figures[name][0], "unit": unit}
                   for name, unit in GATED_UNITS.items() if figures[name][0] is not None}
    expected = sp.LAYER_UNITS if result["trace"] else GATED_UNITS
    return {"correct": result["correct"] and metrics.keys() == expected.keys(),
            "attempted": result["attempted"], "failed": result["failed"], "metrics": metrics}


def describe(result: dict, info: dict) -> list[str]:
    lines = [f"workload {result['workload']}: {result['why']}",
             f"  seed {result['seed']}, {result['seconds']} s, trace {result['trace']}, "
             f"{result['attempted']} calls, {result['failed']} failed",
             "  machine " + json.dumps(info, sort_keys=True)]
    for name, (value, unit, n) in result["end_to_end"].items():
        shown = "n/a" if value is None else f"{value:.6g}"
        lines.append(f"  {name:<16} {shown:>12} {unit:<6} ({n} calls)")
    for name, value in result.get("per_layer", {}).items():
        lines.append(f"  {name:<28} {value:>14.6g} {sp.LAYER_UNITS[name]}")
    if result.get("missing_boundaries"):
        lines.append("  not traced (missing): " + ", ".join(result["missing_boundaries"]))
    lines += [f"  error: {e}" for e in result["errors"]]
    return lines


def load_tailtest():
    """Import tailtest from this checkout's src/, and only from there."""
    sys.path.insert(0, str(SRC))
    import tailtest
    import tailtest.cli
    if not Path(tailtest.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: imported tailtest from {tailtest.__file__}, not {SRC}")
    return tailtest, tailtest.cli


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True, help="workload seed")
    parser.add_argument("--seconds", type=float, required=True,
                        help="repeat the workload's calls until this much time has passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced in-process pass")
    parser.add_argument("--out", default=None, help="also write the full record as JSON here")
    args = parser.parse_args(argv)

    if not (SRC / "tailtest" / "cli.py").is_file():
        raise SystemExit(f"error: {SRC / 'tailtest'} not found; run from a tailtest checkout")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    with Launcher() as launcher:  # started before tailtest makes this process large
        tt, cli = load_tailtest()
        info = machine(tt)
        for name in names:
            result = run_workload(name, args.seed, args.seconds, bool(args.trace), tt, cli,
                                  launcher)
            results.append(result)
            print("\n".join(describe(result, info)), flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps({"machine": info, "runs": results}, indent=1) + "\n")
    lines = [result_line(r) for r in results]
    if len(lines) == 1:
        print(json.dumps(lines[0]))
    else:
        print(json.dumps({"correct": all(line["correct"] for line in lines),
                          "attempted": sum(line["attempted"] for line in lines),
                          "failed": sum(line["failed"] for line in lines),
                          "metrics": {r["workload"]: line["metrics"]
                                      for r, line in zip(results, lines)}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
