import argparse
import contextlib
import errno
import gc
import json
import math
import os
import stat
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import tailtest as tt
from tailtest import _textlines
from tailtest._decimal import _BLOCK
from tailtest.cli import _atomic_write, _build_parser, run_cli
from tailtest.distributions import _CHUNK

BOUNDS = ["--alpha", "0.25", "--rho", "0.5", "--beta", "1", "--b1", "1", "--b2", "1"]


def _child_env() -> dict[str, str]:
    """This process's environment, with this checkout's tailtest first on the path."""
    src = Path(tt.__file__).resolve().parents[1]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))


def test_complexity_prints_budgets(capsys):
    code = run_cli(["complexity", "--alpha", "0.25", "--rho", "0.5", "--beta", "1",
                    "--b1", "1", "--b2", "1", "--ck", "1", "--cn", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert out == "k=12\nn=17177\n"


@pytest.mark.parametrize("flag", ["--beta", "--b1"])
def test_complexity_infinite_bound_is_one_error_line(flag, capsys):
    bounds = {"--beta": "1", "--b1": "1", "--b2": "1", flag: "inf"}
    code = run_cli(["complexity", "--alpha", "0.25", "--rho", "0.5",
                    *[v for item in bounds.items() for v in item]])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == "error: bucket budget is not finite: beta, b1, b2 or c_k is too large\n"


def test_complexity_bucket_budget_past_int64_is_one_error_line(capsys):
    # A finite budget no TestConfig takes: refused by the calculator, not
    # as a k flag that `complexity` does not have.
    code = run_cli(["complexity", "--alpha", "1e-300", "--rho", "0.5", "--beta", "1",
                    "--b1", "1", "--b2", "1"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == ("error: bucket budget is not below 2**63 - 1: alpha or rho is too "
                            "small, or beta, b1, b2 or c_k is too large\n")


def test_infinite_noise_sigmas_is_one_error_line(capsys):
    # An infinite noise floor would put every boundary at -inf, which no
    # JSON report can hold; the config refuses it before any sampling.
    code = run_cli(["test", "--dist", "lomax", "--params", "a=1,lambda=1", "--n", "2000",
                    "--k", "8", "--alpha", "0.25", "--rho", "0.5", "--beta", "1",
                    "--b1", "1", "--b2", "1", "--noise-sigmas", "inf"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == "error: noise_sigmas must be finite and >= 0\n"


@pytest.mark.parametrize("command", ["test", "simulate"])
def test_overflowing_noise_sigmas_is_one_error_line(tmp_path, command, capsys):
    # A finite noise floor whose noise term overflows puts every boundary
    # at -inf: `test` failed to write its JSON and `simulate` wrote -inf.
    out = tmp_path / "out"
    code = run_cli([command, "--dist", "lomax", "--params", "a=1,lambda=1", "--n", "64",
                    "--k", "8", *BOUNDS, "--noise-sigmas", "1e308", "--seed", "1",
                    *(["--reps", "2"] if command == "simulate" else []), "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == "" and not out.exists()
    assert captured.err == "error: boundary is not finite: noise_sigmas is too large\n"


# Each command's own flags besides --dist, --params, --k, --alpha, --beta,
# --b1 and --out: `proxy` draws nothing and takes no --rho or --b2.
_SAMPLED = ["--n", "2000", "--seed", "1", "--rho", "0.5", "--b2", "1"]
_OWN_FLAGS = {"test": _SAMPLED, "simulate": [*_SAMPLED, "--reps", "2"], "proxy": []}


@pytest.mark.parametrize("command,flag", [("test", "--beta"), ("test", "--b2"),
                                          ("simulate", "--b1"), ("proxy", "--beta"),
                                          ("proxy", "--b1")])
def test_infinite_bound_flag_is_one_error_line(tmp_path, command, flag, capsys):
    # Refused before any sampling: an infinite bound made `test` run in
    # full and then fail to write its JSON, and `simulate` and `proxy`
    # write a zero gap.
    out = tmp_path / "out"
    code = run_cli([command, "--dist", "lomax", "--params", "a=1,lambda=1", "--k", "8",
                    "--alpha", "0.25", *_OWN_FLAGS[command], "--beta", "1", "--b1", "1",
                    flag, "inf", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == "" and not out.exists()
    assert captured.err == f"error: {flag[2:]} must be finite\n"


@pytest.mark.parametrize("command,bounds", [
    ("test", ["--alpha", "0.25", "--beta", "1e-300", "--b1", "1e-300"]),
    ("test", ["--alpha", "1e300", "--beta", "1e-10", "--b1", "1"]),
    ("simulate", ["--alpha", "0.25", "--beta", "1e-300", "--b1", "1"]),
], ids=["test-underflow", "test-overflow", "simulate"])
def test_gap_that_is_not_finite_is_one_error_line(tmp_path, command, bounds, capsys):
    # beta**3 * b1 underflowing to 0, or the quotient overflowing, made an
    # infinite gap: `test` then warned and failed to write its JSON, and
    # `simulate` warned and wrote -inf boundaries.
    out = tmp_path / "out"
    code = run_cli([command, "--dist", "lomax", "--params", "a=1,lambda=1", "--k", "8",
                    *_OWN_FLAGS[command], *bounds, "--out", str(out)])
    captured = capsys.readouterr()
    alpha, beta, b1 = (repr(float(v)) for v in bounds[1::2])
    assert code == 1 and captured.out == "" and not out.exists()
    assert captured.err == ("error: separation gap alpha*(1-z)^2 / (beta^3 * b1) is not finite "
                            f"at alpha={alpha}, beta={beta}, b1={b1}\n")


@pytest.mark.parametrize("variant", [[], ["--weak"]], ids=["full", "weak"])
def test_gap_that_is_not_finite_is_refused_before_the_input_is_read(tmp_path, variant, capsys):
    # The gap depends on the flags alone: a file was read and sorted in
    # full, or here found missing, before it was refused.
    code = run_cli(["test", "--input", str(tmp_path / "missing.txt"), *variant, "--k", "16",
                    "--alpha", "0.25", "--rho", "0.5", "--beta", "1e-300", "--b1", "1e-300",
                    "--b2", "1"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == ("error: separation gap alpha*(1-z)^2 / (beta^3 * b1) is not finite "
                            "at alpha=0.25, beta=1e-300, b1=1e-300\n")


@pytest.mark.parametrize("command,bounds", [
    ("proxy", ["--beta", "1e-300"]),
    ("proxy", ["--alpha", "0.25", "--beta", "1e300"]),
    ("test", ["--alpha", "0.25", "--rho", "0.5", "--beta", "1e300", "--b1", "1", "--b2", "1"]),
], ids=["proxy-no-alpha", "proxy-huge-beta", "test-huge-beta"])
def test_gap_that_vanishes_is_zero(tmp_path, command, bounds, capsys):
    # alpha 0 is no gap whatever the bounds (`proxy` warned and wrote nan),
    # and a beta whose cube is past the largest double gives a gap of 0
    # (both commands raised OverflowError).
    out = tmp_path / "out"
    sampled = ["--n", "2000", "--seed", "1"] if command == "test" else []
    assert run_cli([command, "--dist", "lomax", "--params", "a=1,lambda=1", "--k", "8",
                    *sampled, *bounds, "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    if command == "proxy":
        rows = out.read_text().splitlines()
        assert rows[0].endswith(",gap") and all(r.endswith(",0.0") for r in rows[1:])


@pytest.mark.parametrize("k,refusal", [
    ("0", "k must be >= 4"), ("-1", "k must be >= 4"),
    (str(2 ** 63 - 1), "k must be < 2**63 - 1"), ("1" + "0" * 400, "k must be < 2**63 - 1"),
], ids=["0", "-1", "int64", "1e400"])
@pytest.mark.parametrize("command", ["test", "simulate", "proxy"])
def test_bucket_count_out_of_range_is_one_error_line(tmp_path, command, k, refusal, capsys):
    # Refused before zeta = 1/(2k) is formed: k = 0 divided by zero,
    # k = -1 gave a negative zeta's message, and from 2**1024 on the
    # division overflowed a float and printed a traceback.
    out = tmp_path / "out"
    code = run_cli([command, "--dist", "lomax", "--params", "a=1,lambda=1", "--k", k,
                    "--alpha", "0.25", *_OWN_FLAGS[command], "--beta", "1", "--b1", "1",
                    "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == "" and not out.exists()
    assert captured.err == f"error: {refusal}\n"


def test_repeated_parameter_is_one_error_line(tmp_path, capsys):
    out = tmp_path / "out.json"
    code = run_cli(["test", "--dist", "lomax", "--params", "a=1,lambda=1,a=2", "--n", "2000",
                    "--k", "8", "--alpha", "0.25", "--rho", "0.5", "--beta", "1",
                    "--b1", "1", "--b2", "1", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == "" and not out.exists()
    assert captured.err == "error: parameter 'a' is given more than once\n"


@pytest.mark.parametrize("flags,refusal", [
    (["--params", "a=1,lambda", "--n", "2000"], "parameter 'lambda' is not of the form key=value"),
    (["--params", "a=1,lambda=1"], "--n is required with --dist"),
], ids=["param-without-equals", "no-n"])
def test_dist_flag_refusal_is_one_error_line(flags, refusal, capsys):
    code = run_cli(["test", "--dist", "lomax", *flags, "--k", "8", *BOUNDS])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == f"error: {refusal}\n"


def test_empty_parameter_items_are_skipped(capsys):
    reports = []
    for params in ("a=1,lambda=1", " a=1,,lambda=1, "):
        assert run_cli(["test", "--dist", "lomax", "--params", params, "--n", "2000",
                        "--k", "8", *BOUNDS]) == 0
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1] and '"verdict"' in reports[0]


@pytest.mark.parametrize("exc,line", [
    (MemoryError("Unable to allocate 29.1 TiB"), "error: Unable to allocate 29.1 TiB\n"),
    (MemoryError(), "error: MemoryError\n"),
], ids=["message", "bare"])
def test_refused_allocation_is_one_error_line(tmp_path, monkeypatch, exc, line, capsys):
    # `sample` draws its n values a chunk at a time, so no n it is given
    # makes it allocate O(n); the refusal is simulated at its generator,
    # which is made before the output is opened.
    def refuse(*args):
        raise exc

    monkeypatch.setattr(np.random, "default_rng", refuse)
    out = tmp_path / "x.txt"
    code = run_cli(["sample", "--dist", "lomax", "--params", "a=1,lambda=1",
                    "--n", "1000000000000", "--seed", "1", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == "" and not out.exists()
    assert captured.err == line


@pytest.mark.parametrize("n", ["0", "-3"])
def test_sample_of_fewer_than_one_value_is_one_error_line(tmp_path, n, capsys):
    out = tmp_path / "x.txt"
    code = run_cli(["sample", "--dist", "lomax", "--params", "a=1,lambda=1", "--n", n,
                    "--seed", "1", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == "" and not out.exists()
    assert captured.err == "error: n must be >= 1\n"


# Families whose quantile overflows float64: numpy warned of the overflow
# on stderr (an error in this suite) before each call's outcome.
_OVERFLOWING = {"lomax": ("a=0.001,lambda=1", "Lomax(shape=0.001, scale=1.0)"),
                "halfgaussian": ("sigma=1e308", "HalfGaussian(scale=1e+308)"),
                "exponential": ("lambda=1e-320", "Exponential(rate=1e-320)")}


@pytest.mark.parametrize("fmt", ["text", "f64"])
@pytest.mark.parametrize("family", _OVERFLOWING)
def test_sample_of_a_value_past_the_largest_double_is_one_error_line(tmp_path, family, fmt,
                                                                     capsys):
    # Each family gives inf for some of its 5 values; the chunk holding
    # one is refused before it is written, and a regular --out is left
    # as it was.
    params, name = _OVERFLOWING[family]
    out = tmp_path / "x"
    out.write_bytes(b"old\n")
    code = run_cli(["sample", "--dist", family, "--params", params, "--n", "5", "--seed", "1",
                    "--format", fmt, "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == (f"error: {name} draws a non-finite sample: "
                            f"its quantile overflows float64\n")
    assert out.read_bytes() == b"old\n" and [p.name for p in tmp_path.iterdir()] == ["x"]


@pytest.mark.parametrize("argv,line", [
    (["test", "--dist", "lomax", "--params", "a=0.001,lambda=1", "--n", "1000", "--k", "8",
      *BOUNDS], "values must all be finite"),
    (["simulate", "--dist", "exponential", "--params", "lambda=1e-320", "--reps", "2",
      "--n", "1000", "--seed", "1", "--k", "8", *BOUNDS], "values must all be finite"),
    (["proxy", "--dist", "exponential", "--params", "lambda=1e-320", "--k", "8"],
     "proxy undefined at z=0.25: pdf slope is -0.0, must be < 0"),
], ids=["test", "simulate", "proxy"])
def test_quantile_past_the_largest_double_is_one_error_line(tmp_path, argv, line, capsys):
    # The overflow gives inf, which each command refuses by name; numpy's
    # warning does not print ahead of that line.
    out = tmp_path / "out"
    code = run_cli([*argv, "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == "" and not out.exists()
    assert captured.err == f"error: {line}\n"


@pytest.mark.parametrize("sigma", ["1e308", "1e-200"])
@pytest.mark.parametrize("command", ["proxy", "simulate"])
def test_halfgaussian_scale_past_the_double_range_is_one_error_line(tmp_path, command, sigma,
                                                                   capsys):
    # sigma**2 overflowed at 1e308 (an OverflowError traceback) and was 0
    # at 1e-200 (proxy_s nan in every row, exit 0).  Each command now
    # answers finite rows or one error line that names z.
    out = tmp_path / "out.csv"
    own = ["--k", "8", "--alpha", "0.25", "--beta", "1", "--b1", "1"] if command == "proxy" else [
        "--reps", "2", "--n", "1000", "--seed", "1", "--k", "8", *BOUNDS]
    code = run_cli([command, "--dist", "halfgaussian", "--params", f"sigma={sigma}", *own,
                    "--out", str(out)])
    captured = capsys.readouterr()
    if code == 0:
        rows = out.read_text().splitlines()
        column = rows[0].split(",").index("proxy_s")
        assert all(math.isfinite(float(r.split(",")[column])) for r in rows[1:])
    else:
        assert code == 1 and captured.out == "" and not out.exists()
        assert captured.err.startswith("error: proxy undefined at z=0.25: ")
        assert captured.err.count("\n") == 1


@pytest.mark.parametrize("command", ["sample", "test", "simulate"])
def test_negative_seed_is_one_error_line(tmp_path, command, capsys):
    # numpy's refusal, "expected non-negative integer", named no flag.
    out = tmp_path / "out"
    own = {"sample": [], "test": ["--k", "8", *BOUNDS],
           "simulate": ["--k", "8", "--reps", "2", *BOUNDS]}[command]
    code = run_cli([command, "--dist", "lomax", "--params", "a=1,lambda=1", "--n", "2000",
                    "--seed", "-3", *own, "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == "" and not out.exists()
    assert captured.err == "error: seed must be >= 0\n"


@pytest.mark.parametrize("variant", [[], ["--weak"]], ids=["full", "weak"])
def test_test_answers_at_a_trillion_samples_per_split(variant, capsys):
    # A sampled test draws only the order statistics it reads.
    code = run_cli(["test", "--dist", "lomax", "--params", "a=1,lambda=1",
                    "--n", "1000000000000", "--seed", "1", "--k", "12", *BOUNDS, *variant])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0 and doc["n"] == 10 ** 12 and doc["verdict"] == "heavy"


@pytest.mark.parametrize("variant", [[], ["--weak"]], ids=["full", "weak"])
def test_simulate_answers_at_a_trillion_samples_per_split(tmp_path, variant):
    out = tmp_path / "sim.csv"
    code = run_cli(["simulate", "--dist", "lomax", "--params", "a=1,lambda=1",
                    "--n", "1000000000000", "--seed", "1", "--k", "12", "--reps", "2",
                    *BOUNDS, *variant, "--out", str(out)])
    assert code == 0 and len(out.read_text().splitlines()) > 1


@pytest.mark.parametrize("command", [["test"], ["test", "--weak"],
                                     ["simulate", "--reps", "2", "--seed", "1"]],
                         ids=["test-full", "test-weak", "simulate"])
def test_n_beyond_int64_is_one_error_line(tmp_path, command, capsys):
    # A sampled test makes no n-sized array, so the ranks' int64
    # arithmetic is what bounds n.
    out = tmp_path / "out"
    code = run_cli([*command, "--dist", "lomax", "--params", "a=1,lambda=1",
                    "--n", str(10 ** 20), "--k", "12", *BOUNDS, "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == "" and not out.exists()
    assert captured.err == "error: n must be < 2**63 - 1\n"


def test_no_command_loads_scipy(tmp_path):
    # Start-up cost: importing scipy.special takes about 0.3 s, more than a
    # sampled test spends computing.  No command and no half-Gaussian
    # method loads any scipy module.
    script = (
        "import contextlib, io, sys\n"
        "import numpy as np\n"
        "import tailtest as tt, tailtest.cli\n"
        "bounds = ['--alpha', '0.25', '--rho', '0.5', '--beta', '1', '--b1', '1', '--b2', '1']\n"
        "dist = ['--dist', 'halfgaussian', '--params', 'sigma=1', '--k', '8']\n"
        f"out = ['--out', {str(tmp_path / 'out')!r}]\n"
        "for argv in (['complexity', *bounds], ['test', *dist, '--n', '1000', *bounds, *out],\n"
        "             ['test', *dist, '--n', '1000', *bounds, '--weak', *out],\n"
        "             ['simulate', *dist, '--n', '1000', '--reps', '2', '--seed', '1',\n"
        "              *bounds, *out],\n"
        "             ['proxy', *dist, '--alpha', '0.25', *out]):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert tailtest.cli.run_cli(argv) == 0, argv\n"
        "model, x = tt.HalfGaussian(1.0), np.linspace(0.0, 5.0, 11)\n"
        "model.cdf(x), model.sf(x), model.quantile(x / 6.0), model.hazard_rate(x)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    out = subprocess.run([sys.executable, "-c", script], env=_child_env(), check=True,
                         capture_output=True, text=True).stdout.splitlines()
    assert out == ["[]"]


def test_a_second_sampled_test_loads_no_module():
    # Start-up cost: `complexity` loads only argparse's lazy locale
    # lookup, and a second sampled test loads nothing the first has not.
    # None of them loads what only text files need: the text writer's
    # kernel and tables, the reader's kernel, and subprocess, which takes
    # 7.5 ms to import.
    script = (
        "import contextlib, io, json, sys\n"
        "import tailtest.cli\n"
        "bounds = ['--alpha', '0.25', '--rho', '0.5', '--beta', '1', '--b1', '1', '--b2', '1']\n"
        "test = ['test', '--dist', 'lomax', '--params', 'a=1,lambda=1', '--k', '12', *bounds]\n"
        "for argv in (['complexity', *bounds], [*test, '--n', '1000'],\n"
        "             [*test, '--n', '1000000', '--weak']):\n"
        "    before = set(sys.modules)\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert tailtest.cli.run_cli(argv) == 0\n"
        "    print(json.dumps(sorted(set(sys.modules) - before)))\n"
        "text = {'subprocess', 'tailtest._textlines', 'tailtest._decimal'}\n"
        "print(json.dumps(sorted(text & set(sys.modules))))\n"
    )
    out = subprocess.run([sys.executable, "-c", script], env=_child_env(), check=True,
                         capture_output=True, text=True).stdout.splitlines()
    complexity, first, second, text = map(json.loads, out)
    assert set(complexity) <= {"_locale", "locale"}
    assert first and second == []
    assert text == []


def test_sample_text_deterministic(tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    args = ["sample", "--dist", "exponential", "--params", "lambda=1",
            "--n", "500", "--seed", "7"]
    assert run_cli(args + ["--out", str(a)]) == 0
    assert run_cli(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("n", [1, _BLOCK - 1, _BLOCK, _BLOCK + 1, _CHUNK - 1, _CHUNK,
                               _CHUNK + 1, _CHUNK + _BLOCK + 1, 2 * _CHUNK + 3, 200_003])
def test_sample_text_is_one_repr_per_line(tmp_path, n):
    # At the kernel's block edges and across chunks.
    out = tmp_path / "x.txt"
    assert run_cli(["sample", "--dist", "lomax", "--params", "a=1,lambda=1",
                    "--n", str(n), "--seed", "4", "--out", str(out)]) == 0
    values = tt.sample(tt.Lomax(1.0, 1.0), n, seed=4)
    expected = "\n".join(repr(float(v)) for v in values) + "\n"
    assert out.read_bytes() == expected.encode("ascii")


# Runs the CLI calls in its arguments, each a JSON list, in a fresh
# interpreter where every way ``os`` has to start a process raises, and
# prints which modules of a process pool or of either text kernel loaded.
_NO_PROCESS = (
    "import json, os, sys\n"
    "def started(*args, **kwargs):\n"
    "    raise AssertionError('a process was started')\n"
    "for name in ('fork', 'forkpty', 'posix_spawn', 'posix_spawnp', 'system', 'popen',\n"
    "             'execv', 'execve', 'spawnv', 'spawnve'):\n"
    "    setattr(os, name, started)\n"
    "import tailtest.cli\n"
    "for argv in sys.argv[1:]:\n"
    "    assert tailtest.cli.run_cli(json.loads(argv)) == 0, argv\n"
    "loaded = {'subprocess', 'multiprocessing', 'tailtest._textlines', 'tailtest._decimal'}\n"
    "print(json.dumps(sorted(loaded & set(sys.modules))))\n"
)


def _loaded_in_a_fresh_interpreter(*argvs, stdin: str = "") -> list[str]:
    out = subprocess.run([sys.executable, "-c", _NO_PROCESS, *map(json.dumps, argvs)],
                         env=_child_env(), input=stdin, check=True, capture_output=True,
                         text=True).stdout
    return json.loads(out)


def test_sample_text_starts_no_process_and_imports_no_subprocess(tmp_path):
    # Writing text loads the writer's kernel, and not subprocess.
    argv = ["sample", "--dist", "lomax", "--params", "a=1,lambda=1", "--n", "300000",
            "--seed", "4", "--out", str(tmp_path / "x.txt")]
    assert _loaded_in_a_fresh_interpreter(argv) == ["tailtest._decimal"]


def test_reading_text_starts_no_process_and_imports_no_subprocess(tmp_path):
    # Reading text, from a file and from a pipe, loads the reader's
    # kernel, and neither subprocess nor multiprocessing.
    p = tmp_path / "x.txt"
    p.write_text("".join(f"{v!r}\n" for v in tt.sample(tt.Lomax(1.0, 1.0), 300_000, 4).tolist()))
    test = ["test", "--k", "16", *BOUNDS, "--weak", "--out", str(tmp_path / "r.json")]
    loaded = _loaded_in_a_fresh_interpreter([*test, "--input", str(p)],
                                            [*test, "--input", "/dev/stdin"], stdin=p.read_text())
    assert loaded == ["tailtest._textlines"]


def test_write_failing_midway_is_one_error_line(tmp_path, monkeypatch, capsys):
    # The disk fills after the first write: one error line, no temp file.
    real_fdopen = os.fdopen

    class FullDisk:
        def __init__(self, fd, mode):
            self.fh = real_fdopen(fd, mode)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def writelines(self, chunks):
            for j, chunk in enumerate(chunks):
                if j:
                    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
                self.fh.write(chunk)

    monkeypatch.setattr(os, "fdopen", FullDisk)
    out = tmp_path / "x.txt"
    assert run_cli(["sample", "--dist", "lomax", "--params", "a=1,lambda=1",
                    "--n", str(4 * _CHUNK), "--seed", "4", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: [Errno 28] No space left on device\n"
    assert list(tmp_path.iterdir()) == []


def test_bad_literal_in_a_late_block_is_one_error_line(tmp_path, monkeypatch, capfd):
    # The 32nd block holds line 501; the line loop names it, and nothing
    # else reaches the CLI's stderr.
    monkeypatch.setattr(_textlines, "_BLOCK", 64)  # 16 lines of "1.0"
    p = tmp_path / "late.txt"
    p.write_text("1.0\n" * 500 + "4.0e\n" + "2.0\n" * 100)
    assert run_cli(["test", "--input", str(p), "--k", "16", "--alpha", "0.25", "--rho", "0.5",
                    "--beta", "1", "--b1", "1", "--b2", "1", "--weak"]) == 1
    assert capfd.readouterr().err == f"error: {p}: line 501: cannot parse '4.0e'\n"


def _feed(fifo, data):
    """Write ``data`` to ``fifo``, whose reader may stop early."""
    with contextlib.suppress(BrokenPipeError):
        fifo.write_bytes(data)


@pytest.mark.parametrize("stream", [False, True], ids=["file", "fifo"])
def test_invalid_utf8_names_the_file_and_line(tmp_path, stream, capfd):
    # Lines of 5,000 values, with two bytes that are not UTF-8 as line
    # 3,001: the message names the path and the file line, from a file
    # and from a FIFO alike, not an offset into a decoder's buffer.
    lines = [repr(v).encode() for v in tt.sample(tt.Lomax(1.0, 1.0), 5000, seed=4).tolist()]
    data = b"\n".join([*lines[:3000], b"\xff\xfe", *lines[3000:]]) + b"\n"
    p = tmp_path / "bad.txt"
    if stream:
        os.mkfifo(p)
        feeder = threading.Thread(target=_feed, args=(p, data), daemon=True)
        feeder.start()  # its open blocks until the CLI opens the other end
    else:
        p.write_bytes(data)
    assert run_cli(["test", "--input", str(p), "--k", "16", "--alpha", "0.25", "--rho", "0.5",
                    "--beta", "1", "--b1", "1", "--b2", "1", "--weak"]) == 1
    assert capfd.readouterr().err == f"error: {p}: line 3001: not UTF-8\n"
    if stream:
        feeder.join(timeout=30)
        assert not feeder.is_alive()


def test_atomic_write_failure_leaves_target(tmp_path):
    target = tmp_path / "out.txt"
    target.write_bytes(b"old\n")

    def chunks():
        yield b"x" * (1 << 20)  # more than the file buffer, so it reaches the temp file
        raise RuntimeError("chunk failed")

    with pytest.raises(RuntimeError, match="chunk failed"):
        _atomic_write(str(target), chunks())
    assert target.read_bytes() == b"old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


def test_write_error_is_reported_when_its_temp_file_cannot_be_removed(tmp_path, monkeypatch):
    # Removing the temp file after a failed write fails too: that second
    # failure is ignored, and the write's own error is the one raised.
    target = tmp_path / "out.txt"
    target.write_bytes(b"old\n")
    removals = []

    def chunks():
        yield b"x" * (1 << 20)
        raise RuntimeError("chunk failed")

    def refuse(path):
        removals.append(Path(path))
        raise PermissionError(errno.EACCES, "refused", path)

    monkeypatch.setattr(os, "unlink", refuse)
    with pytest.raises(RuntimeError, match="chunk failed"):
        _atomic_write(str(target), chunks())
    assert target.read_bytes() == b"old\n"
    assert [p.parent for p in removals] == [tmp_path] and removals[0].name.startswith("out.txt.")
    assert removals[0].stat().st_size == 1 << 20  # the temp file, left behind


def test_outputs_get_the_mode_of_a_plain_new_file(tmp_path):
    # The temp file behind an atomic write is created 0600; the output
    # must have the mode open() gives a new file under the umask, and
    # overwriting a file must not narrow it.
    plain, out = tmp_path / "plain.txt", tmp_path / "out.txt"
    previous = os.umask(0o022)
    try:
        for umask in (0o022, 0o027):
            os.umask(umask)
            for target in (plain, out):
                target.unlink(missing_ok=True)
            plain.write_bytes(b"")
            for _ in range(2):  # a new file, then an overwrite
                assert run_cli(["sample", "--dist", "exponential", "--params", "lambda=1",
                                "--n", "10", "--seed", "1", "--out", str(out)]) == 0
                assert out.stat().st_mode & 0o777 == plain.stat().st_mode & 0o777 \
                    == 0o666 & ~umask
    finally:
        os.umask(previous)


_LOMAX = ["sample", "--dist", "lomax", "--params", "a=1,lambda=1", "--seed", "4"]


@pytest.mark.parametrize("fmt", ["text", "f64"])
def test_sample_into_a_fifo_writes_through_it(tmp_path, fmt):
    # A path that is not a regular file (a FIFO, a device) is written in
    # place: renaming a temp file over it left its reader with nothing.
    fifo, plain = tmp_path / "fifo", tmp_path / "plain"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
    reader.start()  # its open blocks until the writer opens the other end
    args = [*_LOMAX, "--n", "3000", "--format", fmt]
    assert run_cli([*args, "--out", str(fifo)]) == 0
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    reader.join(timeout=30)
    assert not reader.is_alive()
    assert run_cli([*args, "--out", str(plain)]) == 0
    assert got == [plain.read_bytes()]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fifo", "plain"]


def test_sample_through_a_symlink_replaces_what_it_links_to(tmp_path):
    # The temp file is made and renamed beside the file the link resolves
    # to, in that file's directory: the link stays a link.
    (tmp_path / "data").mkdir()
    (tmp_path / "links").mkdir()
    real, plain = tmp_path / "data" / "real.txt", tmp_path / "plain.txt"
    real.write_bytes(b"old\n")
    link = tmp_path / "links" / "link.txt"
    link.symlink_to(os.path.join("..", "data", "real.txt"))
    assert run_cli([*_LOMAX, "--n", "3000", "--out", str(link)]) == 0
    assert link.is_symlink() and os.readlink(link) == os.path.join("..", "data", "real.txt")
    assert run_cli([*_LOMAX, "--n", "3000", "--out", str(plain)]) == 0
    assert real.read_bytes() == plain.read_bytes()
    assert [p.name for p in (tmp_path / "data").iterdir()] == ["real.txt"]
    assert [p.name for p in (tmp_path / "links").iterdir()] == ["link.txt"]


# Starts the command in its arguments and prints its peak RSS in KiB as
# ``wait4`` reports it: that of the child or of any process it reaped.
# A child's figure is at least the peak of the process that spawned it
# (``exec`` keeps the high-water mark of the address space it replaces),
# so it is spawned from this small interpreter, not from pytest's.
_PEAK_RSS = (
    "import os, subprocess, sys\n"
    "proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)\n"
    "_, status, usage = os.wait4(proc.pid, 0)\n"
    "proc.returncode = os.waitstatus_to_exitcode(status)\n"
    "print(proc.returncode, usage.ru_maxrss)\n"
)


def _sample_peak_rss_kib(tmp_path, n: int, fmt: str) -> int:
    out = tmp_path / f"x.{fmt}"
    done = subprocess.run([sys.executable, "-I", "-S", "-c", _PEAK_RSS, sys.executable, "-m",
                           "tailtest.cli", *_LOMAX, "--n", str(n), "--format", fmt,
                           "--out", str(out)], env=_child_env(),
                          check=True, capture_output=True, text=True, timeout=300)
    code, peak = map(int, done.stdout.split())
    assert code == 0
    assert out.stat().st_size >= (8 if fmt == "f64" else 4) * n
    out.unlink()
    return peak


@pytest.mark.parametrize("fmt", ["text", "f64"])
def test_sample_peak_rss_is_flat_in_n(tmp_path, fmt):
    # A `sample` call's one process holds a few chunks of values and
    # their text whatever n is; holding the n values would add 30 MB from
    # 2**18 to 2**22 values.
    small, large = (_sample_peak_rss_kib(tmp_path, n, fmt) for n in (1 << 18, 1 << 22))
    assert abs(large - small) <= 3 * 1024, (small, large)


@pytest.mark.parametrize("n", [100, 2 * _CHUNK + 3])
def test_sample_f64_matches_library(tmp_path, n):
    out = tmp_path / "x.f64"
    assert run_cli(["sample", "--dist", "lomax", "--params", "a=1,lambda=1",
                    "--n", str(n), "--seed", "3", "--out", str(out),
                    "--format", "f64"]) == 0
    from_file = np.frombuffer(out.read_bytes(), dtype="<f8")
    direct = tt.sample(tt.Lomax(1.0, 1.0), n, seed=3)
    assert np.array_equal(from_file, direct)


def _file_test_matches(tmp_path, n, k, variant):
    """`sample` to a file, then `test --input`: the bytes of the library's
    test of the seed's sample (weak) or of its four splits dealt
    round-robin (full)."""
    model, seed, weak = tt.Lomax(1.0, 1.0), 21, variant is tt.Variant.WEAK
    sample_file, report = tmp_path / "s.txt", tmp_path / "r.json"
    assert run_cli(["sample", "--dist", "lomax", "--params", "a=1,lambda=1",
                    "--n", str(n if weak else 4 * n), "--seed", str(seed),
                    "--out", str(sample_file)]) == 0
    assert run_cli(["test", "--input", str(sample_file), "--k", str(k), *BOUNDS,
                    *(["--weak"] if weak else []), "--out", str(report)]) == 0
    config = tt.TestConfig(tail=tt.TailParams(0.25, 0.5),
                           bounds=tt.WellBehavedBounds(1.0, 1.0, 1.0, 1 / (2 * k)), k=k,
                           variant=variant)
    values = tt.sample(model, n if weak else 4 * n, seed)
    if weak:
        expected = tt.run_test([tt.SortedSampleSplit.from_samples(values)], config)
    else:
        expected = tt.run_test(
            [tt.SortedSampleSplit.from_samples(values[j::4]) for j in range(4)], config)
    assert report.read_bytes() == tt.serialize_report(expected)


def test_text_file_read_as_f64_is_one_error_line(tmp_path, capsys):
    # 76,392 bytes of text, a multiple of 8: it was read as 9,549 doubles
    # and tested heavy, though its values are exponential.
    p = tmp_path / "e.txt"
    assert run_cli(["sample", "--dist", "exponential", "--params", "lambda=1", "--n", "4000",
                    "--seed", "12", "--out", str(p)]) == 0
    assert p.stat().st_size == 76_392
    code = run_cli(["test", "--input", str(p), "--format", "f64", "--k", "8", "--weak", *BOUNDS])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == \
        f"error: {p}: printable ASCII lines are text, not raw f64; read it as text\n"


@pytest.mark.parametrize("variant", [tt.Variant.WEAK, tt.Variant.FULL])
def test_raw_input_piped_to_stdin_reports_as_the_file(tmp_path, variant):
    # A pipe is read by the loop that reads a file, to the same bytes.
    sample_file, report = tmp_path / "s.f64", tmp_path / "r.json"
    assert run_cli([*_LOMAX, "--n", "40000", "--format", "f64", "--out", str(sample_file)]) == 0
    flags = ["--format", "f64", "--k", "8", *BOUNDS,
             *(["--weak"] if variant is tt.Variant.WEAK else [])]
    assert run_cli(["test", "--input", str(sample_file), *flags, "--out", str(report)]) == 0
    piped = subprocess.run([sys.executable, "-m", "tailtest.cli", "test", "--input", "/dev/stdin",
                            *flags], input=sample_file.read_bytes(), env=_child_env(), check=True,
                           capture_output=True, timeout=120)
    assert piped.stdout == report.read_bytes() and piped.stderr == b""


def test_pipeline_consistency_weak(tmp_path):
    _file_test_matches(tmp_path, 120_000, 16, tt.Variant.WEAK)


def test_pipeline_consistency_full(tmp_path):
    # A file of 4n values is split on ingestion by dealing it round-robin.
    _file_test_matches(tmp_path, 10_000, 8, tt.Variant.FULL)


def test_exit_verdict_codes(tmp_path):
    common = ["--k", "16", "--alpha", "0.25", "--rho", "0.5", "--beta", "1",
              "--b1", "64", "--b2", "1024", "--weak", "--exit-verdict",
              "--out", str(tmp_path / "r.json")]
    heavy = run_cli(["test", "--dist", "lomax", "--params", "a=1,lambda=1",
                     "--n", "200000", "--seed", "1"] + common)
    assert heavy == 3
    light = run_cli(["test", "--dist", "exponential", "--params", "lambda=1",
                     "--n", "200000", "--seed", "1"] + common)
    assert light == 4


def test_exit_verdict_regression_full_scale(tmp_path):
    # fixed-seed regression at the documented configuration
    code = run_cli(["test", "--dist", "exponential", "--params", "lambda=1",
                    "--n", "1000000", "--seed", "1", "--k", "16",
                    "--alpha", "0.25", "--rho", "0.5", "--beta", "1",
                    "--b1", "64", "--b2", "1024", "--weak", "--exit-verdict",
                    "--out", str(tmp_path / "r.json")])
    assert code == 4


def test_test_reports_json_schema(tmp_path):
    out = tmp_path / "r.json"
    assert run_cli(["test", "--dist", "exponential", "--params", "lambda=1",
                    "--n", "40000", "--seed", "5", "--k", "8",
                    "--alpha", "0.25", "--rho", "0.5", "--beta", "1",
                    "--b1", "1", "--b2", "1", "--weak", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["k"] == 8 and doc["n"] == 40000 and doc["seed"] == 5
    assert doc["verdict"] in ("heavy", "light")
    assert all({"i", "s_hat", "boundary", "margin", "degenerate"} == set(b)
               for b in doc["buckets"])


def test_test_majority_vote(tmp_path):
    out = tmp_path / "r.json"
    assert run_cli(["test", "--dist", "lomax", "--params", "a=1,lambda=1",
                    "--n", "60000", "--seed", "2", "--reps", "5", "--k", "8",
                    "--alpha", "0.25", "--rho", "0.5", "--beta", "1",
                    "--b1", "1", "--b2", "1", "--weak", "--exit-verdict",
                    "--out", str(out)]) == 3
    assert json.loads(out.read_text())["verdict"] == "heavy"


@pytest.mark.parametrize("variant", [[], ["--weak"]], ids=["full", "weak"])
def test_test_one_rep_is_the_plain_report(tmp_path, variant):
    # One run's vote is its own verdict, so --reps 1 writes plain test's bytes.
    args = ["test", "--dist", "lomax", "--params", "a=1,lambda=1", "--n", "20000", "--seed", "3",
            "--k", "8", "--alpha", "0.25", "--rho", "0.5", "--beta", "1", "--b1", "1",
            "--b2", "1", *variant, "--out"]
    assert run_cli([*args, str(tmp_path / "plain")]) == 0
    assert run_cli([*args, str(tmp_path / "once"), "--reps", "1"]) == 0
    assert (tmp_path / "once").read_bytes() == (tmp_path / "plain").read_bytes()


def test_proxy_curve_csv(tmp_path):
    out = tmp_path / "curve.csv"
    assert run_cli(["proxy", "--dist", "lomax", "--params", "a=1,lambda=1",
                    "--k", "8", "--alpha", "0.25", "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "i,z,proxy_s,s_tilde,threshold,gap"
    assert len(lines) == 1 + 5  # buckets 2..6
    first = lines[1].split(",")
    assert int(first[0]) == 2
    assert float(first[2]) == pytest.approx(0.375)  # lomax: (1-z)/2 at z=0.25


def test_simulate_writes_deterministic_csv(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["simulate", "--dist", "exponential", "--params", "lambda=1",
            "--reps", "3", "--k", "8", "--n", "20000", "--seed", "4",
            "--alpha", "0.25", "--rho", "0.5", "--beta", "1", "--b1", "1",
            "--b2", "1", "--weak"]
    assert run_cli(args + ["--out", str(a)]) == 0
    assert run_cli(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    header = a.read_text().split("\n")[0]
    assert header == "i,s_hat_mean,s_hat_std,proxy_s,threshold,boundary"


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        run_cli(["test", "--k", "16"])  # many required flags missing
    assert exc.value.code == 2


def test_domain_error_exits_1(tmp_path, capsys):
    code = run_cli(["sample", "--dist", "cauchy", "--params", "x=1",
                    "--n", "10", "--seed", "1", "--out", str(tmp_path / "x.txt")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_bad_param_string_exits_1(tmp_path):
    code = run_cli(["sample", "--dist", "exponential", "--params", "lambda=abc",
                    "--n", "10", "--seed", "1", "--out", str(tmp_path / "x.txt")])
    assert code == 1


# One call per exit code, each writing what it writes to stdout and stderr.
_VERDICT = ["--k", "16", "--alpha", "0.25", "--rho", "0.5", "--beta", "1", "--b1", "64",
            "--b2", "1024", "--n", "200000", "--seed", "1", "--weak", "--exit-verdict"]
_EXIT_CALLS = {
    0: ["test", "--dist", "lomax", "--params", "a=1,lambda=1", "--n", "2000", "--k", "8",
        *BOUNDS],
    1: ["complexity", "--alpha", "0.25", "--rho", "0.5", "--beta", "inf", "--b1", "1",
        "--b2", "1"],
    2: ["test", "--k", "16"],
    3: ["test", "--dist", "lomax", "--params", "a=1,lambda=1", *_VERDICT],
    4: ["test", "--dist", "exponential", "--params", "lambda=1", *_VERDICT],
}


@pytest.mark.parametrize("code", sorted(_EXIT_CALLS))
def test_a_cli_process_answers_as_run_cli(code, capsys):
    # `python -m tailtest.cli`, the path the console script and the
    # benchmark take, writes the bytes and exits with the code of the
    # same call in process; that call leaves the collector as it was.
    argv = _EXIT_CALLS[code]
    frozen, enabled = gc.get_freeze_count(), gc.isenabled()
    try:
        assert run_cli(argv) == code
    except SystemExit as exc:  # argparse's usage error
        assert exc.code == code
    assert (gc.get_freeze_count(), gc.isenabled()) == (frozen, enabled)
    captured = capsys.readouterr()
    child = subprocess.run([sys.executable, "-m", "tailtest.cli", *argv], env=_child_env(),
                           capture_output=True, timeout=120)
    assert child.returncode == code
    assert child.stdout == captured.out.encode("ascii")
    assert child.stderr == captured.err.encode("ascii")


# Calls the CLI's entry point with its arguments, printing to stderr the
# collector's state as the command starts.
_FREEZE_AT_RUN = (
    "import gc, sys\n"
    "import tailtest.cli as cli\n"
    "run = cli.run_cli\n"
    "def spy(argv=None):\n"
    "    print(gc.get_freeze_count(), gc.isenabled(), file=sys.stderr)\n"
    "    return run(argv)\n"
    "cli.run_cli = spy\n"
    "cli.main()\n"
)


def test_main_runs_its_command_on_a_frozen_heap():
    # The imported heap sits in the permanent generation, which no
    # collection traces, exit's included; the collector still runs.
    child = subprocess.run([sys.executable, "-c", _FREEZE_AT_RUN, "complexity", *BOUNDS],
                           env=_child_env(), capture_output=True, text=True, timeout=120)
    assert child.returncode == 0 and child.stdout == "k=12\nn=17177\n"
    frozen, enabled = child.stderr.split()
    assert int(frozen) > 0 and enabled == "True"


def test_reps_with_input_rejected(tmp_path, capsys):
    # --reps, --n, --params and --seed only shape --dist draws; with a
    # file they would be ignored, so each is refused with one error line.
    sample_file = tmp_path / "s.txt"
    sample_file.write_text("\n".join(str(v / 10) for v in range(1, 200)) + "\n")
    for extra in (["--reps", "3"], ["--n", "7"], ["--params", "a=3"], ["--seed", "3"]):
        code = run_cli(["test", "--input", str(sample_file), *extra,
                        "--k", "8", "--alpha", "0.25", "--rho", "0.5",
                        "--beta", "1", "--b1", "1", "--b2", "1", "--weak"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_both_input_and_dist_rejected(tmp_path):
    sample_file = tmp_path / "s.txt"
    sample_file.write_text("1.0\n2.0\n")
    code = run_cli(["test", "--input", str(sample_file), "--dist", "exponential",
                    "--params", "lambda=1", "--n", "10", "--k", "8",
                    "--alpha", "0.25", "--rho", "0.5", "--beta", "1",
                    "--b1", "1", "--b2", "1"])
    assert code == 1


def test_full_input_of_uneven_count_is_one_error_line(tmp_path, capsys):
    # Five values cannot fill four equal splits; the benchmark's file
    # workload matches this exact refusal.
    sample_file = tmp_path / "five.txt"
    sample_file.write_text("1.0\n2.0\n3.0\n4.0\n5.0\n")
    code = run_cli(["test", "--input", str(sample_file), "--k", "8", "--alpha", "0.25",
                    "--rho", "0.5", "--beta", "1", "--b1", "1", "--b2", "1"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == "error: all four splits must hold the same number of samples\n"


BOUNDS_FLAGS = {"--alpha", "--rho", "--beta", "--b1", "--b2"}


# Every subcommand's exact option set: a new flag fails here until it is
# pinned on purpose.
@pytest.mark.parametrize("command,flags", [
    ("sample", {"--dist", "--params", "--n", "--seed", "--out", "--format"}),
    ("proxy", {"--dist", "--params", "--k", "--alpha", "--beta", "--b1", "--out"}),
    ("test", {"--input", "--format", "--dist", "--params", "--n", "--seed", "--k",
              *BOUNDS_FLAGS, "--weak", "--noise-sigmas", "--reps", "--out",
              "--exit-verdict"}),
    ("simulate", {"--dist", "--params", "--reps", "--k", "--n", "--seed", *BOUNDS_FLAGS,
                  "--weak", "--noise-sigmas", "--out"}),
    ("complexity", {*BOUNDS_FLAGS, "--ck", "--cn"}),
])
def test_help_lists_flags(command, flags, capsys):
    subparsers = next(a for a in _build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    options = {s for a in subparsers.choices[command]._actions for s in a.option_strings}
    assert options - {"-h", "--help"} == flags
    with pytest.raises(SystemExit) as exc:
        run_cli([command, "--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    for flag in flags:
        assert flag in text
