import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tailtest as tt
from tailtest import distributions
from tailtest.cli import _atomic_write, _build_parser, run_cli
from tailtest.distributions import _CHUNK


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


def test_infinite_noise_sigmas_is_one_error_line(capsys):
    # An infinite noise floor would put every boundary at -inf, which no
    # JSON report can hold; the config refuses it before any sampling.
    code = run_cli(["test", "--dist", "lomax", "--params", "a=1,lambda=1", "--n", "2000",
                    "--k", "8", "--alpha", "0.25", "--rho", "0.5", "--beta", "1",
                    "--b1", "1", "--b2", "1", "--noise-sigmas", "inf"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == "error: noise_sigmas must be finite and >= 0\n"


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


@pytest.mark.parametrize("k", ["0", "-1"])
@pytest.mark.parametrize("command", ["test", "simulate", "proxy"])
def test_bucket_count_below_four_is_one_error_line(tmp_path, command, k, capsys):
    # Refused before zeta = 1/(2k) is formed: k = 0 divided by zero, and
    # k = -1 gave a negative zeta's message.
    out = tmp_path / "out"
    code = run_cli([command, "--dist", "lomax", "--params", "a=1,lambda=1", "--k", k,
                    "--alpha", "0.25", *_OWN_FLAGS[command], "--beta", "1", "--b1", "1",
                    "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == "" and not out.exists()
    assert captured.err == "error: k must be >= 4\n"


def test_repeated_parameter_is_one_error_line(tmp_path, capsys):
    out = tmp_path / "out.json"
    code = run_cli(["test", "--dist", "lomax", "--params", "a=1,lambda=1,a=2", "--n", "2000",
                    "--k", "8", "--alpha", "0.25", "--rho", "0.5", "--beta", "1",
                    "--b1", "1", "--b2", "1", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == "" and not out.exists()
    assert captured.err == "error: parameter 'a' is given more than once\n"


@pytest.mark.parametrize("exc,line", [
    (MemoryError("Unable to allocate 29.1 TiB"), "error: Unable to allocate 29.1 TiB\n"),
    (MemoryError(), "error: MemoryError\n"),
], ids=["message", "bare"])
def test_refused_allocation_is_one_error_line(monkeypatch, exc, line, capsys):
    def refuse(*args):
        raise exc

    monkeypatch.setattr(distributions, "uniforms", refuse)
    code = run_cli(["test", "--dist", "lomax", "--params", "a=1,lambda=1",
                    "--n", "1000000000000", "--k", "8", "--alpha", "0.25", "--rho", "0.5",
                    "--beta", "1", "--b1", "1", "--b2", "1"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == line


def test_scipy_loaded_only_by_the_half_gaussian():
    # Start-up cost: importing the package and running a command that
    # needs no half-Gaussian must not import scipy; the half-Gaussian
    # quantile then imports it and gives the same value as an eager import.
    src = Path(tt.__file__).resolve().parents[1]
    script = (
        "import contextlib, io, sys\n"
        "import tailtest as tt, tailtest.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = tailtest.cli.run_cli(['complexity', '--alpha', '0.25', '--rho', '0.5',\n"
        "        '--beta', '1', '--b1', '1', '--b2', '1'])\n"
        "assert code == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        "print(tt.quantile(tt.HalfGaussian(1.0), 0.5).hex())\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True).stdout.splitlines()
    assert out == ["[]", "0x1.5956b87528a4ap-1"]


def test_worker_threads_load_no_module():
    # Start-up cost: `complexity` loads only argparse's lazy locale
    # lookup, and a full test drawn and sorted on two threads (4n at the
    # floor of 2**19 values per thread) loads nothing that a test on one
    # thread has not loaded.
    src = Path(tt.__file__).resolve().parents[1]
    script = (
        "import contextlib, io, json, os, sys\n"
        "import tailtest.cli\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "bounds = ['--alpha', '0.25', '--rho', '0.5', '--beta', '1', '--b1', '1', '--b2', '1']\n"
        "test = ['test', '--dist', 'lomax', '--params', 'a=1,lambda=1', '--k', '12', *bounds]\n"
        "for argv in (['complexity', *bounds], [*test, '--n', str(2**18 - 1)],\n"
        "             [*test, '--n', str(2**18)]):\n"
        "    before = set(sys.modules)\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert tailtest.cli.run_cli(argv) == 0\n"
        "    print(json.dumps(sorted(set(sys.modules) - before)))\n"
        "print(json.dumps([m for m in sys.modules if m.split('.')[0] == 'concurrent']))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True).stdout.splitlines()
    complexity, below, above, concurrent = map(json.loads, out)
    assert set(complexity) <= {"_locale", "locale"}
    assert below and above == [] and concurrent == []


def test_sample_text_deterministic(tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    args = ["sample", "--dist", "exponential", "--params", "lambda=1",
            "--n", "500", "--seed", "7"]
    assert run_cli(args + ["--out", str(a)]) == 0
    assert run_cli(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("n", [1, 2 * _CHUNK + 3])
def test_sample_text_is_one_repr_per_line(tmp_path, n):
    out = tmp_path / "x.txt"
    assert run_cli(["sample", "--dist", "lomax", "--params", "a=1,lambda=1",
                    "--n", str(n), "--seed", "4", "--out", str(out)]) == 0
    values = tt.sample(tt.Lomax(1.0, 1.0), n, seed=4)
    expected = "\n".join(repr(float(v)) for v in values) + "\n"
    assert out.read_bytes() == expected.encode("ascii")


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


def test_sample_f64_matches_library(tmp_path):
    out = tmp_path / "x.f64"
    assert run_cli(["sample", "--dist", "lomax", "--params", "a=1,lambda=1",
                    "--n", "100", "--seed", "3", "--out", str(out),
                    "--format", "f64"]) == 0
    from_file = np.frombuffer(out.read_bytes(), dtype="<f8")
    direct = tt.sample(tt.Lomax(1.0, 1.0), 100, seed=3)
    assert np.array_equal(from_file, direct)


def test_pipeline_consistency_weak(tmp_path):
    # sample to a file, test the file: verdict matches the direct path
    sample_file = tmp_path / "s.txt"
    n, seed = 120_000, 21
    assert run_cli(["sample", "--dist", "lomax", "--params", "a=1,lambda=1",
                    "--n", str(n), "--seed", str(seed), "--out", str(sample_file)]) == 0
    common = ["--k", "16", "--alpha", "0.25", "--rho", "0.5", "--beta", "1",
              "--b1", "1", "--b2", "1", "--weak"]
    direct = tmp_path / "direct.json"
    via_file = tmp_path / "file.json"
    assert run_cli(["test", "--dist", "lomax", "--params", "a=1,lambda=1",
                    "--n", str(n), "--seed", str(seed), "--out", str(direct)]
                   + common) == 0
    assert run_cli(["test", "--input", str(sample_file), "--out", str(via_file)]
                   + common) == 0
    assert json.loads(direct.read_text())["verdict"] == \
        json.loads(via_file.read_text())["verdict"]
    # the weak path sorts the same multiset either way, so buckets agree too
    assert json.loads(direct.read_text())["buckets"] == \
        json.loads(via_file.read_text())["buckets"]


def test_pipeline_consistency_full(tmp_path):
    # full variant: the direct path deals one 4n stream round-robin, which
    # is exactly how a sample file is split on ingestion
    sample_file = tmp_path / "s4.txt"
    n_split, seed = 10_000, 9
    assert run_cli(["sample", "--dist", "lomax", "--params", "a=1,lambda=1",
                    "--n", str(4 * n_split), "--seed", str(seed),
                    "--out", str(sample_file)]) == 0
    common = ["--k", "8", "--alpha", "0.25", "--rho", "0.5", "--beta", "1",
              "--b1", "1", "--b2", "1"]
    direct = tmp_path / "direct.json"
    via_file = tmp_path / "file.json"
    assert run_cli(["test", "--dist", "lomax", "--params", "a=1,lambda=1",
                    "--n", str(n_split), "--seed", str(seed),
                    "--out", str(direct)] + common) == 0
    assert run_cli(["test", "--input", str(sample_file), "--out", str(via_file)]
                   + common) == 0
    d1, d2 = json.loads(direct.read_text()), json.loads(via_file.read_text())
    assert d1["verdict"] == d2["verdict"]
    assert d1["buckets"] == d2["buckets"]


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
