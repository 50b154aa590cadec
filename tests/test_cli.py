import argparse
import errno
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
from tailtest.harness import _SPLIT

BOUNDS = ["--alpha", "0.25", "--rho", "0.5", "--beta", "1", "--b1", "1", "--b2", "1"]

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
def test_refused_allocation_is_one_error_line(tmp_path, monkeypatch, exc, line, capsys):
    # `sample` is the one command that draws n values.
    def refuse(*args):
        raise exc

    monkeypatch.setattr(distributions, "uniforms", refuse)
    out = tmp_path / "x.txt"
    code = run_cli(["sample", "--dist", "lomax", "--params", "a=1,lambda=1",
                    "--n", "1000000000000", "--seed", "1", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == "" and not out.exists()
    assert captured.err == line


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
    src = Path(tt.__file__).resolve().parents[1]
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
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True).stdout.splitlines()
    assert out == ["[]"]


def test_a_second_sampled_test_loads_no_module():
    # Start-up cost: `complexity` loads only argparse's lazy locale
    # lookup, and a second sampled test loads nothing the first has not.
    # None of them loads what only text files need: the worker codec and
    # subprocess, which takes 7.5 ms to import.
    src = Path(tt.__file__).resolve().parents[1]
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
        "print(json.dumps(sorted({'subprocess', 'tailtest._textlines'} & set(sys.modules))))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True).stdout.splitlines()
    complexity, first, second, workers = map(json.loads, out)
    assert set(complexity) <= {"_locale", "locale"}
    assert first and second == []
    assert workers == []


def test_sample_text_deterministic(tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    args = ["sample", "--dist", "exponential", "--params", "lambda=1",
            "--n", "500", "--seed", "7"]
    assert run_cli(args + ["--out", str(a)]) == 0
    assert run_cli(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("n", [1, _SPLIT - 1, _SPLIT, _SPLIT + 1, 2 * _CHUNK + 3, 200_003])
def test_sample_text_is_one_repr_per_line(tmp_path, n, workers, split):
    # On two cores, from _SPLIT values on, a worker formats the second half.
    split(2)
    out = tmp_path / "x.txt"
    assert run_cli(["sample", "--dist", "lomax", "--params", "a=1,lambda=1",
                    "--n", str(n), "--seed", "4", "--out", str(out)]) == 0
    values = tt.sample(tt.Lomax(1.0, 1.0), n, seed=4)
    expected = "\n".join(repr(float(v)) for v in values) + "\n"
    assert out.read_bytes() == expected.encode("ascii")
    assert len(workers) == (n >= _SPLIT)
    assert all(w.returncode is not None for w in workers)


def test_write_failing_midway_ends_every_worker(tmp_path, monkeypatch, workers, split, capsys):
    # The disk fills after the first chunk: one error line, no temp file,
    # and the worker formatting the second half is ended and reaped.
    split(2, values=_CHUNK)
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
    assert len(workers) == 1 and workers[0].returncode is not None


def test_bad_literal_in_a_worker_share_is_one_error_line(tmp_path, workers, split, capfd):
    # The worker that meets it writes nothing to the CLI's stderr.
    split(2, values=1)
    p = tmp_path / "late.txt"
    p.write_text("1.0\n" * 500 + "4.0e\n" + "2.0\n" * 100)  # the worker reads lines 302 on
    assert run_cli(["test", "--input", str(p), "--k", "16", "--alpha", "0.25", "--rho", "0.5",
                    "--beta", "1", "--b1", "1", "--b2", "1", "--weak"]) == 1
    assert capfd.readouterr().err == f"error: {p}: line 501: cannot parse '4.0e'\n"
    assert len(workers) == 1 and workers[0].returncode == 1


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


def _file_test_matches(tmp_path, n, k, variant):
    """`sample` to a file, then `test --input`: the bytes of the library's
    test of the seed's sample_single (weak) or sample_splits (full)."""
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
    if weak:
        expected = tt.run_weak_test(tt.sample_single(model, n, seed), config)
    else:
        expected = tt.run_full_test(tt.sample_splits(model, n, seed), config)
    assert report.read_bytes() == tt.serialize_report(expected)


def test_pipeline_consistency_weak(tmp_path):
    _file_test_matches(tmp_path, 120_000, 16, tt.Variant.WEAK)


def test_pipeline_consistency_full(tmp_path):
    # sample_splits deals one 4n stream round-robin, exactly as a file is
    # split on ingestion.
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
