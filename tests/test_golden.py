"""Golden output: sha256 of every file a fixed set of small CLI calls writes.

A refactor that claims "same behaviour" must leave these digests alone.
The half-Gaussian digests also pin the last bits of its quantile:
Wichura's AS241, evaluated in ``np.longdouble`` (80-bit on x86-64).
"""

import hashlib

from tailtest.cli import run_cli

FAMILIES = {
    "exponential": "lambda=1",
    "lomax": "a=1,lambda=1",
    "halfgaussian": "sigma=1",
    "stretchedexponential": "gamma=1,m=0.5",
}
BOUNDS = ["--alpha", "0.25", "--rho", "0.5", "--beta", "1", "--b1", "1", "--b2", "1"]


def _dist(family):
    return ["--dist", family, "--params", FAMILIES[family]]


# (output file, argv without --out); calls run in order, so the sample
# files exist before the calls that read them.  4,000 values deal
# evenly into the full test's four splits.
CALLS = [
    ("sample.txt", ["sample", *_dist("lomax"), "--n", "4000", "--seed", "5"]),
    ("sample.f64", ["sample", *_dist("exponential"), "--n", "4000", "--seed", "6",
                    "--format", "f64"]),
    *[(f"full_{f}.json", ["test", *_dist(f), "--n", "2000", "--seed", "7", "--k", "8",
                          *BOUNDS]) for f in FAMILIES],
    *[(f"weak_{f}.json", ["test", *_dist(f), "--n", "50000", "--seed", "8", "--k", "16",
                          *BOUNDS, "--weak"]) for f in FAMILIES],
    ("input_text.json", ["test", "--input", "{dir}/sample.txt", "--k", "8", *BOUNDS]),
    ("input_f64.json", ["test", "--input", "{dir}/sample.f64", "--format", "f64",
                        "--k", "8", *BOUNDS]),
    ("input_weak.json", ["test", "--input", "{dir}/sample.txt", "--weak", "--k", "8",
                         *BOUNDS]),
    # No noise floor: the boundary is the reference minus half the gap.
    # alpha is large so that half the gap is within a factor 2 of the
    # reference at most buckets; the subtraction is then exact, and the
    # gap's last bit (its operation order) shows in the boundary.
    ("full_no_noise.json", ["test", *_dist("lomax"), "--n", "2000", "--seed", "12",
                            "--k", "12", "--alpha", "15", "--rho", "0.5", "--beta", "1.3",
                            "--b1", "2.7", "--b2", "1", "--noise-sigmas", "0"]),
    ("simulate_full.csv", ["simulate", *_dist("exponential"), "--reps", "3", "--k", "8",
                           "--n", "1000", "--seed", "10", *BOUNDS]),
    ("simulate_weak.csv", ["simulate", *_dist("lomax"), "--reps", "3", "--k", "16",
                           "--n", "2000", "--seed", "11", *BOUNDS, "--weak"]),
    # Small n, where index rounding can make the exponential reference
    # length shrink between buckets, so the reference comes out negative.
    ("small_full.json", ["test", *_dist("exponential"), "--n", "99", "--seed", "1",
                         "--k", "8", *BOUNDS]),
    ("small_weak.json", ["test", *_dist("lomax"), "--n", "20", "--seed", "1", "--k", "8",
                         *BOUNDS, "--weak"]),
    ("small_simulate_weak.csv", ["simulate", *_dist("exponential"), "--reps", "3",
                                 "--k", "8", "--n", "11", "--seed", "3", *BOUNDS, "--weak"]),
    *[(f"proxy_{f}.csv", ["proxy", *_dist(f), "--k", "16", "--alpha", "0.25"])
      for f in FAMILIES],
]

GOLDEN = {
    "sample.txt":
        "3361a2a9f9bd74921c0dee573b78cb4c21cfdf9bbe39a89daddb15606f35ab8d",
    "sample.f64":
        "5dcf46fd2c45f2e95b28fae8f5aa75291cb9312c40ea72cae425cff00a747e4c",
    "full_exponential.json":
        "c6149d9420480212d5917441b26f26462e48b5ea740bfb4d509f06f23ee3195f",
    "full_lomax.json":
        "84e4880b8648983ddb8e597c71d0d584d7edb98a855ba5bca5339055c894f6ad",
    "full_halfgaussian.json":
        "f7b87478427997bea8e4807954a25e9dc26cfadde0fddd69f73162aaf8e34a32",
    "full_stretchedexponential.json":
        "a8858969929f0dc7115703cae1dd4a6855916aeec0c449958f46f89fd4a60fca",
    "weak_exponential.json":
        "655891894712930f1efdad74fad2d4f598776e86a1f627e436dac67f2b5245ef",
    "weak_lomax.json":
        "86899e5f5d7b08067b0aa65fc37bd9fad8cd4211515549f7f98013c4383e4fc2",
    "weak_halfgaussian.json":
        "648975dd1b06270771ad2e2f5e0b7df603814076240e8eeb67a51e75d934a4cf",
    "weak_stretchedexponential.json":
        "4f4902ec0e527b7ba936d3f9ebc91d25e8f5911cac3e570d047400bd88b28b7b",
    "input_text.json":
        "ba4d147365251aeead3c659a79d486957cfa210bd77faffe2ae4cb282d7c63c9",
    "input_f64.json":
        "7d4645b34c408cb40f2a1a23e8eb49e2248f1d1fa74b3454e700a2acab393954",
    "input_weak.json":
        "d296945a77421c142a2d068f8b2de7b366a05084eb97549d665ccd031479f763",
    "full_no_noise.json":
        "b160a3d86675059083bbda7b201572f900a462c716c3662af91f565c31361526",
    "simulate_full.csv":
        "c7ccdbe0edc0a609ea93a4c231b5cf640a24236eb64f58d22e1d9bd09f471274",
    "simulate_weak.csv":
        "eea68f6e4cc145049ca43bfb90332c500ebea52c355a309c1f3b4a509c85cc0d",
    "small_full.json":
        "b9b6b36fae6a5ac424ba0ee16ea6448fb6a487a7f69b60d0b41d8cebec8db674",
    "small_weak.json":
        "460a1b7e09e3e47d32cdfd2013f6c7ed27fbd4fddabffcc20b2fd1402b45313f",
    "small_simulate_weak.csv":
        "26548ebfb480a381c8adbdf2d6f6547fb41ec1df92b05c6ac91ef260db984f1b",
    "proxy_exponential.csv":
        "48dd2af583b070bc400086199d3e8a6c8dfb9b090293ed7813905c2dea49974f",
    "proxy_lomax.csv":
        "820d72ffb8b58aba02953480a7a9ffb05735accbd6be34ffec1195d417cc1bd5",
    "proxy_halfgaussian.csv":
        "0ff2bcf70d14770b56e04d35bc742bc3ed12fd0098afcc90d8c9e7800db01ac3",
    "proxy_stretchedexponential.csv":
        "277b6288a95349680fbb9aeed34528a2656bf685cea8f5f41a904e602d234b21",
}


def run_calls(directory):
    """Run CALLS into ``directory``; returns {output file: sha256 hex}."""
    digests = {}
    for name, argv in CALLS:
        argv = [a.format(dir=directory) for a in argv] + ["--out", f"{directory}/{name}"]
        assert run_cli(argv) == 0, argv
        digests[name] = hashlib.sha256((directory / name).read_bytes()).hexdigest()
    return digests


def test_golden_digests(tmp_path):
    assert run_calls(tmp_path) == GOLDEN
