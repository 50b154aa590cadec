"""Golden output: sha256 of every file a fixed set of small CLI calls writes.

A refactor that claims "same behaviour" must leave these digests alone.
The half-Gaussian digests also pin the last bits of
``scipy.special.erfinv``, which the half-Gaussian quantile calls.
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
    ("reps.json", ["test", *_dist("lomax"), "--n", "2000", "--seed", "9", "--k", "8",
                   *BOUNDS, "--reps", "3"]),
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
        "223642a762fdb2daba00a38121b14e2cf9aa2fbf330a0c46cc8c4c8239f07832",
    "full_lomax.json":
        "c8c39debbac3f1dbca288151027c346cb26f02ec06a5d59777a55a7239dfa2ec",
    "full_halfgaussian.json":
        "251b3e6eb2dadb062bc59bf9d5615a13ae99b59fa733e76cc859f7324129befb",
    "full_stretchedexponential.json":
        "614d54b57c4b4f450113c9d1ba0f5817409dcfdd53579338baf51ea961733c3a",
    "weak_exponential.json":
        "1ee7db0fbd72f438267f36c49eaec820bb2812947f16c7505d58fce761e50e50",
    "weak_lomax.json":
        "0d4b6651d8ba093bb4a8dfa93bafa5f3184aa54bf800822b67c08c00d1e750f7",
    "weak_halfgaussian.json":
        "da51b2d8d2e64d5cf21eb623a657b4144ac27e924402a690de11b5feae7858a5",
    "weak_stretchedexponential.json":
        "190e961a16d61de4e212bf257f85c941aaf07b1af26f74edcc11c77ebcbe092a",
    "reps.json":
        "f46be67ec017dffdda1ba9e2b96e66674e059fcef200be030fb30d35f0896f1f",
    "input_text.json":
        "ba4d147365251aeead3c659a79d486957cfa210bd77faffe2ae4cb282d7c63c9",
    "input_f64.json":
        "7d4645b34c408cb40f2a1a23e8eb49e2248f1d1fa74b3454e700a2acab393954",
    "input_weak.json":
        "d296945a77421c142a2d068f8b2de7b366a05084eb97549d665ccd031479f763",
    "full_no_noise.json":
        "f48ec8eea52d0d822cb060bbbda1c2d6c4f1cdaf962142e0e3470434df887bba",
    "simulate_full.csv":
        "34afe0b5752f32b877c72df8fb54f1051567a4563bf630b028b3ad3fd6ad6d72",
    "simulate_weak.csv":
        "3e1735ddeac70f23ab50680ec4770ad352b0ea2651ae0e71959c25c1c6b22e2d",
    "small_full.json":
        "b9b6b36fae6a5ac424ba0ee16ea6448fb6a487a7f69b60d0b41d8cebec8db674",
    "small_weak.json":
        "282c0d7bd4c7d2eedf497c982dd347cc19d128ef04c2dd3790617f327243150e",
    "small_simulate_weak.csv":
        "0b251d955ef36990b47b2551f106ac43b0d9c3a4d0412ce6b375e7cecd61748d",
    "proxy_exponential.csv":
        "48dd2af583b070bc400086199d3e8a6c8dfb9b090293ed7813905c2dea49974f",
    "proxy_lomax.csv":
        "820d72ffb8b58aba02953480a7a9ffb05735accbd6be34ffec1195d417cc1bd5",
    "proxy_halfgaussian.csv":
        "458c30d7564aedb66e4dc9c3477d9454b7e0e15f723882a49dd596670d9127a6",
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
