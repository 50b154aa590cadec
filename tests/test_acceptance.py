"""Acceptance gate: closed-form exactness, convergence contracts, and
scaled statistical replications of the synthetic experiments.

Each criterion is one test with a pinned tolerance and prints one PASS
line (visible with ``pytest -s``).  The full-size replication (k=32,
tens of millions of samples per run) is opt-in via ``pytest -m slow``.
"""

import math

import numpy as np
import pytest

import tailtest as tt
from tailtest import (
    Exponential,
    HalfGaussian,
    Lomax,
    SortedSampleSplit,
    StretchedExponential,
    TailParams,
    TestConfig,
    Variant,
    Verdict,
    WellBehavedBounds,
)
from tailtest.cli import run_cli
from tailtest.empirical import rank_index

Z99 = np.linspace(0.01, 0.99, 99)
TAIL = TailParams(alpha=0.25, rho=0.5)


def _passed(n, text):
    print(f"PASS criterion {n}: {text}")


# ---------------------------------------------------------------------------
# 1. proxy exactness for the two closed-form families
# ---------------------------------------------------------------------------

def test_criterion_1_proxy_exactness():
    for rate in (0.5, 1.0, 2.0):
        model = Exponential(rate)
        for z in Z99:
            assert abs(tt.proxy_value(model, z) - (1.0 - z)) <= 1e-9
    for shape in (0.5, 1.0, 2.0):
        for scale in (0.5, 1.0, 2.0):
            model = Lomax(shape, scale)
            factor = shape / (shape + 1.0)
            for z in Z99:
                assert abs(tt.proxy_value(model, z) - factor * (1.0 - z)) <= 1e-9
    _passed(1, "exponential and lomax proxies match closed forms within 1e-9")


# ---------------------------------------------------------------------------
# 2. proxy direction for the light and heavy reference families
# ---------------------------------------------------------------------------

def test_criterion_2_proxy_direction():
    hg = HalfGaussian(1.0)
    for z in Z99:
        assert tt.proxy_value(hg, z) > 1.0 - z
    se = StretchedExponential(1.0, 0.5)
    cutoff = 1.0 - math.exp(-1.0)
    for z in Z99:
        if z < cutoff:
            assert tt.proxy_value(se, z) < 1.0 - z
    _passed(2, "half-Gaussian sits above the threshold, stretched-exponential below")


# ---------------------------------------------------------------------------
# 3. discrete proxy converges at rate 1/k
# ---------------------------------------------------------------------------

def test_criterion_3_discrete_proxy_convergence():
    cases = [(Exponential(1.0), lambda z: 1.0 - z),
             (Lomax(1.0, 1.0), lambda z: 0.5 * (1.0 - z))]
    for model, s_of_z in cases:
        err = {}
        for k in (32, 64):
            err[k] = max(abs(tt.discrete_proxy(model, i, k) - s_of_z(i / k))
                         for i in range(2, k - 1))
        assert err[64] <= 0.75 * err[32]
        assert err[64] <= 0.1
    _passed(3, "worst-bucket discrete-proxy error contracts by 0.75 from k=32 to k=64")


# ---------------------------------------------------------------------------
# 4. sample statistic equals the discrete proxy on perfect quantile splits
# ---------------------------------------------------------------------------

def _matched_rank_reference(model, n, i, k):
    k2 = k * k
    ranks = [(i * k + 1) / k2, i / k, ((i + 1) * k + 1) / k2, (i + 1) / k]
    vals = [float(model.quantile(rank_index(n, q) / (n + 1))) for q in ranks]
    num = vals[0] - vals[1]
    return num / (k * ((vals[2] - vals[3]) - num))


def test_criterion_4_deterministic_statistic_oracle():
    k = 16
    n = k ** 4
    q = np.arange(1, n + 1) / (n + 1)
    cfg = TestConfig(tail=TAIL, bounds=WellBehavedBounds(1, 1, 1, 1 / (2 * k)), k=k)
    for model in (Exponential(1.0), Lomax(1.0, 1.0)):
        splits = [SortedSampleSplit(np.asarray(model.quantile(q), dtype=float))] * 4
        records = tt.run_test(splits, cfg).records
        assert [r.i for r in records] == list(range(2, k - 1))
        for r in records:
            assert abs(r.s_hat - _matched_rank_reference(model, n, r.i, k)) <= 1e-6
    _passed(4, "four-split statistic reproduces the discrete proxy at matched ranks")


# ---------------------------------------------------------------------------
# 5-6. scaled replication of the synthetic experiments
# ---------------------------------------------------------------------------

def _weak_config(model, k=16):
    bounds = tt.estimate_bounds(model, zeta=1.0 / (2 * k))
    return TestConfig(tail=TAIL, bounds=bounds, k=k, variant=Variant.WEAK)


def _verdict_tally(model, config, n, runs=20, base_seed=1000):
    verdicts = [tt.run_sampled_test(model, n, base_seed + r, config).verdict
                for r in range(runs)]
    return sum(v is Verdict.HEAVY for v in verdicts), sum(v is Verdict.LIGHT for v in verdicts)


def test_criterion_5_scaled_replication():
    n = 4_000_000
    lomax = Lomax(1.0, 1.0)
    heavy, _ = _verdict_tally(lomax, _weak_config(lomax), n)
    assert heavy >= 18, f"lomax flagged heavy only {heavy}/20"

    exp = Exponential(1.0)
    _, light = _verdict_tally(exp, _weak_config(exp), n)
    assert light >= 18, f"exponential called light only {light}/20"

    hg = HalfGaussian(1.0)
    _, light_hg = _verdict_tally(hg, _weak_config(hg), n)
    assert light_hg >= 18, f"half-Gaussian called light only {light_hg}/20"
    _passed(5, f"k=16, n=4e6: lomax {heavy}/20 heavy, exponential {light}/20 light, "
               f"half-Gaussian {light_hg}/20 light")


def test_criterion_6_stretched_exponential_detection():
    se = StretchedExponential(1.0, 0.5)
    heavy, _ = _verdict_tally(se, _weak_config(se), 4_000_000)
    assert heavy >= 18, f"stretched-exponential flagged heavy only {heavy}/20"
    _passed(6, f"stretched-exponential flagged heavy {heavy}/20")


# ---------------------------------------------------------------------------
# 7. affine invariance of statistics and verdicts
# ---------------------------------------------------------------------------

def _assert_same_statistics(before, after):
    """Two outcomes' records agree: both degenerate, or within 1e-9 relative."""
    for a, b in zip(before.records, after.records, strict=True):
        if a.degenerate:
            assert b.degenerate
        else:
            assert abs(a.s_hat - b.s_hat) <= 1e-9 * abs(a.s_hat)
    assert before.verdict is after.verdict


def test_criterion_7_affine_invariance():
    rng = np.random.default_rng(2024)
    model = Lomax(1.0, 1.0)
    k = 16
    cfg = TestConfig(tail=TAIL, bounds=WellBehavedBounds(1, 1, 1, 1 / (2 * k)),
                     k=k, variant=Variant.WEAK)
    cfg_full = TestConfig(tail=TAIL, bounds=WellBehavedBounds(1, 1, 1, 1 / (2 * k)), k=k)
    for trial in range(50):
        c = float(rng.uniform(0.05, 20.0))
        b = float(rng.uniform(0.0, 50.0))
        seed = int(rng.integers(0, 2 ** 31))
        raw = tt.sample(model, 100_000, seed)
        split = SortedSampleSplit.from_samples(raw)
        moved = SortedSampleSplit(c * split.values + b)
        weak = tt.run_test([split], cfg)
        assert [r.i for r in weak.records] == list(range(2, 13))
        _assert_same_statistics(weak, tt.run_test([moved], cfg))
        if trial % 10 == 0:
            splits = [SortedSampleSplit(np.sort(raw[j::4])) for j in range(4)]
            moved4 = [SortedSampleSplit(c * s.values + b) for s in splits]
            full = tt.run_test(splits, cfg_full)
            assert [r.i for r in full.records] == list(range(2, k - 1))
            _assert_same_statistics(full, tt.run_test(moved4, cfg_full))
    _passed(7, "statistics and verdicts unchanged under 50 random affine maps")


# ---------------------------------------------------------------------------
# 8. order statistics concentrate at the classical rate
# ---------------------------------------------------------------------------

def test_criterion_8_order_statistic_concentration():
    model = Exponential(1.0)
    n = 100_000
    medians = []
    for trial in range(200):
        values = np.sort(tt.sample(model, n, seed=50_000 + trial))
        medians.append(values[rank_index(n, 0.5) - 1])
    observed = float(np.std(medians, ddof=1))
    predicted = math.sqrt(0.25 / n) / float(model.pdf(tt.quantile(model, 0.5)))
    assert predicted / 2.0 <= observed <= predicted * 2.0
    _passed(8, f"median order statistic std {observed:.3e} within 2x of "
               f"classical {predicted:.3e}")


# ---------------------------------------------------------------------------
# 9. budget calculator regression
# ---------------------------------------------------------------------------

def test_criterion_9_calculator_regression(capsys):
    code = run_cli(["complexity", "--alpha", "0.25", "--rho", "0.5",
                    "--beta", "1", "--b1", "1", "--b2", "1",
                    "--ck", "1", "--cn", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert out == "k=12\nn=17177\n"
    with capsys.disabled():
        _passed(9, "complexity prints k=12, n=17177 exactly")


# ---------------------------------------------------------------------------
# full-size replication (opt in: pytest -m slow)
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_full_size_replication():
    # k=32 with n = Theta(k^4) ~ 51 million samples per run; about 27 s of
    # wall time and 455 MB peak RSS on a 2-vCPU Xeon with numpy 2.4
    k = 32
    n = 51_000_000
    lomax = Lomax(1.0, 1.0)
    hg = HalfGaussian(1.0)
    heavy = sum(tt.run_sampled_test(lomax, n, 9000 + r, _weak_config(lomax, k)).verdict
                is Verdict.HEAVY for r in range(10))
    light = sum(tt.run_sampled_test(hg, n, 9100 + r, _weak_config(hg, k)).verdict
                is Verdict.LIGHT for r in range(10))
    assert heavy >= 9
    assert light >= 9
    print(f"PASS full-size replication: lomax {heavy}/10 heavy, half-Gaussian {light}/10 light")
