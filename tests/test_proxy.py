import math

import numpy as np
import pytest
from scipy.special import erfinv as scipy_erfinv

import tailtest as tt
from tailtest import (
    Exponential,
    HalfGaussian,
    Lomax,
    StretchedExponential,
    TailParams,
)

Z_GRID = np.linspace(0.01, 0.99, 99)


# ---------------------------------------------------------------------------
# exact proxy values
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("rate", [0.5, 1.0, 2.0])
def test_exponential_sits_on_threshold(rate):
    model = Exponential(rate)
    for z in Z_GRID:
        assert tt.proxy_value(model, z) == pytest.approx(1.0 - z, abs=1e-9)


@pytest.mark.parametrize("shape", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("scale", [0.5, 1.0, 2.0])
def test_lomax_closed_form(shape, scale):
    model = Lomax(shape, scale)
    factor = shape / (shape + 1.0)
    for z in Z_GRID:
        assert tt.proxy_value(model, z) == pytest.approx(factor * (1.0 - z), abs=1e-9)


def test_halfgaussian_above_threshold():
    model = HalfGaussian(1.0)
    for z in Z_GRID:
        assert tt.proxy_value(model, z) > 1.0 - z


def test_halfgaussian_median_value():
    # independent oracle: s = sigma^2 f(x)/x with x the median
    x = math.sqrt(2.0) * float(scipy_erfinv(0.5))
    f = 2.0 / math.sqrt(2.0 * math.pi) * math.exp(-0.5 * x * x)
    assert tt.proxy_value(HalfGaussian(1.0), 0.5) == pytest.approx(f / x, rel=1e-12)
    assert tt.proxy_value(HalfGaussian(1.0), 0.5) == pytest.approx(0.9423, abs=5e-4)


def test_stretched_exponential_below_threshold():
    model = StretchedExponential(1.0, 0.5)
    for z in Z_GRID:
        if z < 1.0 - math.exp(-1.0):
            assert tt.proxy_value(model, z) < 1.0 - z


@pytest.mark.parametrize("c", [0.3, 2.0, 17.0])
def test_scale_invariance(c):
    # scaling x by c maps exponential(rate) to exponential(rate/c) and
    # lomax(shape, scale) to lomax(shape, c*scale); the proxy is unchanged
    for z in (0.1, 0.5, 0.9):
        a = tt.proxy_value(Exponential(1.0), z)
        b = tt.proxy_value(Exponential(1.0 / c), z)
        assert abs(a - b) <= 1e-12 * abs(a)
        a = tt.proxy_value(Lomax(1.5, 1.0), z)
        b = tt.proxy_value(Lomax(1.5, c), z)
        assert abs(a - b) <= 1e-12 * abs(a)


def test_proxy_domain_errors():
    with pytest.raises(ValueError):
        tt.proxy_value(Exponential(1.0), 0.0)
    with pytest.raises(ValueError):
        tt.proxy_value(Exponential(1.0), 1.0)


# ---------------------------------------------------------------------------
# threshold and gap
# ---------------------------------------------------------------------------

def test_gap_zero_when_alpha_zero():
    gap = tt.separation_gap(0.3, TailParams(0.0, 0.5),
                            tt.WellBehavedBounds(1.0, 1.0, 1.0, 0.1))
    assert gap == 0.0


def test_gap_direct_substitution():
    bounds = tt.WellBehavedBounds(1.0, 1.0, 1.0, 0.03)
    tail = TailParams(0.25, 0.5)
    assert tt.separation_gap(0.5, tail, bounds) == pytest.approx(0.0625)
    assert tt.separation_gap(0.9, tail, bounds) == pytest.approx(0.0025)


def test_gap_denominator_is_beta_cubed_b1():
    bounds = tt.WellBehavedBounds(2.0, 10.0, 1.0, 0.03)
    gap = tt.separation_gap(0.5, TailParams(0.25, 0.5), bounds)
    assert gap == pytest.approx(0.25 * 0.25 / (8.0 * 10.0))


def test_gap_array_matches_scalar_bit_for_bit():
    bounds = tt.WellBehavedBounds(1.3, 2.7, 1.0, 0.03)
    tail = TailParams(0.37, 0.5)
    zs = np.arange(2, 30) / 31
    gaps = tt.separation_gap(zs, tail, bounds)
    for z, gap in zip(zs.tolist(), gaps.tolist()):
        om = 1.0 - z
        assert gap == tail.alpha * om * om / (1.3 ** 3 * 2.7)
        assert gap == float(tt.separation_gap(z, tail, bounds))


@pytest.mark.parametrize("z", [0.0, 1.0, [0.5, 1.0]])
def test_gap_rejects_z_outside_unit_interval(z):
    with pytest.raises(ValueError):
        tt.separation_gap(z, TailParams(0.25, 0.5), tt.WellBehavedBounds(1.0, 1.0, 1.0, 0.1))


def test_gap_strictly_increasing_in_alpha():
    bounds = tt.WellBehavedBounds(1.0, 1.0, 1.0, 0.03)
    gaps = [tt.separation_gap(0.5, TailParams(a, 0.5), bounds)
            for a in (0.1, 0.25, 0.5, 1.0)]
    assert all(b > a for a, b in zip(gaps, gaps[1:]))


# ---------------------------------------------------------------------------
# discrete two-granularity proxy
# ---------------------------------------------------------------------------

def _oracle_two_scale(quantile, i, k):
    """Independent evaluation straight from the defining ratio."""
    z, d, step = i / k, 1.0 / k ** 2, 1.0 / k
    num = quantile(z + d) - quantile(z)
    den = quantile(z + step + d) - quantile(z + step) - num
    return num / (k * den)


def test_discrete_proxy_frozen_values():
    # frozen from the closed-form oracle below
    got = tt.discrete_proxy(Exponential(1.0), 8, 32)
    assert got == pytest.approx(0.7182615020713053, abs=1e-12)


def test_discrete_proxy_matches_oracle():
    oracle = _oracle_two_scale(lambda y: -math.log1p(-y), 8, 32)
    assert tt.discrete_proxy(Exponential(1.0), 8, 32) == pytest.approx(oracle, rel=1e-12)
    oracle = _oracle_two_scale(lambda y: 1.0 / (1.0 - y) - 1.0, 8, 16)
    assert tt.discrete_proxy(Lomax(1.0, 1.0), 8, 16) == pytest.approx(oracle, rel=1e-12)


def test_discrete_proxy_coarse_value():
    # very coarse bucketing: large but bounded error, frozen from the oracle
    got = tt.discrete_proxy(Exponential(1.0), 1, 4)
    assert got == pytest.approx(0.4676018258061697, abs=1e-12)


def test_discrete_proxy_index_validation():
    with pytest.raises(ValueError):
        tt.discrete_proxy(Exponential(1.0), 0, 16)
    with pytest.raises(ValueError):
        tt.discrete_proxy(Exponential(1.0), 15, 16)
    with pytest.raises(ValueError):
        tt.discrete_proxy(Exponential(1.0), 1, 3)


def test_discrete_proxy_rejects_concave_quantile():
    class ConcaveQuantile:
        def quantile(self, u):
            return np.sqrt(u)

    with pytest.raises(ValueError):
        tt.discrete_proxy(ConcaveQuantile(), 8, 16)


@pytest.mark.parametrize("model", [
    Exponential(1.0),
    Lomax(1.0, 1.0),
    HalfGaussian(1.0),
    StretchedExponential(1.0, 0.5),
])
def test_discrete_proxy_error_shrinks_with_k(model):
    # the approximation guarantee covers buckets where the proxy is at
    # most one; elsewhere only "both sides large" is promised (for the
    # half-Gaussian the proxy diverges as z -> 0, so unrestricted
    # absolute error grows with k at the first buckets)
    errs = {}
    for k in (16, 32, 64, 128):
        errs[k] = max(abs(tt.discrete_proxy(model, i, k) - tt.proxy_value(model, i / k))
                      for i in range(2, k - 1)
                      if tt.proxy_value(model, i / k) <= 1.0)
    assert errs[32] <= errs[16]
    assert errs[64] <= errs[32]
    assert errs[128] <= errs[64]


@pytest.mark.parametrize("model", [Exponential(1.0), Lomax(1.0, 1.0),
                                   HalfGaussian(1.0), StretchedExponential(1.0, 0.5)])
def test_discrete_proxy_error_within_smoothness_bound(model):
    # bound 6*beta*(2*b1 + b2)/k with the constants taken on [0, 1 - 1/(2k)];
    # only buckets where the proxy is at most one are claimed
    for k in (16, 32):
        bounds = tt.estimate_bounds(model, zeta=1.0 / (2 * k))
        cap = 6.0 * bounds.beta * (2.0 * bounds.b1 + bounds.b2) / k
        for i in range(2, k - 1):
            s = tt.proxy_value(model, i / k)
            if s <= 1.0:
                assert abs(tt.discrete_proxy(model, i, k) - s) <= cap


def test_proxy_curve_structure():
    curve = tt.proxy_curve(Exponential(1.0), 16, TailParams(0.25, 0.5),
                           tt.WellBehavedBounds(1.0, 1.0, 1.0, 1.0 / 32))
    zs = [p.z for p in curve]
    assert zs == [i / 16 for i in range(2, 15)]
    for p in curve:
        assert p.threshold == 1.0 - p.z
        assert p.gap >= 0.0
