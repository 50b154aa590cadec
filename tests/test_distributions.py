import math
import tracemalloc

import numpy as np
import pytest

import tailtest as tt
from tailtest import (
    Exponential,
    HalfGaussian,
    Lomax,
    StretchedExponential,
    TailClass,
    TailParams,
)
from tailtest.distributions import _CHUNK, _longest_run, _variates

ALL_MODELS = [
    Exponential(1.0),
    Exponential(0.5),
    Lomax(1.0, 1.0),
    Lomax(2.0, 0.5),
    HalfGaussian(1.0),
    HalfGaussian(2.0),
    StretchedExponential(1.0, 0.5),
    StretchedExponential(2.0, 0.7),
]


# ---------------------------------------------------------------------------
# pointwise evaluation
# ---------------------------------------------------------------------------

def test_evaluate_exponential_at_origin():
    model = Exponential(1.0)
    assert float(model.pdf(0.0)) == pytest.approx(1.0)
    assert float(model.cdf(0.0)) == 0.0
    assert float(model.sf(0.0)) == 1.0
    assert float(model.pdf_derivative(0.0)) == pytest.approx(-1.0)


def test_evaluate_lomax_closed_forms():
    model = Lomax(1.0, 1.0)
    assert float(model.pdf(1.0)) == pytest.approx(0.25)
    assert float(model.cdf(1.0)) == pytest.approx(0.5)
    assert float(model.sf(1.0)) == pytest.approx(0.5)
    assert float(model.pdf_derivative(1.0)) == pytest.approx(-0.25)


@pytest.mark.parametrize("model", ALL_MODELS)
def test_cdf_zero_at_origin(model):
    assert float(model.cdf(0.0)) == 0.0
    assert float(model.sf(0.0)) == 1.0


@pytest.mark.parametrize("model", ALL_MODELS)
def test_pdf_derivative_nonpositive(model):
    assert np.all(model.pdf_derivative(np.linspace(0.01, 8.0, 40)) <= 0.0)


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        Exponential(0.0)
    with pytest.raises(ValueError):
        Lomax(-1.0, 1.0)
    with pytest.raises(ValueError):
        HalfGaussian(0.0)
    with pytest.raises(ValueError):
        StretchedExponential(1.0, 1.0)  # exponent must be < 1
    with pytest.raises(ValueError):
        StretchedExponential(1.0, 0.0)
    # every rate, shape and scale must also be finite
    for family, args in [(Exponential, (math.inf,)), (Lomax, (math.inf, 1.0)),
                         (Lomax, (1.0, math.inf)), (HalfGaussian, (math.inf,)),
                         (StretchedExponential, (math.inf, 0.5))]:
        with pytest.raises(ValueError, match="finite"):
            family(*args)


@pytest.mark.parametrize("name", ["beta", "b1", "b2"])
@pytest.mark.parametrize("value", [0.0, -1.0])
def test_bounds_must_be_positive(name, value):
    bounds = {"beta": 1.0, "b1": 1.0, "b2": 1.0, name: value}
    with pytest.raises(ValueError) as exc:
        tt.WellBehavedBounds(**bounds, zeta=0.1)
    assert str(exc.value) == f"{name} must be > 0"


# ---------------------------------------------------------------------------
# quantiles
# ---------------------------------------------------------------------------

def test_quantile_examples():
    assert tt.quantile(Exponential(1.0), 0.5) == pytest.approx(math.log(2.0), abs=1e-12)
    assert tt.quantile(Lomax(1.0, 1.0), 0.5) == pytest.approx(1.0, abs=1e-12)
    for model in ALL_MODELS:
        assert tt.quantile(model, 0.0) == 0.0


@pytest.mark.parametrize("model", ALL_MODELS, ids=repr)
def test_quantile_of_an_array_is_the_models_array(model):
    # A scalar mass gives a float; an array gives the family's own array,
    # bit for bit.
    u = np.array([0.0, 2.0 ** -54, 0.25, 0.5, 0.85, 0.999, 1.0 - 2.0 ** -53])
    out = tt.quantile(model, u)
    assert isinstance(out, np.ndarray) and out.tobytes() == model.quantile(u).tobytes()
    assert isinstance(tt.quantile(model, 0.25), float)


def test_quantile_domain_errors():
    with pytest.raises(ValueError):
        tt.quantile(Exponential(1.0), 1.0)
    with pytest.raises(ValueError):
        tt.quantile(Exponential(1.0), -0.01)


@pytest.mark.parametrize("model", ALL_MODELS)
def test_quantile_cdf_round_trip(model):
    # 999-point grid; round-trip error bounded by 1e-9
    us = np.linspace(0.001, 0.999, 999)
    xs = model.quantile(us)
    back = np.asarray(model.cdf(xs), dtype=float)
    assert np.max(np.abs(back - us)) <= 1e-9


@pytest.mark.parametrize("model", ALL_MODELS)
def test_quantile_strictly_increasing(model):
    us = np.linspace(0.001, 0.999, 200)
    xs = model.quantile(us)
    assert np.all(np.diff(xs) > 0.0)


@pytest.mark.parametrize("model", ALL_MODELS)
def test_pdf_monotone_cdf_monotone(model):
    xs = np.linspace(0.0, 10.0, 500)[1:]  # skip origin (stretched family peaks at inf)
    pdf = np.asarray(model.pdf(xs), dtype=float)
    cdf = np.asarray(model.cdf(xs), dtype=float)
    assert np.all(np.diff(pdf) <= 1e-15)
    assert np.all(np.diff(cdf) >= -1e-15)


# ---------------------------------------------------------------------------
# inverse error function
# ---------------------------------------------------------------------------

def test_erf_inverse_domain():
    with pytest.raises(ValueError):
        tt.quantile(HalfGaussian(1.0), 1.0)
    assert tt.quantile(HalfGaussian(1.0), 0.0) == 0.0
    with np.errstate(divide="ignore"):  # log(0), as in the other families
        assert HalfGaussian(1.0).quantile(np.array([0.5, 1.0]))[1] == np.inf


def test_half_gaussian_quantile_within_5_ulp_of_scipy():
    # scipy is only the test's oracle: 2M sampled draws plus the ladders
    # 2**-j (down to the smallest subnormal) and 1 - 2**-j.
    from scipy.special import erfinv

    model = HalfGaussian(1.0)
    j = np.arange(1.0, 1075.0)
    ladder = np.r_[2.0 ** -j, 1.0 - 2.0 ** -j[:53]]
    pairs = [(model.quantile(ladder), math.sqrt(2.0) * erfinv(ladder)),
             (tt.sample(model, 2_000_000, seed=18),
              math.sqrt(2.0) * erfinv(_variates(np.random.default_rng(18).random(2_000_000))))]
    for got, want in pairs:
        assert np.all(np.abs(got - want) <= 5.0 * np.spacing(want))


def test_half_gaussian_median_is_correctly_rounded():
    # sqrt(2) * erfinv(1/2) = 0.67448975019608174320...
    assert tt.quantile(HalfGaussian(1.0), 0.5).hex() == "0x1.5956b87528a49p-1"


def test_half_gaussian_cdf_and_sf_sum_to_one():
    for model in (HalfGaussian(1.0), HalfGaussian(2.0)):
        x = np.linspace(0.0, 8.0 * model.scale, 4001)
        total = model.cdf(x) + model.sf(x)
        assert total.dtype == np.float64
        assert np.all(np.abs(total - 1.0) <= 2.0 ** -52)


# ---------------------------------------------------------------------------
# hazard rate
# ---------------------------------------------------------------------------

def test_hazard_exponential_is_constant():
    xs = np.array([0.0, 0.3, 2.0, 7.5])
    model = Exponential(2.0)
    assert model.hazard_rate(xs) == pytest.approx([2.0] * 4)
    assert model.hazard_derivative(xs) == pytest.approx([0.0] * 4, abs=1e-15)


def test_hazard_lomax_at_origin():
    model = Lomax(1.0, 1.0)
    assert float(model.hazard_rate(0.0)) == pytest.approx(1.0)
    assert float(model.hazard_derivative(0.0)) == pytest.approx(-1.0)


@pytest.mark.filterwarnings("error")
def test_stretched_exponential_infinite_at_origin():
    # At x = 0 the formulas diverge quietly, to the signs of an unbounded
    # decreasing density and hazard.
    m = StretchedExponential(1.0, 0.5)
    got = [float(f(0.0)) for f in (m.pdf, m.pdf_derivative, m.hazard_rate, m.hazard_derivative)]
    assert got == [math.inf, -math.inf, math.inf, -math.inf]


@pytest.mark.parametrize("scale", [1e308, 1e-200])
def test_halfgaussian_derivatives_do_not_square_the_scale(scale):
    # scale**2 overflowed (OverflowError) at 1e308 and was 0 at 1e-200,
    # where the slope of the density was then nan.  The derivatives hold
    # their sign wherever the density is positive and its slope finite.
    model, x = HalfGaussian(scale), np.array([0.25, 1.0, 1.5]) * scale
    with np.errstate(over="ignore", under="ignore"):
        slope, hazard = model.pdf_derivative(x), model.hazard_derivative(x)
    assert not np.isnan(slope).any() and (slope <= 0.0).all()
    assert not np.isnan(hazard).any() and (hazard >= 0.0).all()


def test_halfgaussian_derivatives_at_unit_scale_are_the_squared_forms():
    # x / 1 / 1 is x / 1**2 to the bit: every golden proxy holds.
    model, x = HalfGaussian(1.0), np.linspace(0.0, 6.0, 61)
    assert model.pdf_derivative(x).tobytes() == (-(x / 1.0 ** 2) * model.pdf(x)).tobytes()
    h = model.hazard_rate(x)
    assert model.hazard_derivative(x).tobytes() == (h * (h - x / 1.0 ** 2)).tobytes()


def test_hazard_halfgaussian_at_origin():
    model = HalfGaussian(1.0)
    f0 = 2.0 / math.sqrt(2.0 * math.pi)
    assert float(model.hazard_rate(0.0)) == pytest.approx(f0, rel=1e-12)
    # flat density at the origin, so the derivative is rate squared
    assert float(model.hazard_derivative(0.0)) == pytest.approx(f0 * f0, rel=1e-12)
    assert float(model.hazard_derivative(0.0)) == pytest.approx(2.0 / math.pi, rel=1e-12)


@pytest.mark.parametrize("x", [6.0, 8.0, 9.0])
def test_hazard_halfgaussian_deep_tail(x):
    # 1 - erf(x/sqrt 2) cancels out here; the survival must come from erfc
    pdf = 2.0 / math.sqrt(2.0 * math.pi) * math.exp(-0.5 * x * x)
    want = pdf / math.erfc(x / math.sqrt(2.0))
    assert float(HalfGaussian(1.0).hazard_rate(x)) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("model", ALL_MODELS)
def test_hazard_derivative_matches_finite_difference(model):
    # central difference of the rate, away from the extreme tail
    zeta = 0.05
    for z in np.linspace(0.05, 1.0 - zeta, 25):
        x = float(model.quantile(z))
        if x <= 0.0:
            continue
        step = 1e-6 * max(1.0, x)
        approx = (float(model.hazard_rate(x + step))
                  - float(model.hazard_rate(x - step))) / (2.0 * step)
        exact = float(model.hazard_derivative(x))
        assert abs(exact - approx) <= max(1e-6, 1e-4 * abs(exact))


@pytest.mark.parametrize("model, x, survival", [
    (HalfGaussian(1.0), 9.0, math.erfc(9.0 / math.sqrt(2.0))),
    (Exponential(1.0), 40.0, math.exp(-40.0)),
    (StretchedExponential(1.0, 0.5), 2000.0, math.exp(-math.sqrt(2000.0))),
    (Lomax(1.0, 1.0), 1e20, 1.0 / (1.0 + 1e20)),
], ids=["halfgaussian", "exponential", "stretchedexponential", "lomax"])
def test_hazard_accepts_representable_survival(model, x, survival):
    # 1 - F(x) rounds to zero here although the survival is representable
    rate = float(model.hazard_rate(x))
    assert math.isfinite(rate) and rate > 0.0
    assert rate == pytest.approx(float(model.pdf(x)) / survival, rel=1e-12)
    assert float(model.sf(x)) == pytest.approx(survival, rel=1e-12)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def test_sampling_is_bit_reproducible():
    a = tt.sample(Exponential(1.0), 5, seed=7)
    b = tt.sample(Exponential(1.0), 5, seed=7)
    assert np.array_equal(a, b)
    c = tt.sample(Exponential(1.0), 5, seed=8)
    assert not np.array_equal(a, c)


def test_sampling_kolmogorov_distance():
    # DKW at 99% confidence allows ~0.0016 for n=1e6; 0.005 is generous
    model = Exponential(1.0)
    xs = np.sort(tt.sample(model, 1_000_000, seed=1))
    ecdf_hi = np.arange(1, xs.size + 1) / xs.size
    ecdf_lo = np.arange(0, xs.size) / xs.size
    cdf = np.asarray(model.cdf(xs), dtype=float)
    ks = max(np.max(np.abs(cdf - ecdf_hi)), np.max(np.abs(cdf - ecdf_lo)))
    assert ks <= 0.005


def test_sampling_lomax_median_concentrates():
    model = Lomax(1.0, 1.0)
    xs = tt.sample(model, 1_000_000, seed=1)
    med = float(np.median(xs))
    target = tt.quantile(model, 0.5)
    # 1% window plus three binomial standard deviations of median drift
    sigma = math.sqrt(0.25 / xs.size) / float(model.pdf(target))
    assert abs(med - target) <= 0.01 * target + 3.0 * sigma


def test_sampling_positive_and_finite():
    xs = tt.sample(StretchedExponential(1.0, 0.5), 10_000, seed=3)
    assert np.all(xs > 0.0)
    assert np.all(np.isfinite(xs))


# Sizes around multiples of the sampler's 16,384-value chunk: one value,
# four chunks less one, four chunks, four chunks plus one, and twelve
# chunks plus a partial one.
CHUNK_EDGE_SIZES = [1, 65_535, 65_536, 65_537, 3 * 65_536 + 5]


@pytest.mark.parametrize("n", CHUNK_EDGE_SIZES)
@pytest.mark.parametrize("model", ALL_MODELS, ids=repr)
def test_sampling_matches_whole_array_formula(model, n):
    # The reference draws all 53-bit integers j at once and maps
    # (j + 0.5) * 2**-53 through the quantile; the chunked sampler must
    # give the same bytes.  (They part only at j = 2**53 - 1, which the
    # sampler clamps below 1 and these seeds never draw.)
    for seed in (0, 7, 2 ** 40 + 3):
        gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
        ints = gen.integers(0, 1 << 53, n, dtype=np.uint64)
        expected = model.quantile((ints + 0.5) * 2.0 ** -53)
        assert tt.sample(model, n, seed).tobytes() == expected.tobytes()


def test_largest_draw_maps_below_one():
    # random() returns j * 2**-53; at j = 2**53 - 1 adding 2**-54 rounds
    # up to exactly 1, where every quantile is infinite.
    raw = np.array([1.0 - 2.0 ** -53, 0.0])
    u = _variates(raw.copy())
    assert u[0] == 1.0 - 2.0 ** -53 and u[0] < 1.0
    assert u[1] == 2.0 ** -54
    for model in (Exponential(1.0), Lomax(1.0, 1.0), HalfGaussian(1.0),
                  StretchedExponential(1.0, 0.5)):
        assert np.all(np.isfinite(model.quantile(u))), model


class _TinyTailSpacing:
    """A generator stub whose last gamma spacing is far below one ulp of the sum."""

    def standard_gamma(self, shape):
        spacings = shape.astype(float)
        spacings[..., -1] = 1e-300
        return spacings


def test_order_statistics_clamp_below_one(monkeypatch):
    # With a vanishing tail spacing the top order statistic's quotient
    # rounds to exactly 1, where every quantile is infinite.
    monkeypatch.setattr(np.random, "default_rng", lambda seed: _TinyTailSpacing())
    [u] = tt.distributions.uniform_order_statistics(100, np.array([[10, 50, 100]]), seed=0)
    assert u.tolist() == [0.1, 0.5, 1.0 - 2.0 ** -53]
    for model in ALL_MODELS:
        assert np.all(np.isfinite(model.quantile(u))), model


# (n, ranks) of one split: ends, neighbours and middles, up to the largest
# n the ranks' int64 arithmetic allows.  Each gives 2 * len(ranks) - 1 p values.
BETA_CASES = [(1, [1]), (10, [1, 10]), (10, [3, 4, 7]), (2000, [1, 1000, 2000]),
              (10 ** 12, [1, 5 * 10 ** 11, 10 ** 12]), (10 ** 12, [10 ** 12 - 1, 10 ** 12]),
              (2 ** 63 - 2, [1])]


@pytest.mark.parametrize("n,ranks", BETA_CASES, ids=lambda v: str(v).replace(" ", ""))
def test_order_statistics_follow_their_beta_laws(n, ranks):
    # Of n uniforms, the order statistic at rank r is Beta(r, n + 1 - r) and
    # the gap between ranks r < s is Beta(s - r, n + 1 - (s - r)): one-sample
    # KS over 1,000 splits of seed 0, at a family-wise level of 1e-3.
    from scipy.stats import beta, ks_1samp

    u = np.array(tt.distributions.uniform_order_statistics(n, [np.array(ranks)] * 1000, 0))
    laws = [*zip(ranks, u.T), *zip(np.diff(ranks), np.diff(u, axis=1).T)]
    pvalues = [ks_1samp(x, beta(m, n + 1 - m).cdf).pvalue for m, x in laws]
    assert min(pvalues) > 1e-3 / sum(2 * len(r) - 1 for _, r in BETA_CASES)


def test_order_statistics_draw_split_by_split_from_one_stream():
    # Each row's m + 1 gamma spacings come, in row order, from the seed's
    # one PCG64 stream, so dropping later rows leaves earlier ones.
    ranks = np.array([[1, 5, 9], [2, 3, 10], [4, 6, 7]])
    gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(4)))
    expected = []
    for r in ranks:
        sums = np.cumsum(gen.standard_gamma(np.diff(r, prepend=0, append=11)))
        expected.append((sums[:-1] / sums[-1]).tobytes())
    draws = tt.distributions.uniform_order_statistics
    assert [u.tobytes() for u in draws(10, ranks, 4)] == expected
    assert [u.tobytes() for u in draws(10, ranks[:2], 4)] == expected[:2]
    assert draws(10, ranks[0], 4).tobytes() == expected[0]  # one split, one row
    assert draws(10, ranks, 5)[0].tobytes() != expected[0]


def test_sample_refuses_a_family_past_the_largest_double():
    # Lomax(0.001, 1)'s quantile overflows float64 for most variates: the
    # library's sample refuses the chunk and names the family.
    with np.errstate(over="ignore"), pytest.raises(ValueError) as exc:
        tt.sample(Lomax(0.001, 1.0), 5, 1)
    assert str(exc.value) == ("Lomax(shape=0.001, scale=1.0) draws a non-finite sample: "
                              "its quantile overflows float64")


# Sizes around ``sample``'s chunk: ending on a chunk edge, one past
# it, mid-chunk and inside the first chunk.
CHUNK_CUTS = {"on_chunk_edge": 2 * _CHUNK, "odd_n": 2 * _CHUNK + 1,
              "mid_chunk": _CHUNK + 2, "inside_one_chunk": 5}


@pytest.mark.parametrize("cut", CHUNK_CUTS)
def test_sample_is_one_stream_transformed(cut):
    # One Generator.random(n) call, mapped through the quantile as a whole.
    model, n = Lomax(1.0, 1.0), CHUNK_CUTS[cut]
    expected = model.quantile(_variates(np.random.default_rng(11).random(n)))
    assert tt.sample(model, n, 11).tobytes() == expected.tobytes()


@pytest.mark.parametrize("chunk", [1, 2, 3, 7, 13, 1000])
def test_sample_is_one_stream_for_any_chunk_size(monkeypatch, chunk):
    # Chunks of 1 to 1000 values, with and without a short last chunk,
    # all give the bits of the one stream mapped as a whole.
    model = Lomax(1.0, 1.0)
    expected = model.quantile(_variates(np.random.default_rng(8).random(2000)))
    monkeypatch.setattr(tt.distributions, "_CHUNK", chunk)
    assert tt.sample(model, 2000, 8).tobytes() == expected.tobytes()


# Every family's quantile must be nondecreasing, because
# ``harness._sampled`` refuses mapped order statistics that are not
# ascending; these tests check it over sorted variates, runs of
# consecutive doubles and the branch seams.  ``sample`` maps a chunk
# at a time, so the quantile must also give the same bits on any part of
# an array, a gathered subset or a short last chunk, as on the whole array.

def _sorted_variates(n, seed):
    u = np.random.default_rng(seed).random(n)
    u.sort()
    return _variates(u)


def _assert_nondecreasing_over(model, u, chunk=1 << 20):
    """Check model.quantile over ascending u a chunk at a time, seams included."""
    last = -np.inf
    for start in range(0, u.size, chunk):
        x = model.quantile(u[start:start + chunk])
        assert last <= x[0] and np.all(x[1:] >= x[:-1]), (model, start)
        last = x[-1]


@pytest.fixture(scope="module")
def sorted_variates():
    return _sorted_variates(4_000_000, seed=20)


@pytest.mark.parametrize("model", ALL_MODELS, ids=repr)
def test_quantile_nondecreasing_over_sorted_draws(model, sorted_variates):
    _assert_nondecreasing_over(model, sorted_variates)


@pytest.mark.slow
def test_quantile_nondecreasing_over_1e8_sorted_draws():
    # 800 MB of sorted draws, shared by every family.
    u = _sorted_variates(100_000_000, seed=21)
    for model in ALL_MODELS:
        _assert_nondecreasing_over(model, u)


@pytest.mark.parametrize("model", ALL_MODELS, ids=repr)
def test_quantile_nondecreasing_over_consecutive_doubles(model):
    # Runs of 4,096 consecutive doubles each side of the smallest variate,
    # of 0.5, of the largest variate and of the two seams between the
    # half-Gaussian quantile's AS241 branches.
    for x in (2.0 ** -54, 0.5, 0.85, 1.0 - 2.0 * math.exp(-25.0), 1.0 - 2.0 ** -53):
        for toward in (0.0, 1.0):
            run = np.sort(np.nextafter.accumulate(np.r_[x, np.full(4096, toward)]))
            q = model.quantile(run[(run > 0.0) & (run < 1.0)])
            assert np.all(q[1:] >= q[:-1]), (x, toward)


@pytest.mark.parametrize("model", ALL_MODELS, ids=repr)
def test_quantile_of_a_gathered_subset_matches_the_whole_array(model):
    # numpy's SIMD loops take an array's body and its tail apart, so every
    # length from 1 to 17 must give the bits the whole array gives there.
    u = np.r_[2.0 ** -54, _variates(np.random.default_rng(22).random(4096)), 1.0 - 2.0 ** -53]
    whole = model.quantile(u)
    rng = np.random.default_rng(0)
    for length in range(1, 18):
        for _ in range(20):
            pos = np.sort(rng.choice(u.size, length, replace=False))
            assert model.quantile(u[pos]).tobytes() == whole[pos].tobytes(), length


@pytest.mark.parametrize("model", [Exponential(1.0), Lomax(1.0, 1.0), HalfGaussian(1.0),
                                   StretchedExponential(1.0, 0.5)], ids=repr)
def test_sampling_peak_memory_per_value(model):
    # The output array is 8 B per value; every temporary of the quantile
    # is chunk-sized.
    tt.sample(model, 1, seed=0)  # numpy.random's lazy imports come first
    n = 1_000_000
    tracemalloc.start()
    try:
        tt.sample(model, n, seed=5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / n <= 10.0


# ---------------------------------------------------------------------------
# tail classification oracle
# ---------------------------------------------------------------------------

def test_classify_exponential_light():
    for alpha, rho in ((0.25, 0.5), (0.01, 0.9), (2.0, 0.1)):
        assert tt.classify_tail(Exponential(1.0), TailParams(alpha, rho)) \
            is TailClass.LIGHT


def test_classify_halfgaussian_light():
    for alpha, rho in ((0.25, 0.5), (0.1, 0.25)):
        assert tt.classify_tail(HalfGaussian(1.0), TailParams(alpha, rho)) \
            is TailClass.LIGHT


def test_classify_stretched_exponential_heavy():
    # hazard m*x^(m-1) drops below -m(1-m) on the region holding 1-1/e mass
    tail = TailParams(alpha=0.25, rho=1.0 - math.exp(-1.0))
    got = tt.classify_tail(StretchedExponential(1.0, 0.5), tail)
    assert got is TailClass.HEAVY_AT_LEAST


@pytest.mark.parametrize("rho", [0.25, 0.5, 0.75])
def test_classify_lomax_heavy(rho):
    tail = TailParams(alpha=(1.0 - rho) ** 2, rho=rho)
    assert tt.classify_tail(Lomax(1.0, 1.0), tail) is TailClass.HEAVY_AT_LEAST


def test_longest_run_matches_loop():
    def loop(flags):
        best = run = 0
        for flag in flags:
            run = run + 1 if flag else 0
            best = max(best, run)
        return best

    rng = np.random.default_rng(0)
    arrays = [rng.random(int(rng.integers(1, 300))) < p
              for _ in range(6) for p in (0.1, 0.5, 0.9)]
    arrays += [np.ones(10_000, dtype=bool), np.zeros(10_000, dtype=bool),
               np.array([True]), np.array([False])]
    for flags in arrays:
        assert _longest_run(flags) == loop(flags)


def test_classify_indeterminate_when_drop_too_small():
    # Lomax hazard derivative never goes below -1, so alpha=2 finds no region,
    # yet the hazard is decreasing so the model is not light either
    got = tt.classify_tail(Lomax(1.0, 1.0), TailParams(2.0, 0.5))
    assert got is TailClass.INDETERMINATE


# ---------------------------------------------------------------------------
# smoothness bound estimation
# ---------------------------------------------------------------------------

def test_estimate_bounds_exponential():
    b = tt.estimate_bounds(Exponential(1.0), zeta=1.0 / 8.0)
    assert b.beta == pytest.approx(1.0)
    assert b.b1 == pytest.approx(64.0, rel=1e-9)      # 1/(1-y)^2 at y = 7/8
    assert b.b2 == pytest.approx(1024.0, rel=1e-3)    # 2/(1-y)^3 at y = 7/8


def test_estimate_bounds_near_origin():
    # with zeta close to 1 the grid collapses to y ~ 0 where (F^-1)'' = 1
    b = tt.estimate_bounds(Exponential(1.0), zeta=0.999)
    assert b.b1 == pytest.approx(1.0, rel=3e-3)


def test_estimate_bounds_lomax_matches_grid_oracle():
    zeta = 1.0 / 8.0
    grid = np.linspace(0.0, 1.0 - zeta, 10_000)
    oracle = float(np.max(2.0 / (1.0 - grid) ** 3))  # closed form for a=1, scale=1
    b = tt.estimate_bounds(Lomax(1.0, 1.0), zeta=zeta)
    assert b.beta == pytest.approx(1.0)
    assert b.b1 == pytest.approx(oracle, rel=1e-9)


def test_estimate_bounds_rejects_bad_zeta():
    with pytest.raises(ValueError):
        tt.estimate_bounds(Exponential(1.0), zeta=0.0)


# ---------------------------------------------------------------------------
# parameter bundles and name parsing
# ---------------------------------------------------------------------------

def test_tail_params_validation():
    with pytest.raises(ValueError):
        TailParams(alpha=-0.1, rho=0.5)
    with pytest.raises(ValueError):
        TailParams(alpha=0.25, rho=1.0)
    TailParams(alpha=0.0, rho=0.5)  # zero drop is allowed (gives zero gap)


def test_bounds_validation():
    with pytest.raises(ValueError):
        tt.WellBehavedBounds(beta=0.0, b1=1.0, b2=1.0, zeta=0.1)
    with pytest.raises(ValueError):
        tt.WellBehavedBounds(beta=1.0, b1=1.0, b2=1.0, zeta=1.5)


def test_model_from_name():
    m = tt.model_from_name("lomax", {"a": 2.0, "lambda": 3.0})
    assert isinstance(m, Lomax) and m.shape == 2.0 and m.scale == 3.0
    m = tt.model_from_name("Stretched-Exponential", {"gamma": 1.0, "m": 0.5})
    assert isinstance(m, StretchedExponential)
    with pytest.raises(ValueError):
        tt.model_from_name("cauchy", {})
    with pytest.raises(ValueError):
        tt.model_from_name("exponential", {"lambda": 1.0, "mu": 2.0})
    with pytest.raises(ValueError):
        tt.model_from_name("exponential", {})
