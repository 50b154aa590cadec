"""Closed-form distribution families on [0, inf) with monotone densities.

Every family exposes the quartet the rest of the library is built on:
pdf, cdf, pdf derivative, and quantile, plus the survival function, the
hazard rate and its analytic derivative.  All evaluators accept scalars
or numpy arrays.

Sampling is inverse-transform only: one seeded generator's uniforms
are drawn 16,384 at a time (``_CHUNK``) and each chunk is mapped through
the quantile function, so identical seeds give bit-identical output and
no temporary outgrows a chunk.  ``sample`` gathers the chunks into one
array; ``sample_file_chunks`` (in ``harness``) writes them one at a time.

A test reads only a few order statistics, and
``uniform_order_statistics`` draws those exactly, without the other
samples: one call of O(k) gamma draws per seed whatever n is.  They
come from their own stream, so a sampled test is not the test of
``sample``'s values at the same seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "DistributionModel",
    "Exponential",
    "Lomax",
    "HalfGaussian",
    "StretchedExponential",
    "TailParams",
    "WellBehavedBounds",
    "TailClass",
    "quantile",
    "sample",
    "classify_tail",
    "estimate_bounds",
    "model_from_name",
]

_SQRT2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)


# ---------------------------------------------------------------------------
# parameter bundles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TailParams:
    """Heaviness parameters: hazard-rate drop ``alpha`` over mass ``rho``."""

    alpha: float
    rho: float

    def __post_init__(self):
        if not (self.alpha >= 0.0 and math.isfinite(self.alpha)):
            raise ValueError("alpha must be a finite value >= 0")
        if not (0.0 < self.rho < 1.0):
            raise ValueError("rho must lie in (0, 1)")


@dataclass(frozen=True)
class WellBehavedBounds:
    """Smoothness constants of a well-behaved density.

    ``beta`` bounds the density, ``b1`` and ``b2`` bound the second and
    third derivatives of the quantile function on [0, 1 - zeta].
    """

    beta: float
    b1: float
    b2: float
    zeta: float

    def __post_init__(self):
        if not self.beta > 0.0:
            raise ValueError("beta must be > 0")
        if not self.b1 > 0.0:
            raise ValueError("b1 must be > 0")
        if not self.b2 > 0.0:
            raise ValueError("b2 must be > 0")
        if not (0.0 < self.zeta < 1.0):
            raise ValueError("zeta must lie in (0, 1)")


class TailClass(Enum):
    """A model's true tail class, as ``classify_tail`` finds it on its quantile grid."""
    LIGHT = "light"
    HEAVY_AT_LEAST = "heavy_at_least"
    INDETERMINATE = "indeterminate"


# ---------------------------------------------------------------------------
# families
# ---------------------------------------------------------------------------

class DistributionModel:
    """Base for the analytic families.

    Every family supplies vectorized ``pdf``, ``cdf``, ``sf`` (the
    survival 1 - cdf, computed without its cancellation),
    ``pdf_derivative`` and ``quantile``, plus the analytic
    ``hazard_rate`` and ``hazard_derivative``.  The pdf is
    non-increasing on [0, inf) for every admissible parameterization.
    """


@dataclass(frozen=True)
class Exponential(DistributionModel):
    """Density rate*exp(-rate*x); the boundary case between tail classes."""

    rate: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.rate < math.inf:
            raise ValueError("rate must be finite and > 0")

    def pdf(self, x):
        return self.rate * np.exp(-self.rate * np.asarray(x, dtype=float))

    def cdf(self, x):
        return -np.expm1(-self.rate * np.asarray(x, dtype=float))

    def sf(self, x):
        return np.exp(-self.rate * np.asarray(x, dtype=float))

    def pdf_derivative(self, x):
        return -self.rate * self.rate * np.exp(-self.rate * np.asarray(x, dtype=float))

    def quantile(self, u):
        return -np.log1p(-np.asarray(u, dtype=float)) / self.rate

    def hazard_rate(self, x):
        return np.full_like(np.asarray(x, dtype=float), self.rate)

    def hazard_derivative(self, x):
        return np.zeros_like(np.asarray(x, dtype=float))


@dataclass(frozen=True)
class Lomax(DistributionModel):
    """Shifted Pareto with pdf (a/s)(1 + x/s)^-(a+1); decreasing hazard."""

    shape: float = 1.0
    scale: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.shape < math.inf:
            raise ValueError("shape must be finite and > 0")
        if not 0.0 < self.scale < math.inf:
            raise ValueError("scale must be finite and > 0")

    def pdf(self, x):
        t = 1.0 + np.asarray(x, dtype=float) / self.scale
        return (self.shape / self.scale) * t ** -(self.shape + 1.0)

    def cdf(self, x):
        t = 1.0 + np.asarray(x, dtype=float) / self.scale
        return 1.0 - t ** -self.shape

    def sf(self, x):
        return (1.0 + np.asarray(x, dtype=float) / self.scale) ** -self.shape

    def pdf_derivative(self, x):
        t = 1.0 + np.asarray(x, dtype=float) / self.scale
        return -(self.shape * (self.shape + 1.0) / self.scale ** 2) * t ** -(self.shape + 2.0)

    def quantile(self, u):
        u = np.asarray(u, dtype=float)
        return self.scale * ((1.0 - u) ** (-1.0 / self.shape) - 1.0)

    def hazard_rate(self, x):
        return self.shape / (self.scale + np.asarray(x, dtype=float))

    def hazard_derivative(self, x):
        return -self.shape / (self.scale + np.asarray(x, dtype=float)) ** 2


def _elementwise(f):
    """f on each element of an array, as float64 (a scalar for a scalar)."""
    ufunc = np.frompyfunc(f, 1, 1)
    return lambda x: np.asarray(ufunc(x), dtype=float)[()]


# The half-Gaussian's erf and erfc come from libm: glibc's are within
# 2 ulp on [0, 26], and importing scipy.special for them would cost more
# start-up time than any test spends computing.
_ERF = _elementwise(math.erf)
_ERFC = _elementwise(math.erfc)


def _coefficients(text: str) -> tuple:
    return tuple(np.longdouble(c) for c in text.split())


# Wichura's AS241 (PPND16, Appl. Statist. 37, 1988) rational
# approximations to the standard normal quantile, each a (numerator,
# denominator) pair, highest power first: the central branch in
# 0.180625 - q**2 and the two tail branches in sqrt(-log(1 - p)) less
# 1.6 and less 5.
_AS241_CENTRAL = (
    _coefficients("2.5090809287301226727e+3 3.3430575583588128105e+4 "
                  "6.7265770927008700853e+4 4.5921953931549871457e+4 "
                  "1.3731693765509461125e+4 1.9715909503065514427e+3 "
                  "1.3314166789178437745e+2 3.3871328727963666080e+0"),
    _coefficients("5.2264952788528545610e+3 2.8729085735721942674e+4 "
                  "3.9307895800092710610e+4 2.1213794301586595867e+4 "
                  "5.3941960214247511077e+3 6.8718700749205790830e+2 "
                  "4.2313330701600911252e+1 1.0"),
)
_AS241_NEAR = (
    _coefficients("7.74545014278341407640e-4 2.27238449892691845833e-2 "
                  "2.41780725177450611770e-1 1.27045825245236838258e+0 "
                  "3.64784832476320460504e+0 5.76949722146069140550e+0 "
                  "4.63033784615654529590e+0 1.42343711074968357734e+0"),
    _coefficients("1.05075007164441684324e-9 5.47593808499534494600e-4 "
                  "1.51986665636164571966e-2 1.48103976427480074590e-1 "
                  "6.89767334985100004550e-1 1.67638483018380384940e+0 "
                  "2.05319162663775882187e+0 1.0"),
)
_AS241_FAR = (
    _coefficients("2.01033439929228813265e-7 2.71155556874348757815e-5 "
                  "1.24266094738807843860e-3 2.65321895265761230930e-2 "
                  "2.96560571828504891230e-1 1.78482653991729133580e+0 "
                  "5.46378491116411436990e+0 6.65790464350110377720e+0"),
    _coefficients("2.04426310338993978564e-15 1.42151175831644588870e-7 "
                  "1.84631831751005468180e-5 7.86869131145613259100e-4 "
                  "1.48753612908506148525e-2 1.36929880922735805310e-1 "
                  "5.99832206555887937690e-1 1.0"),
)


def _rational(coefficients, r: np.ndarray) -> np.ndarray:
    """numerator(r) / denominator(r) by Horner's rule, in r's precision."""
    num, den = (np.full_like(r, c[0]) for c in coefficients)
    for a, b in zip(coefficients[0][1:], coefficients[1][1:]):
        num *= r
        num += a
        den *= r
        den += b
    return num / den


def _half_normal_quantile(u, scale: float):
    """scale * Phi^-1(1/2 + u/2) for u in [0, 1], by AS241 in extended precision.

    Both of AS241's inputs are formed exactly: q = p - 1/2 = u/2, and,
    past the central branch (u > 0.85), 1 - p = (1 - u)/2, with 1 - u
    exact by Sterbenz's lemma.  The approximation is evaluated in
    ``np.longdouble`` (x86-64's 80-bit format, a 64-bit mantissa) and
    rounded once to float64.  Its rounding noise, about 2**-11 of a
    double ulp, is far below the quantile's step between neighbouring
    doubles (at least about 0.6 ulp), so the result is nondecreasing
    over consecutive doubles; that argument does not reach the seams
    between branches, u = 0.85 and u = 1 - 2e**-25, which tests pin.
    Against a 40-digit reference it is within 1 ulp on 3,000 points.
    At u = 1 it is inf, like every family's quantile.
    """
    u = np.asarray(u, dtype=float)
    x = np.empty(u.shape, dtype=np.longdouble)
    central = u <= 0.85
    q = u[central].astype(np.longdouble) / 2
    x[central] = q * _rational(_AS241_CENTRAL, np.longdouble("0.180625") - q * q)
    tail = ~central
    r = np.sqrt(-np.log((1.0 - u[tail]).astype(np.longdouble) / 2))
    far = r > 5
    r[~far] = _rational(_AS241_NEAR, r[~far] - np.longdouble("1.6"))
    with np.errstate(invalid="ignore"):  # inf / inf at u = 1
        r[far] = _rational(_AS241_FAR, r[far] - 5)
    x[tail] = r
    x[u == 1.0] = np.inf
    x *= scale
    return x.astype(float)[()]


@dataclass(frozen=True)
class HalfGaussian(DistributionModel):
    """Positive half of a centered Gaussian; increasing hazard rate."""

    scale: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.scale < math.inf:
            raise ValueError("scale must be finite and > 0")

    def pdf(self, x):
        z = np.asarray(x, dtype=float) / self.scale
        return (2.0 / (self.scale * _SQRT_2PI)) * np.exp(-0.5 * z * z)

    def cdf(self, x):
        return _ERF(np.asarray(x, dtype=float) / (self.scale * _SQRT2))

    def sf(self, x):
        return _ERFC(np.asarray(x, dtype=float) / (self.scale * _SQRT2))

    # x / scale / scale, not x / scale**2: the square overflows for a
    # scale past 1.3e154 and loses bits below 1.5e-154 (it is 0 below
    # 2.2e-162), where x / scale is still of order 1.
    def pdf_derivative(self, x):
        x = np.asarray(x, dtype=float)
        return -(x / self.scale / self.scale) * self.pdf(x)

    def quantile(self, u):
        return _half_normal_quantile(u, self.scale)

    def hazard_rate(self, x):
        return self.pdf(x) / self.sf(x)

    def hazard_derivative(self, x):
        x = np.asarray(x, dtype=float)
        h = self.hazard_rate(x)
        return h * (h - x / self.scale / self.scale)


@dataclass(frozen=True)
class StretchedExponential(DistributionModel):
    """cdf 1 - exp(-rate * x**m) with 0 < m < 1.

    The density is unbounded at the origin and the hazard rate
    rate*m*x^(m-1) decreases everywhere: at x = 0 the formulas give
    +inf for the pdf and hazard rate and -inf for their derivatives.
    """

    rate: float = 1.0
    exponent: float = 0.5

    def __post_init__(self):
        if not 0.0 < self.rate < math.inf:
            raise ValueError("rate must be finite and > 0")
        if not (0.0 < self.exponent < 1.0):
            raise ValueError("exponent must lie in (0, 1)")

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        m = self.exponent
        with np.errstate(divide="ignore", over="ignore"):
            return self.rate * m * x ** (m - 1.0) * np.exp(-self.rate * x ** m)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        return -np.expm1(-self.rate * x ** self.exponent)

    def sf(self, x):
        return np.exp(-self.rate * np.asarray(x, dtype=float) ** self.exponent)

    def pdf_derivative(self, x):
        x = np.asarray(x, dtype=float)
        m, g = self.exponent, self.rate
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            inner = (m - 1.0) * x ** (m - 2.0) - g * m * x ** (2.0 * m - 2.0)
            return g * m * np.exp(-g * x ** m) * inner

    def quantile(self, u):
        u = np.asarray(u, dtype=float)
        return (-np.log1p(-u) / self.rate) ** (1.0 / self.exponent)

    def hazard_rate(self, x):
        x = np.asarray(x, dtype=float)
        m = self.exponent
        with np.errstate(divide="ignore"):
            return self.rate * m * x ** (m - 1.0)

    def hazard_derivative(self, x):
        x = np.asarray(x, dtype=float)
        m = self.exponent
        with np.errstate(divide="ignore"):
            return self.rate * m * (m - 1.0) * x ** (m - 2.0)


# ---------------------------------------------------------------------------
# module-level operations
# ---------------------------------------------------------------------------

def quantile(model: DistributionModel, u):
    """Quantile at mass u in [0, 1); diverges at 1 because support is unbounded."""
    u_arr = np.asarray(u, dtype=float)
    if np.any((u_arr < 0.0) | (u_arr >= 1.0)):
        raise ValueError("quantile requires 0 <= u < 1")
    out = model.quantile(u_arr)
    return float(out) if np.ndim(u) == 0 else out


# Values drawn and mapped per chunk: 128 KiB of float64, so a chunk and the
# quantile's temporaries stay in L2.
_CHUNK = 1 << 14

# The largest double below 1, where every family's quantile is finite.
_BELOW_ONE = 1.0 - 2.0 ** -53


def _variates(u: np.ndarray) -> np.ndarray:
    """Map ``Generator.random()`` output j * 2**-53 in place to the variate.

    Adding 2**-54 gives (j + 0.5) * 2**-53, which never hits 0, so the
    quantile transform never diverges at the origin.  For the one j =
    2**53 - 1 the sum rounds up to exactly 1, where every quantile is
    infinite; the clamp maps it to 1 - 2**-53 and changes no other value.
    """
    u += 2.0 ** -54
    return np.minimum(u, _BELOW_ONE, out=u)


def uniform_order_statistics(n: int, ranks, seed: int) -> np.ndarray:
    """Order statistics of n uniforms on (0, 1) at 1-based ranks, ascending
    along each row of the grid ``ranks``: one row per split.

    Uniform order statistics at ranks r_1 < ... < r_m are partial sums
    of independent Gamma(r_j - r_(j-1)) spacings over their Gamma(n+1)
    total (Renyi's representation).  The grid's spacings are one
    ``standard_gamma`` call on the seed's generator, which draws them
    row by row, so a row does not depend on the rows after it.  A
    quotient that rounds to 1 is clamped to the largest double below 1.
    """
    ranks = np.asarray(ranks)
    shapes = np.empty((*ranks.shape[:-1], ranks.shape[-1] + 1), dtype=np.int64)
    shapes[..., :-1] = ranks  # np.diff's prepend and append cost more than the draws
    shapes[..., -1] = n + 1
    shapes[..., 1:] -= ranks
    sums = np.random.default_rng(seed).standard_gamma(shapes).cumsum(axis=-1)
    return np.minimum(sums[..., :-1] / sums[..., -1:], _BELOW_ONE)


def _sample_chunks(model: DistributionModel, n: int, seed: int):
    """n inverse-transform samples in stream order, as arrays of up to _CHUNK values.

    Each chunk maps the next ``Generator.random`` values of one seeded
    generator, which are the values one ``random(n)`` call would give.
    The quantile acts on each value alone and gives the same bits on a
    chunk as on the whole array, so the chunking never shows in the
    values.  n and the seed are checked at the call, before any chunk,
    and each chunk is refused unless finite (``_finite``) before it is yielded.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    return (_finite(model, model.quantile(_variates(rng.random(min(_CHUNK, n - start)))))
            for start in range(0, n, _CHUNK))


def _finite(model: DistributionModel, chunk: np.ndarray) -> np.ndarray:
    """``chunk`` of ``model``'s samples, if all are finite."""
    if not chunk.max() < math.inf:  # NaN fails too
        raise ValueError(f"{model!r} draws a non-finite sample: its quantile overflows float64")
    return chunk


def sample(model: DistributionModel, n: int, seed: int) -> np.ndarray:
    """n inverse-transform samples in stream order; same seed gives bit-identical output."""
    chunks = _sample_chunks(model, n, seed)
    out, at = np.empty(n), 0
    for chunk in chunks:
        out[at:at + chunk.size] = chunk
        at += chunk.size
    return out


def _longest_run(flags: np.ndarray) -> int:
    """Length of the longest run of consecutive True entries in a 1-d array."""
    edges = np.diff(np.concatenate(([0], np.asarray(flags, dtype=np.int8), [0])))
    return int(np.max(np.flatnonzero(edges == -1) - np.flatnonzero(edges == 1), initial=0))


def classify_tail(model: DistributionModel, tail: TailParams) -> TailClass:
    """Ground-truth oracle for the tail class of an analytic model.

    Evaluates the hazard derivative on the quantile grid x = Q(j/g) for
    j = 0..g-1, g = 10,000.  LIGHT if the derivative is >= -1e-12
    everywhere (the tolerance absorbs round-off in the exponential's
    exactly-zero derivative).  HEAVY_AT_LEAST if some contiguous run of grid cells
    with derivative < -alpha carries mass >= rho, counting each grid
    point as owning the mass cell [j/g, (j+1)/g) to its right.
    Otherwise INDETERMINATE.
    """
    g = 10_000
    u = np.arange(g, dtype=float) / g
    x = model.quantile(u)
    deriv = np.asarray(model.hazard_derivative(x), dtype=float)

    if np.all(deriv >= -1e-12):
        return TailClass.LIGHT

    if _longest_run(deriv < -tail.alpha) / g >= tail.rho - 1e-12:
        return TailClass.HEAVY_AT_LEAST
    return TailClass.INDETERMINATE


def _inv_cdf_second_derivative(model: DistributionModel, y: np.ndarray) -> np.ndarray:
    """(F^-1)''(y) = -f'(F^-1(y)) / f(F^-1(y))**3, guarded against 0/0."""
    x = model.quantile(y)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        out = -np.asarray(model.pdf_derivative(x), dtype=float) / \
            np.asarray(model.pdf(x), dtype=float) ** 3
    return np.nan_to_num(out, nan=np.inf, posinf=np.inf, neginf=-np.inf)


def estimate_bounds(model: DistributionModel, zeta: float) -> WellBehavedBounds:
    """Grid estimates of the well-behavedness constants on [0, 1 - zeta].

    beta is the density at the origin (monotone pdf peaks there); b1 is
    the grid maximum of (F^-1)''; b2 the grid maximum of |(F^-1)'''|
    obtained by central-differencing (F^-1)'' with step min(1e-5,
    zeta/10) (one-sided at y = 0).  Grid maxima are deliberate: simple,
    family-agnostic, and the bounds only feed thresholds and sample
    budgets.
    """
    if not (0.0 < zeta < 1.0):
        raise ValueError("zeta must lie in (0, 1)")
    beta = float(model.pdf(0.0))
    grid = np.linspace(0.0, 1.0 - zeta, 10_000)
    b1 = float(np.max(_inv_cdf_second_derivative(model, grid)))

    h = min(1e-5, zeta / 10.0)
    inner = grid[grid >= h]
    third = (_inv_cdf_second_derivative(model, inner + h)
             - _inv_cdf_second_derivative(model, inner - h)) / (2.0 * h)
    edge = (_inv_cdf_second_derivative(model, np.array([h]))
            - _inv_cdf_second_derivative(model, np.array([0.0]))) / h
    b2 = float(max(np.max(np.abs(third)), abs(edge[0])))
    return WellBehavedBounds(beta=beta, b1=b1, b2=b2, zeta=zeta)


_FAMILY_PARSERS = {
    "exponential": (("lambda",), lambda p: Exponential(rate=p["lambda"])),
    "lomax": (("a", "lambda"), lambda p: Lomax(shape=p["a"], scale=p["lambda"])),
    "halfgaussian": (("sigma",), lambda p: HalfGaussian(scale=p["sigma"])),
    "stretchedexponential": (
        ("gamma", "m"),
        lambda p: StretchedExponential(rate=p["gamma"], exponent=p["m"]),
    ),
}


def model_from_name(name: str, params: dict[str, float]) -> DistributionModel:
    """Build a model from a family name and parameter mapping.

    Parameter keys are fixed per family: exponential(lambda),
    lomax(a, lambda), halfgaussian(sigma),
    stretchedexponential(gamma, m).  Unknown keys are hard errors.
    """
    key = name.strip().lower().replace("-", "").replace("_", "")
    if key not in _FAMILY_PARSERS:
        raise ValueError(
            f"unknown distribution {name!r}; choose from {sorted(_FAMILY_PARSERS)}"
        )
    wanted, build = _FAMILY_PARSERS[key]
    extra = set(params) - set(wanted)
    missing = set(wanted) - set(params)
    if extra:
        raise ValueError(f"unknown parameter(s) {sorted(extra)} for {key}")
    if missing:
        raise ValueError(f"missing parameter(s) {sorted(missing)} for {key}")
    return build(params)
