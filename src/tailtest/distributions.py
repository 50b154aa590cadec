"""Closed-form distribution families on [0, inf) with monotone densities.

Every family exposes the quartet the rest of the library is built on:
pdf, cdf, pdf derivative, and quantile, plus the survival function, the
hazard rate and its analytic derivative.  All evaluators accept scalars
or numpy arrays.

Sampling is inverse-transform only: a seeded generator draws uniforms
above 0 and maps them through the quantile function, so identical seeds
give bit-identical output.  ``uniforms`` deals the raw stream
round-robin into the rows of one array, drawing a large array's column
blocks on one thread per core, each from a generator advanced to the
block's first draw, 16,384 values at a time into the thread's one
buffer; ``transform`` maps raw draws to samples in place, 16,384 at a
time, so no temporary outgrows a chunk.  Every family's
quantile is nondecreasing, so transforming a sorted row gives the sorted
samples: ``sample`` transforms the stream as drawn, and the sampling
front ends in ``harness`` sort first and then transform either every
value or only the order statistics the test reads.
"""

from __future__ import annotations

import math
import os
import threading
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

    # scipy is imported on first use, not with the module: it more than
    # doubles the start-up time of every call that never needs it.
    def cdf(self, x):
        from scipy.special import erf
        return erf(np.asarray(x, dtype=float) / (self.scale * _SQRT2))

    def sf(self, x):
        from scipy.special import erfc
        return erfc(np.asarray(x, dtype=float) / (self.scale * _SQRT2))

    def pdf_derivative(self, x):
        x = np.asarray(x, dtype=float)
        return -(x / self.scale ** 2) * self.pdf(x)

    def quantile(self, u):
        from scipy.special import erfinv
        return self.scale * _SQRT2 * erfinv(u)

    def hazard_rate(self, x):
        return self.pdf(x) / self.sf(x)

    def hazard_derivative(self, x):
        x = np.asarray(x, dtype=float)
        h = self.hazard_rate(x)
        return h * (h - x / self.scale ** 2)


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
    if np.ndim(u) == 0:
        return float(out)
    return out


# Values drawn and transformed per pass: 128 KiB of float64, so a chunk
# and the quantile's temporaries stay in L2.  Small chunks also keep a
# call's transient heap small: with 512 KiB chunks, glibc returned the
# heap top to the kernel after each of many small full tests and paged
# it back in on the next one.
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


# The fewest values a thread is given: on a 2-core Xeon two threads lost
# at 2**16 values each and won from 2**18 each; 2**19 leaves a margin.
_PER_WORKER = 1 << 19


def on_workers(fn, size: int, values: int) -> None:
    """Call fn(start, stop) on contiguous blocks covering range(size), one per thread.

    One block per usable core, at most ``size``, each worth at least
    _PER_WORKER of the call's ``values``; the first runs on this thread.
    Once all have joined, an exception of this thread's block, else the
    first one a worker raised, is raised here.
    """
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = max(1, min(cores or 1, values // _PER_WORKER, size))
    cuts = [size * w // workers for w in range(workers + 1)]
    errors = []

    def work(start, stop):
        try:
            fn(start, stop)
        except BaseException as exc:
            errors.append(exc)

    threads = [threading.Thread(target=work, args=block) for block in zip(cuts[1:-1], cuts[2:])]
    for thread in threads:
        thread.start()
    try:
        fn(cuts[0], cuts[1])
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]


def uniforms(n: int, seed: int, rows: int = 1) -> np.ndarray:
    """The seed's first rows * n raw draws, dealt round-robin into a (rows, n) array.

    PCG64 seeded through SeedSequence yields doubles j * 2**-53 with j a
    53-bit integer, which ``transform`` maps to samples.  Each double
    consumes one 64-bit output, so columns [c0, c1), draws [rows * c0,
    rows * c1), are drawn by a generator advanced rows * c0 outputs.
    Each chunk of whole columns is drawn into the block's one buffer and
    written straight into its columns, so the array holds each draw once.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    grid = np.empty((rows, int(n)))
    step = max(1, _CHUNK // rows)  # whole columns per chunk

    def fill(c0, c1):
        gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)).advance(rows * c0))
        buf = np.empty(rows * min(step, c1 - c0))
        for c in range(c0, c1, step):
            cols = min(step, c1 - c)
            grid[:, c:c + cols] = gen.random(out=buf[:rows * cols]).reshape(cols, rows).T

    on_workers(fill, grid.shape[1], grid.size)
    return grid


def transform(model: DistributionModel, u: np.ndarray) -> np.ndarray:
    """Map raw draws u to samples of model in place, _CHUNK at a time.

    The quantile acts on each value alone and gives the same bits on a
    chunk, a gathered subset or the whole array, so the chunking never
    shows in the output.
    """
    for start in range(0, u.size, _CHUNK):
        chunk = u[start:start + _CHUNK]
        chunk[...] = model.quantile(_variates(chunk))
    return u


def sample(model: DistributionModel, n: int, seed: int) -> np.ndarray:
    """n inverse-transform samples in stream order; same seed gives bit-identical output."""
    return transform(model, uniforms(n, seed)[0])


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
