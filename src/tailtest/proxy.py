"""Exact tail proxy and its discrete two-granularity approximation.

For a monotone density the quantity S(z) = -f(x)^2 / f'(x) at
x = Q(z) equals the ratio of the equal-weight bucket length to its rate
of change.  S sits above 1 - z exactly when the hazard rate is
non-decreasing, and a hazard drop of alpha pushes S below 1 - z by at
least alpha*(1-z)^2 / (beta^3 * B1), the "gap", which
``separation_gap`` computes for one z or an array of them.
``proxy_curve`` tabulates S, its discretization, 1 - z and the gap per
coarse bucket.  Everything here is computed from analytic models; the
sample-side counterpart lives in ``tailtest.empirical``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distributions import DistributionModel, TailParams, WellBehavedBounds
from .empirical import four_point_ratio, is_degenerate

__all__ = [
    "ProxyPoint",
    "proxy_value",
    "separation_gap",
    "discrete_proxy",
    "proxy_curve",
]


@dataclass(frozen=True)
class ProxyPoint:
    z: float
    s: float
    s_tilde: float
    threshold: float
    gap: float


def proxy_value(model: DistributionModel, z: float) -> float:
    """S(z) = -f(Q(z))^2 / f'(Q(z)) for 0 < z < 1.

    Undefined where the density has zero slope (e.g. the half-Gaussian
    at z = 0); that raises rather than returning a signed infinity.
    """
    if not (0.0 < z < 1.0):
        raise ValueError("z must lie in (0, 1)")
    x = model.quantile(np.float64(z))
    f = float(model.pdf(x))
    fprime = float(model.pdf_derivative(x))
    if not fprime < 0.0:
        raise ValueError(
            f"proxy undefined at z={z!r}: pdf slope is {fprime!r}, must be < 0"
        )
    return -(f * f) / fprime


def separation_gap(z, tail: TailParams, bounds: WellBehavedBounds):
    """Gap alpha*(1-z)^2 / (beta^3 * b1) below the threshold 1 - z.

    Accepts a scalar or an array of z in (0, 1); the tester subtracts
    half the gap from its reference when deciding.
    """
    z = np.asarray(z, dtype=float)
    if not np.all((0.0 < z) & (z < 1.0)):
        raise ValueError("z must lie in (0, 1)")
    om = 1.0 - z
    return tail.alpha * om * om / (bounds.beta ** 3 * bounds.b1)


def discrete_proxy(model: DistributionModel, i: int, k: int) -> float:
    """Two-granularity approximation of S at z = i/k.

    Uses quantile increments of width 1/k^2 a coarse step 1/k apart, so
    the error decays like 1/k.  Defined for 1 <= i <= k-2 (the last
    coarse bucket would need the quantile at mass 1); the testers scan
    only 2..k-2.
    """
    if k < 4:
        raise ValueError("k must be >= 4")
    if not (1 <= i <= k - 2):
        raise ValueError(f"bucket index {i} outside [1, {k - 2}]")
    # The four-split layout's masses, formed as offsets from z = i/k; the
    # layout's own (i*k+1)/k^2 can differ in the last bit.
    z, d, step = i / k, 1.0 / (k * k), 1.0 / k
    s = float(four_point_ratio(*model.quantile(np.array([z + d, z, z + step + d, z + step])), k))
    if is_degenerate(s):
        raise ValueError(
            "non-positive curvature in discrete proxy; "
            "quantile function is not strictly convex here"
        )
    return s


def proxy_curve(model: DistributionModel, k: int, tail: TailParams,
                bounds: WellBehavedBounds) -> tuple[ProxyPoint, ...]:
    """Exact proxy, discrete proxy, threshold and gap per coarse bucket 2..k-2."""
    if k < 4:
        raise ValueError("k must be >= 4")
    return tuple(ProxyPoint(z=i / k, s=proxy_value(model, i / k),
                            s_tilde=discrete_proxy(model, i, k), threshold=1.0 - i / k,
                            gap=float(separation_gap(i / k, tail, bounds)))
                 for i in range(2, k - 1))
