"""Exact tail proxy and its discrete two-granularity approximation.

For a monotone density the quantity S(z) = -f(x)^2 / f'(x) at
x = Q(z) equals the ratio of the equal-weight bucket length to its rate
of change.  S sits above 1 - z exactly when the hazard rate is
non-decreasing, and a hazard drop of alpha pushes S below 1 - z by at
least alpha*(1-z)^2 / (beta^3 * B1), the "gap", which
``separation_gap`` computes for one z or an array of them.
``proxy_curve`` tabulates S, its discretization, 1 - z and the gap per
four-split bucket.  Everything here is computed from analytic models;
the sample-side counterpart lives in ``tailtest.empirical``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import DistributionModel, TailParams, WellBehavedBounds
from .empirical import FOUR_SPLIT, four_point_ratio

__all__ = [
    "ProxyPoint",
    "proxy_value",
    "separation_gap",
    "discrete_proxy",
    "proxy_curve",
]


@dataclass(frozen=True)
class ProxyPoint:
    """One bucket of ``proxy_curve``: the exact and discrete proxies, threshold and gap."""
    i: int
    z: float
    proxy_s: float
    s_tilde: float
    threshold: float
    gap: float


def proxy_value(model: DistributionModel, z: float) -> float:
    """S(z) = -f(Q(z))^2 / f'(Q(z)) for 0 < z < 1.

    Undefined where the density has zero slope (e.g. the half-Gaussian
    at z = 0); that raises rather than returning a signed infinity.  So
    does an S that f, f' or f**2 leaving the double range makes 0, inf
    or nan (a half-Gaussian of scale 1e-200, whose f' is near 1e400).
    """
    if not (0.0 < z < 1.0):
        raise ValueError("z must lie in (0, 1)")
    x = model.quantile(np.float64(z))
    with np.errstate(over="ignore", invalid="ignore"):  # refused below, by name
        f = float(model.pdf(x))
        fprime = float(model.pdf_derivative(x))
    if not fprime < 0.0:
        raise ValueError(
            f"proxy undefined at z={z!r}: pdf slope is {fprime!r}, must be < 0"
        )
    proxy = -(f * f) / fprime
    if not 0.0 < proxy < math.inf:
        raise ValueError(f"proxy undefined at z={z!r}: -f^2/f' is {proxy!r} for "
                         f"f = {f!r}, f' = {fprime!r}, outside the double range")
    return proxy


def separation_gap(z, tail: TailParams, bounds: WellBehavedBounds):
    """Gap alpha*(1-z)^2 / (beta^3 * b1) below the threshold 1 - z.

    Accepts a scalar or an array of z in (0, 1); the tester subtracts
    half the gap from its reference when deciding.  With alpha 0 the gap
    is 0 whatever the bounds; any other gap that is not finite (beta**3
    * b1 underflowing to 0, or the quotient overflowing) raises.
    """
    z = np.asarray(z, dtype=float)
    if not np.all((0.0 < z) & (z < 1.0)):
        raise ValueError("z must lie in (0, 1)")
    om = 1.0 - z
    if tail.alpha == 0.0:
        return 0.0 * om
    try:
        scale = bounds.beta ** 3 * bounds.b1
    except OverflowError:  # beta**3 is past the largest double: the gap is 0
        scale = math.inf
    with np.errstate(all="ignore"):
        gap = tail.alpha * om * om / scale
    if not np.all(np.isfinite(gap)):
        raise ValueError(f"separation gap alpha*(1-z)^2 / (beta^3 * b1) is not finite at "
                         f"alpha={tail.alpha!r}, beta={bounds.beta!r}, b1={bounds.b1!r}")
    return gap


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
    if math.isinf(s):
        raise ValueError(
            "non-positive curvature in discrete proxy; "
            "quantile function is not strictly convex here"
        )
    return s


def proxy_curve(model: DistributionModel, k: int, tail: TailParams,
                bounds: WellBehavedBounds) -> tuple[ProxyPoint, ...]:
    """Exact proxy, discrete proxy, threshold and gap per four-split bucket."""
    if k < 4:
        raise ValueError("k must be >= 4")
    return tuple(ProxyPoint(i=i, z=i / k, proxy_s=proxy_value(model, i / k),
                            s_tilde=discrete_proxy(model, i, k), threshold=1.0 - i / k,
                            gap=float(separation_gap(i / k, tail, bounds)))
                 for i in FOUR_SPLIT.buckets(k))
