"""Exact tail proxy and its discrete two-granularity approximation.

For a monotone density the quantity S(z) = -f(x)^2 / f'(x) at
x = Q(z) equals the ratio of the equal-weight bucket length to its rate
of change.  S sits above 1 - z exactly when the hazard rate is
non-decreasing, and a hazard drop of alpha pushes S below 1 - z by at
least alpha*(1-z)^2 / (beta^3 * B1), the "gap".  Everything here is
computed from analytic models; the sample-side counterpart lives in
``tailtest.empirical``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distributions import DistributionModel, TailParams, WellBehavedBounds
from .empirical import four_point_ratio, is_degenerate

__all__ = [
    "ProxyPoint",
    "ProxyCurve",
    "ThresholdGap",
    "proxy_value",
    "threshold_and_gap",
    "discrete_proxy",
    "proxy_curve",
]


@dataclass(frozen=True)
class ThresholdGap:
    threshold: float
    gap: float


@dataclass(frozen=True)
class ProxyPoint:
    z: float
    s: float
    s_tilde: float
    threshold: float
    gap: float


@dataclass(frozen=True)
class ProxyCurve:
    entries: tuple[ProxyPoint, ...]
    k: int

    def __post_init__(self):
        zs = [p.z for p in self.entries]
        if any(b <= a for a, b in zip(zs, zs[1:])):
            raise ValueError("curve entries must have strictly increasing z")


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


def threshold_and_gap(z: float, tail: TailParams, bounds: WellBehavedBounds,
                      denominator: float | None = None) -> ThresholdGap:
    """Threshold 1 - z and separation gap alpha*(1-z)^2 / denominator.

    The denominator defaults to beta^3 * b1 and may be overridden; the
    tester subtracts half the gap from the threshold when deciding.
    """
    if not (0.0 < z < 1.0):
        raise ValueError("z must lie in (0, 1)")
    d = bounds.beta ** 3 * bounds.b1 if denominator is None else float(denominator)
    if not d > 0.0:
        raise ValueError("gap denominator must be > 0")
    one_minus = 1.0 - z
    gap = tail.alpha * one_minus * one_minus / d
    return ThresholdGap(threshold=one_minus, gap=gap)


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
                bounds: WellBehavedBounds,
                denominator: float | None = None) -> ProxyCurve:
    """Exact proxy, discrete proxy, threshold and gap per coarse bucket."""
    if k < 4:
        raise ValueError("k must be >= 4")
    points = []
    for i in range(2, k - 1):
        z = i / k
        tg = threshold_and_gap(z, tail, bounds, denominator)
        points.append(ProxyPoint(
            z=z,
            s=proxy_value(model, z),
            s_tilde=discrete_proxy(model, i, k),
            threshold=tg.threshold,
            gap=tg.gap,
        ))
    return ProxyCurve(entries=tuple(points), k=k)
