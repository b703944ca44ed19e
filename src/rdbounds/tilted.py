"""Closed forms for the exponentially tilted density of the epsilon-insensitive loss.

For a slope s < 0 the tilted density g(x) = exp(s * loss(x)) / C(s) is flat
on the insensitivity band [-epsilon, epsilon] and has Laplace tails of rate
|s| outside it.  Everything below is exact closed form; entropies and rates
are in nats.  There is no upper limit on |s|, but relative accuracy of the
derived quantities degrades gradually once |s| exceeds ~1e12.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "EpsilonLoss",
    "normalizer",
    "tilted_pdf",
    "tilted_cdf",
    "tilted_entropy",
    "tilted_variance",
    "distortion_of_slope",
    "slope_of_distortion",
]


@dataclass(frozen=True)
class EpsilonLoss:
    """Even convex loss: zero on [-epsilon, epsilon], |z| - epsilon outside."""

    epsilon: float = 0.0

    def __post_init__(self):
        eps = float(self.epsilon)
        if not math.isfinite(eps) or eps < 0.0:
            raise ValueError(f"epsilon must be finite and >= 0, got {self.epsilon!r}")
        object.__setattr__(self, "epsilon", eps)

    def __call__(self, z):
        z = np.asarray(z, dtype=float)
        out = np.maximum(np.abs(z) - self.epsilon, 0.0)
        return out if out.ndim else float(out)


def _check_slope(s) -> float:
    s = float(s)
    if not math.isfinite(s) or s >= 0.0:
        raise ValueError(f"slope s must be a finite negative real, got {s!r}")
    return s


def normalizer(s: float, loss: EpsilonLoss) -> float:
    """Normalizing constant C(s) = integral of exp(s * loss) = 2(1 + |s| eps)/|s|."""
    s = _check_slope(s)
    return 2.0 * (1.0 + abs(s) * loss.epsilon) / abs(s)


def tilted_pdf(x, s: float, loss: EpsilonLoss):
    """Density exp(s * loss(x)) / C(s); flat top, exponential tails."""
    s = _check_slope(s)
    x = np.asarray(x, dtype=float)
    out = np.exp(s * np.maximum(np.abs(x) - loss.epsilon, 0.0)) / normalizer(s, loss)
    return out if out.ndim else float(out)


def tilted_cdf(t, s: float, loss: EpsilonLoss):
    """Cumulative distribution of the tilted density (exact piecewise form)."""
    s = _check_slope(s)
    eps = loss.epsilon
    b = abs(s)
    c = normalizer(s, loss)
    t = np.asarray(t, dtype=float)
    # the middle branch is built in place on every lane and each tail only on
    # its own lanes (sign -1: the upper tail 1 - e^{-b(t - eps)} / (b C)), so
    # no exponent overflows and no value np.where would discard is computed;
    # the lower tail is written last and wins at t = eps = 0
    out = np.asarray(t + eps)
    out /= c
    out += 1.0 / (b * c)
    for lanes, sign in ((t >= eps, -1.0), (t <= -eps, 1.0)):
        x = t[lanes]
        x += sign * eps
        x *= sign * b
        np.exp(x, out=x)
        x /= b * c
        out[lanes] = x if sign > 0.0 else np.subtract(1.0, x, out=x)
    return out if out.ndim else float(out)


def tilted_entropy(s: float, loss: EpsilonLoss) -> float:
    """Differential entropy of the tilted density: log C(s) + 1/(1 + |s| eps)."""
    s = _check_slope(s)
    u = abs(s) * loss.epsilon
    return math.log(2.0 * (1.0 + u) / abs(s)) + 1.0 / (1.0 + u)


def distortion_of_slope(s: float, loss: EpsilonLoss) -> float:
    """Mean loss under the tilted density: 1/((1 + eps |s|) |s|).

    Strictly decreasing in |s|; diverges as s -> 0- and vanishes as s -> -inf.
    """
    s = _check_slope(s)
    return 1.0 / ((1.0 + loss.epsilon * abs(s)) * abs(s))


def slope_of_distortion(d: float, loss: EpsilonLoss) -> float:
    """Inverse of distortion_of_slope.

    eps = 0 takes its own exact branch (s = -1/D); the eps > 0 root is written
    in quotient form, which is free of cancellation for d >> eps.
    """
    d = float(d)
    if not math.isfinite(d) or d <= 0.0:
        raise ValueError(f"distortion must be a finite positive real, got {d!r}")
    eps = loss.epsilon
    if eps == 0.0:
        return -1.0 / d
    return -2.0 / (d + math.sqrt(d * (d + 4.0 * eps)))


def tilted_variance(s: float, loss: EpsilonLoss) -> float:
    """Variance of the tilted density.

    (2/C(s)) { eps^3/3 + (1/|s|)(eps^2 + 2 eps/|s| + 2/s^2) }; equals 2/s^2 at
    eps = 0 and tends to eps^2/3 as |s| -> inf.
    """
    s = _check_slope(s)
    eps = loss.epsilon
    b = abs(s)
    c = normalizer(s, loss)
    return (2.0 / c) * (eps**3 / 3.0 + (eps**2 + 2.0 * eps / b + 2.0 / (b * b)) / b)

