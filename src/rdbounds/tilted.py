"""Closed forms for the exponentially tilted density of the epsilon-insensitive loss.

For a slope s < 0 the tilted density g(x) = exp(s * loss(x)) / C(s) is flat
on the insensitivity band [-epsilon, epsilon] and has Laplace tails of rate
|s| outside it.  Everything below is exact closed form; entropies and rates
are in nats.  There is no upper limit on |s|, but relative accuracy of the
derived quantities degrades gradually once |s| exceeds ~1e12.  Public
functions check their inputs once; the ``_`` bodies take checked values, one
or an array of them (elementwise), so a public function is its body's
one-value case and a sweep's column is one body call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "EpsilonLoss",
    "normalizer",
    "tilted_pdf",
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


def _positive(value, name: str) -> float:
    """value as a float, or ValueError naming it unless it is finite and > 0."""
    v = float(value)
    if not math.isfinite(v) or v <= 0.0:
        raise ValueError(f"{name} must be a finite positive real, got {v!r}")
    return v


def _check_slope(s) -> float:
    s = float(s)
    if not math.isfinite(s) or s >= 0.0:
        raise ValueError(f"slope s must be a finite negative real, got {s!r}")
    return s


def _check_slopes(s) -> np.ndarray:
    """s as a float array, each entry a finite negative real (or ValueError)."""
    s = np.asarray(s, dtype=float)
    bad = ~((s < 0.0) & (s > -np.inf))
    if bad.any():
        raise ValueError(f"slope s must be a finite negative real, got {float(s[bad].flat[0])!r}")
    return s


def _normalizer(s, eps: float):
    """C(s) = 2/|s| + 2 eps of valid slopes (one or an array), finite wherever C(s)
    is: inf only where 2/|s| is, for |s| below about 1.1e-308."""
    return 2.0 / abs(s) + 2.0 * eps


def _kernel_reach(s):
    # beyond eps + 45/|s| the kernel is below e^-45 of its peak
    return 45.0 / abs(s)


def _log_normalizer(s, eps: float):
    """log C(s) of valid slopes (one or an array), finite at every slope: where C(s)
    overflows it is carried as log 2 + log1p(|s| eps) - log |s|."""
    b, c = abs(s), _normalizer(s, eps)
    return np.where(c < math.inf, np.log(c), math.log(2.0) + np.log1p(b * eps) - np.log(b))


def _tilted_entropy(s, eps: float):
    """h(g) = log C(s) + 1/(1 + |s| eps) of valid slopes (one or an array)."""
    return _log_normalizer(s, eps) + 1.0 / (1.0 + abs(s) * eps)


def _distortion_of_slope(s, eps: float):
    """D(s) of valid slopes (one or an array)."""
    return 1.0 / ((1.0 + eps * abs(s)) * abs(s))


def normalizer(s: float, loss: EpsilonLoss) -> float:
    """Normalizing constant C(s) = integral of exp(s * loss) = 2/|s| + 2 eps."""
    return _normalizer(_check_slope(s), loss.epsilon)


def tilted_pdf(x, s: float, loss: EpsilonLoss):
    """Density exp(s * loss(x)) / C(s); flat top, exponential tails."""
    s = _check_slope(s)
    out = np.exp(s * loss(x)) / _normalizer(s, loss.epsilon)
    return out if out.ndim else float(out)


def tilted_entropy(s: float, loss: EpsilonLoss) -> float:
    """Differential entropy of the tilted density: log C(s) + 1/(1 + |s| eps).

    Finite at every slope: where C(s) overflows, its log is carried.
    """
    return float(_tilted_entropy(_check_slope(s), loss.epsilon))


def distortion_of_slope(s: float, loss: EpsilonLoss) -> float:
    """Mean loss under the tilted density: 1/((1 + eps |s|) |s|).

    Strictly decreasing in |s|; diverges as s -> 0- and vanishes as s -> -inf.
    """
    return _distortion_of_slope(_check_slope(s), loss.epsilon)


def slope_of_distortion(d: float, loss: EpsilonLoss) -> float:
    """Inverse of distortion_of_slope.

    eps = 0 takes its own exact branch (s = -1/D); the eps > 0 root is written
    in quotient form, which is free of cancellation for d >> eps, and takes
    sqrt(d) sqrt(d + 4 eps), whose product does not overflow before the sum.
    """
    d = _positive(d, "distortion")
    with np.errstate(over="ignore"):  # s is -0.0 where the root's sum overflows
        return float(_slope_of_distortion(d, loss.epsilon))


def _slope_of_distortion(d, eps: float):
    """s(D) of valid distortions (one or an array)."""
    if eps == 0.0:
        return -1.0 / d
    return -2.0 / (d + np.sqrt(d) * np.sqrt(d + 4.0 * eps))


def _band_variance(b, eps: float, unit: float):
    """The band's share eps^2 (1/3 + (2/3)/(1 + eps |s|)) of Var g (|s| = b, one or an
    array), over unit^2."""
    e = eps / unit
    return e * (e * (1.0 / 3.0 + (2.0 / 3.0) / (1.0 + eps * b)))


def tilted_variance(s: float, loss: EpsilonLoss) -> float:
    """Variance of the tilted density: the band's share plus the tails' 2/s^2.

    Two positive terms: 2/s^2 at eps = 0, and eps^2/3 in the limit |s| -> inf.
    Never raises; it is inf only where its value is past the float range.
    """
    b = -_check_slope(s)
    return _band_variance(b, loss.epsilon, 1.0) + 2.0 / b / b

