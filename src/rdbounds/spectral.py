"""Characteristic functions of the tilted kernel and the coincidence certificates.

Every density in scope is even, so all characteristic functions here are
real-valued cosine transforms.  The tilted kernel's CF factors exactly into a
Laplace CF times the CF of a delta-pair/uniform mixture; the two certificate
functions below witness that no valid reproduction CF can close the
factorization for Laplacian (|s| > alpha) or Gaussian sources.  Public
functions check their inputs once; the ``_`` bodies take checked floats.
"""

from __future__ import annotations

import math

import numpy as np

from .tilted import EpsilonLoss, _check_slope, _positive

__all__ = [
    "laplace_cf",
    "mixture_cf",
    "tilted_cf",
    "laplacian_witness",
    "first_witness_index",
    "gaussian_deconvolution_density",
]


def _sinc(u):
    """sin(u)/u, 1 at u = 0.

    The quotient does not cancel: sin(u) keeps its relative accuracy down to
    the smallest subnormal, so only the 0/0 at u = 0 needs a branch.
    """
    return np.divide(np.sin(u), u, out=np.ones_like(u), where=u != 0)


def laplace_cf(omega, s: float):
    """CF of the Laplace density with rate |s|: s^2 / (s^2 + omega^2)."""
    out = _laplace_cf(np.asarray(omega, dtype=float), _check_slope(s))
    return out if out.ndim else float(out)


def _laplace_cf(omega, s: float):
    return s * s / (s * s + omega * omega)


def mixture_cf(omega, s: float, loss: EpsilonLoss):
    """CF of the delta-pair/uniform mixture on [-eps, eps].

    (eps |s| sinc(omega eps) + cos(omega eps)) / (1 + |s| eps); identically 1
    at eps = 0.
    """
    out = _mixture_cf(np.asarray(omega, dtype=float), _check_slope(s), loss.epsilon)
    return out if out.ndim else float(out)


def _mixture_cf(omega, s: float, eps: float):
    u = omega * eps
    return (eps * abs(s) * _sinc(u) + np.cos(u)) / (1.0 + abs(s) * eps)


def tilted_cf(omega, s: float, loss: EpsilonLoss):
    """CF of the tilted kernel: the product of the two factors above."""
    s, omega = _check_slope(s), np.asarray(omega, dtype=float)
    out = _laplace_cf(omega, s) * _mixture_cf(omega, s, loss.epsilon)
    return out if out.ndim else float(out)


def laplacian_witness(alpha: float, s: float, loss: EpsilonLoss, k: int) -> float:
    """Lower bound forced on |Q| at frequency (2k - 1/2) pi / eps.

    Q is the candidate reproduction CF that would make the lower bound tight
    for a Laplacian(alpha) source.  The bound grows linearly in k, so as soon
    as it exceeds 1 no valid characteristic function exists.  Requires eps > 0
    and |s| > alpha.
    """
    coef = _witness_coef(alpha, s, loss)
    k = int(k)
    if k < 1:
        raise ValueError("k must be a positive integer")
    return _laplacian_witness(coef, k)


def _witness_coef(alpha, s, loss: EpsilonLoss) -> float:
    """The witness over (2k - 1/2) pi: alpha^2/s^2 (1 + u)/u, u = eps |s|, inputs checked."""
    s, alpha = _check_slope(s), _positive(alpha, "alpha")
    if loss.epsilon <= 0.0:
        raise ValueError("witness requires epsilon > 0")
    if abs(s) <= alpha:
        raise ValueError(f"witness requires |s| > alpha, got |s| = {abs(s)!r}, alpha = {alpha!r}")
    u = loss.epsilon * abs(s)
    return (alpha**2 / (s * s)) * ((1.0 + u) / u)


def _laplacian_witness(coef: float, k: int) -> float:
    return coef * (2.0 * k - 0.5) * math.pi


def first_witness_index(alpha: float, s: float, loss: EpsilonLoss, threshold: float = 1.0) -> int:
    """Smallest k whose witness exceeds threshold (exists: the bound is unbounded in k).

    The witness is nondecreasing in k, so the k found from any first guess is the same."""
    coef = _witness_coef(alpha, s, loss)
    k = max(1, int(math.ceil((threshold / coef / math.pi + 0.5) / 2.0)) - 1)
    while _laplacian_witness(coef, k) <= threshold:
        k += 1
    while k > 1 and _laplacian_witness(coef, k - 1) > threshold:
        k -= 1
    return k


def gaussian_deconvolution_density(x, sigma2: float, s: float):
    """Inverse transform of the Gaussian CF divided by the Laplace factor.

    Equals p(x) (1 + 1/(s^2 sigma^2) - x^2/(s^2 sigma^4)); it integrates to 1
    but turns negative for |x| > sigma sqrt(1 + s^2 sigma^2), so it is not a
    density and the lower bound cannot be tight for Gaussian sources.
    """
    s, sigma2, x = _check_slope(s), _positive(sigma2, "sigma2"), np.asarray(x, dtype=float)
    pdf = np.exp(-0.5 * x * x / sigma2) / math.sqrt(2.0 * math.pi * sigma2)  # Gaussian.pdf
    out = pdf * (1.0 + 1.0 / (s * s * sigma2) - x * x / (s * s * sigma2 * sigma2))
    return out if out.ndim else float(out)
