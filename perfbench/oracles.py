"""Independent references for the benchmark's accuracy metrics.

Nothing here calls rdbounds: the kernel, the loss and the densities are
written out again, integrals go through scipy's QUADPACK or a plain
Gauss-Legendre rule whose breakpoints sit on every kink, and the Blahut gap
uses a dense kernel matrix instead of the library's FFT Toeplitz products.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate


def _norm(s: float, eps: float) -> float:
    return 2.0 * (1.0 + abs(s) * eps) / abs(s)


def _kernel(x, s: float, eps: float):
    return np.exp(s * np.maximum(np.abs(x) - eps, 0.0)) / _norm(s, eps)


def _kernel_cdf(t, s: float, eps: float):
    """CDF of the tilted kernel, piecewise: exponential, linear, exponential."""
    b = abs(s)
    c = _norm(s, eps)
    t = np.asarray(t, dtype=float)
    lo = np.exp(np.minimum(b * (t + eps), 0.0)) / (b * c)
    hi = 1.0 - np.exp(np.minimum(-b * (t - eps), 0.0)) / (b * c)
    mid = 1.0 / (b * c) + (t + eps) / c
    return np.where(t <= -eps, lo, np.where(t >= eps, hi, mid))


def _neg_xlogx(r):
    r = np.maximum(np.asarray(r, dtype=float), 0.0)
    return -np.where(r > 0.0, r * np.log(np.where(r > 0.0, r, 1.0)), 0.0)


def kernel_entropy(s: float, eps: float) -> float:
    """h(g) by QUADPACK on the half line (g is even)."""
    c = _norm(s, eps)

    def f(x):
        return -math.log(_kernel(x, s, eps)) * math.exp(s * max(x - eps, 0.0)) / c

    pts = [eps] if eps > 0.0 else None
    val, _ = integrate.quad(f, 0.0, eps + 80.0 / abs(s), points=pts, limit=200,
                            epsabs=1e-14, epsrel=1e-13)
    return 2.0 * val


def laplacian_pdf(alpha: float):
    return lambda x: 0.5 * alpha * math.exp(-alpha * abs(x))


def gaussian_pdf(sigma2: float):
    norm = 1.0 / math.sqrt(2.0 * math.pi * sigma2)
    return lambda x: norm * math.exp(-0.5 * x * x / sigma2)


def ru_smooth(pdf, s: float, eps: float, support: float, kinks=()) -> float:
    """R_U = h(g * p) - h(g) for an even smooth density, by nested QUADPACK.

    ``support`` is a half-width outside which p is negligible (below 1e-18);
    ``kinks`` are the points where p is not smooth.
    """
    reach = eps + 60.0 / abs(s)
    c = _norm(s, eps)

    def r(y):
        a, b = max(y - reach, -support), min(y + reach, support)
        if b <= a:
            return 0.0
        pts = [p for p in (y - eps, y + eps, *kinks) if a < p < b]
        val, _ = integrate.quad(
            lambda x: math.exp(s * max(abs(y - x) - eps, 0.0)) / c * pdf(x),
            a, b, points=pts or None, limit=200, epsabs=1e-15, epsrel=1e-13)
        return val

    def f(y):
        v = r(y)
        return -v * math.log(v) if v > 0.0 else 0.0

    upper = support + reach + 20.0 / abs(s)
    pts = sorted({eps, *(abs(k) + eps for k in kinks), *(abs(k) for k in kinks)} - {0.0})
    pts = [p for p in pts if 0.0 < p < upper]
    h_r, _ = integrate.quad(f, 0.0, upper, points=pts or None, limit=400,
                            epsabs=1e-13, epsrel=1e-12)
    return 2.0 * h_r - kernel_entropy(s, eps)


def ru_tabulated(grid, masses, s: float, eps: float, order: int = 24) -> float:
    """R_U for a piecewise-constant density, by Gauss-Legendre between kinks.

    r = g * p is a sum of exponential and linear pieces between the points
    (cell edge) +- eps, so a Gauss-Legendre rule on each piece, with the
    kernel tails cut into lengths of 2/|s|, is accurate to round-off.
    """
    grid = np.asarray(grid, dtype=float)
    masses = np.asarray(masses, dtype=float)
    masses = masses / masses.sum()
    h = float(grid[1] - grid[0])
    edges = np.concatenate([grid - 0.5 * h, [grid[-1] + 0.5 * h]])
    dens = masses / h
    tail = eps + 60.0 / abs(s)
    step = 2.0 / abs(s)
    left = np.arange(edges[0] - tail, edges[0] - eps, step)
    right = np.arange(edges[-1] + tail, edges[-1] + eps, -step)[::-1]
    breaks = np.unique(np.concatenate([edges - eps, edges + eps, left, right]))
    # pieces longer than 2/|s| are split so each stays a few e-folds long
    pieces = [breaks[:1]]
    for a, b in zip(breaks[:-1], breaks[1:]):
        k = max(1, int(math.ceil((b - a) / step)))
        pieces.append(np.linspace(a, b, k + 1)[1:])
    breaks = np.concatenate(pieces)
    x, w = np.polynomial.legendre.leggauss(order)
    mid = 0.5 * (breaks[1:] + breaks[:-1])
    half = 0.5 * (breaks[1:] - breaks[:-1])
    y = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    wy = (half[:, None] * w[None, :]).ravel()
    total = 0.0
    for start in range(0, y.size, 2048):
        yy = y[start:start + 2048]
        cdf = _kernel_cdf(yy[:, None] - edges[None, :], s, eps)
        r = (cdf[:, :-1] - cdf[:, 1:]) @ dens
        total += float(np.dot(wy[start:start + 2048], _neg_xlogx(r)))
    return total - kernel_entropy(s, eps)


def dense_blahut_gap(x_grid, p_mass, s: float, eps: float, q_mass) -> float:
    """Blahut's gap log max_j (K^T (p / K q))_j with K built densely.

    It bounds how far the objective at q is above the optimum at slope s, so
    a converged solve gives about 0.
    """
    x = np.asarray(x_grid, dtype=float)
    p = np.asarray(p_mass, dtype=float)
    q = np.asarray(q_mass, dtype=float)
    kmat = np.exp(s * np.maximum(np.abs(x[:, None] - x[None, :]) - eps, 0.0))
    z = kmat @ q
    w = kmat.T @ np.where(p > 0.0, p / np.maximum(z, 1e-300), 0.0)
    return math.log(float(w.max()))

