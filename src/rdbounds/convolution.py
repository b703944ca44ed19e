"""Convolution of a source with the tilted kernel, and its entropy.

The blurred density r(y) = (g * p)(y) is the reproduction marginal of the
test channel behind the convolution upper bound.  Each source family has its
own exact density: the Laplacian and the Gaussian in closed form, tabulated
sources as a sum over cells.  For a tabulated source the cells wholly beyond
y -+ eps see one exponential tail of the kernel and add up to two geometric
sums; only the cells within eps of y take kernel-CDF differences, so r costs
O(points + cells) and keeps its relative accuracy where it is tiny.  The
entropy of r is one Gauss-Legendre panel sum for every family; each family
supplies only its panel edges: the half line for the two even smooth
densities, and breaks at every cell edge +- eps for tabulated sources, where
r is linear plus exponentials between breaks.  Only the Gaussian density
imports scipy.special, inside its own functions.
"""

from __future__ import annotations

import math
from itertools import accumulate

import numpy as np

from .quadrature import panel_edges, panel_nodes
from .sources import Gaussian, Laplacian, Source, Tabulated
from .tilted import EpsilonLoss, _check_slope, normalizer, tilted_cdf

__all__ = ["laplacian_conv_pdf", "conv_pdf", "conv_entropy"]

_CHUNK = 128


def _kernel_reach(s: float) -> float:
    # beyond eps + 45/|s| the kernel is below e^-45 of its peak
    return 45.0 / abs(s)


def _entropy_edges(s: float, loss: EpsilonLoss, upper: float, smooth_scale: float) -> np.ndarray:
    """Panel edges on [0, upper] for integrating -r log r.

    r is smooth at the source scale except near eps, where the kernel skirt
    introduces structure at scale 1/|s|.
    """
    eps = loss.epsilon
    fine_half = min(_kernel_reach(s), eps) if eps > 0.0 else 0.0
    fine_hi = min(eps + _kernel_reach(s), upper)
    coarse = 2.0 * smooth_scale
    fine = min(30.0 / abs(s), coarse)
    breaks = [0.0, max(eps - fine_half, 0.0), min(eps, upper), fine_hi, upper]
    return panel_edges(breaks, [coarse, fine, fine, coarse])


def _exp_divided_difference(u, s: float, alpha: float):
    """(e^{s u} - e^{-alpha u}) / (s + alpha) for u >= 0, finite at s = -alpha."""
    x = -abs(s + alpha) * u
    # exprel(x) = expm1(x) / x, equal to 1 at x = 0
    with np.errstate(invalid="ignore"):
        exprel = np.where(x == 0.0, 1.0, np.expm1(x) / x)
    return u * np.exp(max(s, -alpha) * u) * exprel


def laplacian_conv_pdf(y, s: float, alpha: float, loss: EpsilonLoss):
    """Closed form of (tilted kernel * Laplacian density)(y).

    Piecewise in |y|: a flat-band expression inside [-eps, eps] and a sum of
    exponentials outside; symmetric and continuous.  The outer branch writes
    its removable 0/0 at |s| = alpha as a divided difference of exponentials,
    so the density is finite and continuous in s there too.
    """
    s = _check_slope(s)
    alpha = float(alpha)
    eps = loss.epsilon
    c1 = s / (alpha - s)
    ay = np.abs(np.asarray(y, dtype=float))
    u = np.maximum(ay - eps, 0.0)
    far = c1 * np.exp(-alpha * (ay + eps))
    # exponent clipped at 0: out-of-branch lanes of np.where stay finite
    inner = far + c1 * np.exp(np.minimum(alpha * (ay - eps), 0.0)) + 2.0
    outer = (
        far
        + (2.0 * alpha - s) / (alpha - s) * np.exp(-alpha * u)
        + 2.0 * alpha**2 / (alpha - s) * _exp_divided_difference(u, s, alpha)
    )
    out = np.where(ay < eps, inner, outer) / (2.0 * normalizer(s, loss))
    return out if out.ndim else float(out)


def _gaussian_tail(w, s: float, sigma: float):
    """C(s) times the contribution of the kernel's right tail at offset w = y - eps.

    Equals e^{s^2 sigma^2 / 2 + s w} P(Z > (|s| sigma^2 - w) / sigma), an
    exponentially modified Gaussian.  Where the normal argument is positive the
    product is rewritten with erfcx, which keeps it free of overflow.
    """
    from scipy import special

    b = abs(s)
    z = (b * sigma * sigma - w) / sigma
    scaled = 0.5 * special.erfcx(np.maximum(z, 0.0) / math.sqrt(2.0)) * np.exp(
        -0.5 * (w / sigma) ** 2)
    direct = np.exp(np.minimum(0.5 * (b * sigma) ** 2 - b * w, 0.0)) * 0.5 * special.erfc(
        np.minimum(z, 0.0) / math.sqrt(2.0))
    return np.where(z >= 0.0, scaled, direct)


def _gaussian_conv_pdf(y, s: float, sigma: float, loss: EpsilonLoss):
    """Closed form of (tilted kernel * N(0, sigma^2))(y): band plus two tails."""
    from scipy import special

    eps = loss.epsilon
    ay = np.abs(y)
    root2 = math.sqrt(2.0) * sigma
    band = 0.5 * (special.erfc((ay - eps) / root2) - special.erfc((ay + eps) / root2))
    tails = _gaussian_tail(ay - eps, s, sigma) + _gaussian_tail(-ay - eps, s, sigma)
    return (band + tails) / normalizer(s, loss)


def _tail_sums(dens: np.ndarray, decay: float) -> np.ndarray:
    """L[k] = sum over cells c < k of dens[c] decay^(k - 1 - c), for k = 0..cells."""
    return np.fromiter(accumulate(dens.tolist(), lambda acc, d: acc * decay + d, initial=0.0),
                       float, dens.size + 1)


def _tabulated_conv_pdf(source: Tabulated, s, loss, y):
    """Exact cellwise convolution in O(len(y) + cells).

    A cell wholly at or beyond y -+ eps sees one exponential tail of the
    kernel, so each side is a geometric sum of positive terms, kept as a
    running sum over the cells and weighted by the decay from the nearest
    edge.  Only the cells reaching into (y - eps, y + eps) take kernel-CDF
    differences.  Nodes are sorted first, so that each block of rows reads
    one contiguous range of cells and the result does not depend on their
    order.
    """
    h = source.spacing
    cell_edges = source.edges
    dens = source.masses / h
    cells, eps, b = dens.size, loss.epsilon, abs(s)
    decay = math.exp(-b * h)
    left = _tail_sums(dens, decay)
    right = _tail_sums(dens[::-1], decay)[::-1]
    order = np.argsort(y, axis=None, kind="stable")
    ys = y.ravel()[order]
    # cells [0, k) end at or left of y - eps, cells [j, cells) start at or
    # right of y + eps; a node on an edge is counted once when eps = 0
    k = np.clip(np.searchsorted(cell_edges, ys - eps, side="right") - 1, 0, cells)
    j = np.minimum(np.searchsorted(cell_edges, ys + eps, side="left"), cells)
    scale = -math.expm1(-b * h) / (b * normalizer(s, loss))
    out = scale * (np.exp(-b * np.maximum(ys - eps - cell_edges[k], 0.0)) * left[k]
                   + np.exp(-b * np.maximum(cell_edges[j] - ys - eps, 0.0)) * right[j])
    for start in range(0, ys.size, _CHUNK):
        block = slice(start, start + _CHUNK)
        lo, hi = int(k[block][0]), int(j[block][-1])
        if hi <= lo:
            continue
        cdf = tilted_cdf(ys[block, None] - cell_edges[None, lo:hi + 1], s, loss)
        near = np.arange(lo, hi)
        near = (near >= k[block, None]) & (near < j[block, None])
        out[block] += np.where(near, cdf[:, :-1] - cdf[:, 1:], 0.0) @ dens[lo:hi]
    result = np.empty_like(out)
    result[order] = out
    return result.reshape(y.shape)


def _unsupported(source: Source) -> TypeError:
    return TypeError(f"no convolution density for source type {type(source).__name__}")


def conv_pdf(source: Source, s: float, loss: EpsilonLoss, y) -> np.ndarray:
    """(tilted kernel * source density)(y), vectorized over y.

    Supports Laplacian, Gaussian and Tabulated sources; any other source type
    raises TypeError.
    """
    s = _check_slope(s)
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if isinstance(source, Laplacian):
        return laplacian_conv_pdf(y, s, source.alpha, loss)
    if isinstance(source, Gaussian):
        return _gaussian_conv_pdf(y, s, source.sigma, loss)
    if isinstance(source, Tabulated):
        return _tabulated_conv_pdf(source, s, loss, y)
    raise _unsupported(source)


def _laplacian_upper(s: float, alpha: float, loss: EpsilonLoss) -> float:
    """Half-line limit past which r is below ~e^-40 of its scale."""
    rate = min(alpha, abs(s))
    # the divided difference is at most min(u, 1/|s + alpha|) e^{-rate u}; u
    # is capped at the 40/rate decay length the limit has to cover
    coef = (2.0 * alpha - s) / (alpha - s) + 2.0 * alpha**2 / (
        (alpha - s) * max(abs(s + alpha), rate / 40.0))
    c = normalizer(s, loss)
    return loss.epsilon + (40.0 + math.log(coef) + max(0.0, -math.log(2.0 * c))) / rate


def _neg_r_log_r(r):
    r = np.maximum(r, 0.0)
    return -np.where(r > 0.0, r * np.log(np.where(r > 0.0, r, 1.0)), 0.0)


def _tabulated_entropy_edges(source: Tabulated, s: float, loss: EpsilonLoss):
    """Panel edges on the real line with a break at every cell edge +- eps."""
    cell_edges = source.edges
    eps = loss.epsilon
    reach = eps + _kernel_reach(s)
    breaks = np.concatenate([[cell_edges[0] - reach], cell_edges - eps, cell_edges + eps,
                             [cell_edges[-1] + reach]])
    return panel_edges(np.unique(breaks), 2.0 / abs(s))


def conv_entropy(source: Source, s: float, loss: EpsilonLoss) -> float:
    """Differential entropy of (tilted kernel * source), by panel quadrature.

    Source types other than Laplacian, Gaussian and Tabulated raise TypeError.
    """
    s = _check_slope(s)
    if isinstance(source, Tabulated):
        # r is linear plus exponentials of rate |s| on each panel, and no panel
        # is longer than 2/|s|, so 8 nodes reach round-off
        edges, n, factor = _tabulated_entropy_edges(source, s, loss), 8, 1.0
    else:
        if isinstance(source, Laplacian):
            upper = _laplacian_upper(s, source.alpha, loss)
            smooth = 15.0 / source.alpha
        elif isinstance(source, Gaussian):
            upper = source.tail_span(1e-16) + loss.epsilon + _kernel_reach(s)
            smooth = source.sigma
        else:
            raise _unsupported(source)
        # r is even, so integrate over the half line and double
        edges, n, factor = _entropy_edges(s, loss, upper, smooth), 64, 2.0
    yn, wq = panel_nodes(edges, n)
    return factor * float(np.dot(wq, _neg_r_log_r(conv_pdf(source, s, loss, yn))))
