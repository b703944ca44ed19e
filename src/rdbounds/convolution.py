"""Convolution of a source with the tilted kernel, and its entropy.

r(y) = (g * p)(y) is the reproduction marginal behind the convolution upper
bound.  It is closed form for the Laplacian and the Gaussian, and for a
tabulated source an exact cell sum (see _tabulated_conv_pdf) whose terms are
all positive, so it keeps its relative accuracy where it is tiny.  The
entropy of r is one Gauss-Legendre panel sum, with a break at every cell
edge +- eps for tabulated sources.  Only the Gaussian imports scipy.special.
"""

from __future__ import annotations

import math
from itertools import accumulate

import numpy as np

from .quadrature import panel_edges, panel_nodes
from .sources import Gaussian, Laplacian, Source, Tabulated
from .tilted import EpsilonLoss, _check_slope, normalizer, tilted_cdf

__all__ = ["laplacian_conv_pdf", "conv_pdf", "conv_entropy"]


def _kernel_reach(s: float) -> float:
    # beyond eps + 45/|s| the kernel is below e^-45 of its peak
    return 45.0 / abs(s)


def _entropy_edges(s: float, loss: EpsilonLoss, upper: float, smooth_scale: float) -> np.ndarray:
    """Panel edges on [0, upper] for -r log r: source-scale panels, finer near eps."""
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


def _window_sums(masses: np.ndarray, width: int) -> np.ndarray:
    """W[i] = masses[i] + ... + masses[i + width - 1], summed in blocks of 2^n cells."""
    out, block, size, start = np.zeros(masses.size - width + 1), masses, 1, 0
    while width:
        if width & 1:
            out, start = out + block[start:start + out.size], start + size
        block, size, width = block[:-size] + block[size:], 2 * size, width >> 1
    return out


def _tabulated_conv_pdf(source: Tabulated, s, loss, y):
    """Exact cellwise convolution in O(len(y) + cells log cells), elementwise in y.

    Cells wholly at or beyond y -+ eps see one exponential tail of the kernel
    and add up to two running geometric sums, cells wholly inside the band add
    m_c / C(s) each, and only the cells holding y -+ eps take CDF differences.
    """
    h, cell_edges = source.spacing, source.edges
    dens = source.masses / h
    masses = dens * np.diff(cell_edges)  # each cell's mass between its own edges
    cells, eps, b, c = dens.size, loss.epsilon, abs(s), normalizer(s, loss)
    decay = math.exp(-b * h)
    # padded tables, so that indices 0..cells + 1 need no clipping: edges[n] is
    # edge n - 1 (clamped), pad[n] the density of cell n - 1 (0 off the ends),
    # left[n] the tail sum over the cells before cell n - 1, right[n] from n on
    edges = np.concatenate([cell_edges[:1], cell_edges, cell_edges[-1:]])
    pad = np.concatenate([[0.0], dens, [0.0]])
    left, right = _tail_sums(pad[:-1], decay), _tail_sums(pad[:0:-1], decay)[::-1]
    # cell lo - 1 holds y - eps in [e, e') and cell hi - 1 holds y + eps in
    # (e, e']; cells [0, lo - 1) end at or left of y - eps and cells [hi, cells)
    # start at or right of y + eps, so at eps = 0 an edge node counts once
    lo = np.searchsorted(cell_edges, y - eps, side="right")
    hi = np.searchsorted(cell_edges, y + eps, side="left")
    out = -math.expm1(-b * h) / (b * c) * (
        np.exp(-b * np.maximum(y - eps - edges[lo], 0.0)) * left[lo]
        + np.exp(-b * np.maximum(edges[1:][hi] - y - eps, 0.0)) * right[hi])
    # one cell holding both ends of the band is counted once
    for n, keep in ((lo, lo <= hi), (hi, hi > lo)):
        out += (tilted_cdf(y - edges[n], s, loss)
                - tilted_cdf(y - edges[1:][n], s, loss)) * np.where(keep, pad[n], 0.0)
    # the cells [lo, hi - 1) between them: a prefix or a suffix where the band
    # overhangs an end of the source, else a window of a width 2 eps / h allows
    prefix = np.cumsum(np.append([0.0, 0.0], masses))
    suffix = np.cumsum(np.append(masses, [0.0, 0.0])[::-1])[::-1]
    inside = np.where(lo == 0, prefix[hi], np.where(hi > cells, suffix[lo], 0.0))
    width = hi - lo - 1
    width[(lo == 0) | (hi > cells)] = 0
    for w in np.unique(width[width > 0]):
        inside[width == w] = _window_sums(masses, int(w))[lo[width == w]]
    return out + inside / c


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
