"""Convolution of a source with the tilted kernel, and its entropy.

r(y) = (g * p)(y) is the reproduction marginal behind the convolution upper
bound.  For every source it has one shape: the source's mass in the band
[y - eps, y + eps] plus two exponential tails, the kernel's e^{-|s| t}
reaching past either end of the band, all over C(s).  That is closed form
for the Laplacian and the Gaussian, and an exact cell sum for a tabulated
source (see _TabulatedGeometry).  The Laplacian and tabulated ones are sums
of positive terms, so they keep their relative accuracy where r is tiny.
The Gaussian's error functions come from one numpy erfcx, a fixed
polynomial (see _ERFCX_BLOCKS), so no part of the package loads scipy.

The entropy of r is a Gauss-Legendre panel sum per slope on [0, far], with
far = eps + tail span(1e-16) and [0, eps - span] one flat panel, plus
r0 (1 - log r0)/|s| past far, where r = r0 e^{-|s| t}.  A Gaussian r is analytic
on the scale sigma at every slope: a batch shares one layout, GAUSSIAN_NODES = 20
nodes on panels of at most 4 sigma, takes its band term once and only the two
tails per slope.  A Laplacian slope lays its own panels, LAPLACIAN_NODES = 40
nodes each; only past eps, where the kernel's e^{-|s| t} layer is, are they at
most 30/|s|.  Nodes go in chunks of whole slopes of at most NODE_BUDGET (erfcx
arguments for a Gaussian), so that no temporary array reaches glibc's 128 KiB
mmap threshold.
A tabulated batch shares one slope-free geometry: 8-node panels between the
breaks (cell edge) +- eps.  Each slope is summed by its own np.dot in panel
order, so its value does not depend on the batch or the chunk it falls in.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .quadrature import panel_edges, panel_nodes
from .sources import Gaussian, Laplacian, Source, Tabulated
from .tilted import EpsilonLoss, _check_slope, _check_slopes, _kernel_reach, _normalizer, _positive

__all__ = ["laplacian_conv_pdf", "conv_pdf", "conv_entropies"]

# Laplacian nodes or Gaussian erfcx arguments per chunk of a batched entropy:
# the largest temporary, erfcx's powers, is 5 x 2048 doubles = 80 KiB
NODE_BUDGET = 2048
# Gauss-Legendre nodes per Gaussian panel: for eps from 0 to 3 sigma and
# |s| sigma in [1e-4, 1e5] the 20-node R_U is within 1e-14 of the 64-node one
GAUSSIAN_NODES = 20
# Gauss-Legendre nodes per Laplacian panel: for alpha in [0.3, 7], eps from 0
# to 3/alpha and |s| in [1e-3, 1e5] h(g * p) is within 6e-16 relative of the
# 64-node one (32 nodes: 9e-14, 24: 1.4e-10)
LAPLACIAN_NODES = 40
# most nodes of one tabulated R_U layout (about 160 MB at its peak); a slope
# that needs more raises ValueError, which the CLI notes on that slope's row
TABULATED_NODE_LIMIT = 2**21


def _entropy_edges(s, loss: EpsilonLoss, span: float, alpha: float):
    """Laplacian panels on [0, eps + span] for -r log r, span the 1e-16 tail span.

    On [0, eps - span] the band holds all but 1e-16 of the mass, so r is flat:
    one panel.  On the rest of the band r is analytic on the scale 1/alpha at
    every slope: panels of at most 30/alpha.  Past eps, panels of at most 30/|s|
    out to the reach 45/|s| take the kernel's e^{-|s| t} layer, then 30/alpha
    again; none is under two ulps of eps, so a segment under an ulp (a reach
    45/|s|, or the source's scale) is one panel, not several of zero width.
    Gives panel_edges' (panels, row), one row per slope.
    """
    eps, ulps = loss.epsilon, 2.0 * np.spacing(loss.epsilon)
    far, flat, coarse = eps + span, max(eps - span, 0.0), max(30.0 / alpha, ulps)
    with np.errstate(over="ignore"):  # inf below |s| ~ 2.5e-307, capped by the minima
        reach, decay = _kernel_reach(s), 30.0 / np.abs(s)
    fine = np.maximum(np.minimum(decay, coarse), ulps)
    breaks = np.broadcast_arrays(0.0, flat, eps, np.minimum(eps + reach, far), far)
    lengths = np.broadcast_arrays(np.inf, coarse, fine, coarse)
    return panel_edges(np.stack(breaks, axis=-1), np.stack(lengths, axis=-1))


def _exp_divided_difference(u, s, alpha: float):
    """(e^{s u} - e^{-alpha u}) / (s + alpha) for u >= 0, finite at s = -alpha."""
    x = -np.abs(s + alpha) * u
    # exprel(x) = expm1(x) / x, equal to 1 at x = 0
    with np.errstate(invalid="ignore"):
        exprel = np.where(x == 0.0, 1.0, np.expm1(x) / x)
    return u * np.exp(np.maximum(s, -alpha) * u) * exprel


def laplacian_conv_pdf(y, s, alpha: float, loss: EpsilonLoss):
    """Closed form of (tilted kernel * Laplacian density)(y).

    Piecewise in |y|: a flat-band expression inside [-eps, eps] and a sum of
    exponentials outside; symmetric and continuous.  Both branches are sums
    of positive terms, so the density keeps its relative accuracy at any
    slope.  The outer branch writes its removable 0/0 at |s| = alpha as a
    divided difference of exponentials, so the density is finite and
    continuous in s there too.  The slope s is one value or an array
    broadcast against y.
    """
    alpha = _positive(alpha, "alpha")
    return _laplacian_conv_pdf(np.asarray(y, dtype=float), _check_slopes(s), alpha, loss.epsilon)


def _laplacian_conv_pdf(y: np.ndarray, s: np.ndarray, alpha: float, eps: float):
    shape = np.broadcast_shapes(y.shape, s.shape)
    ay = np.broadcast_to(np.abs(y), shape).reshape(-1)
    # one slope stays a scalar; an array of them is flattened along with y
    s = np.broadcast_to(s, shape).reshape(-1) if s.ndim else float(s)
    u = np.maximum(ay - eps, 0.0)
    ratio = alpha / (alpha - s)
    out = ((2.0 * alpha + s * math.expm1(-2.0 * alpha * eps)) / (alpha - s) * np.exp(-alpha * u)
           + 2.0 * alpha * ratio * _exp_divided_difference(u, s, alpha))
    # inside the band 2 + c1 (E1 + E2) with c1 = ratio - 1, taken on its lanes only
    band = ay < eps
    # alpha (|y| -+ eps) overflows only to -inf, at a huge alpha eps, where
    # exp and expm1 give the right limits 0 and -1
    with np.errstate(over="ignore"):
        e1, e2 = -alpha * (ay[band] + eps), alpha * (ay[band] - eps)
    out[band] = (np.broadcast_to(ratio, ay.shape)[band] * (np.exp(e1) + np.exp(e2))
                 - np.expm1(e1) - np.expm1(e2))
    out /= 2.0 * _normalizer(s, eps)
    return out.reshape(shape) if shape else float(out[0])


# log(erfcx(z) / t) with t = 2 / (2 + z) is smooth on t in (0, 1], with the
# limit log(1 / (2 sqrt(pi))) at t = 0 (z = inf).  These are the powers of
# u = 2t - 1, lowest first, five a row, of its Chebyshev series on [-1, 1] cut at
# degree 24 (fitted at 120 Chebyshev nodes in 50-digit arithmetic); the
# terms left out are below 3e-16, and erfcx below is within 8e-16 relative
# of a 40-digit reference on z in [0, 1e12].
_ERFCX_BLOCKS = np.reshape((
    -0.6717940840566922, 0.6726432239776583, 0.047343306841863525, -0.04689561023132892,
    -0.009872689364099222, 0.008824938561312326, 0.0017589335074028032, -0.002345812552995894,
    -0.00014624628742128406, 0.0006736791352568864, -9.373894767667295e-05,
    -0.00017430412986925938, 7.141810433422301e-05, 3.174693542327236e-05,
    -3.023784054007137e-05, 1.3989370477611051e-07, 8.662535397475538e-06,
    -2.963484230959699e-06, -1.409445991433531e-06, 1.283394915356199e-06,
    -4.146853754663641e-08, -2.895626567435524e-07, 7.745572408758512e-08,
    2.980513364515168e-08, -1.2776086554968677e-08,
), (5, 5))


def _erfcx(z):
    """Scaled complementary error function e^{z^2} erfc(z) for z >= 0 (elementwise)."""
    t = 2.0 / (2.0 + z)
    u = np.reshape(2.0 * t - 1.0, -1)
    # the polynomial is sum_j u^{5j} Q_j(u) with Q_j of degree 4: one matrix
    # product with the powers u^0..u^4 gives every Q_j, and Horner in u^5
    # adds them up, in a third of the array operations of Horner in u
    powers = np.empty((5, u.size))
    powers[0] = 1.0
    powers[1] = u
    np.multiply(u, u, out=powers[2])
    np.multiply(powers[2], u, out=powers[3])
    np.multiply(powers[2], powers[2], out=powers[4])
    blocks = _ERFCX_BLOCKS @ powers
    u5 = powers[4] * u
    poly = blocks[4]
    for q in blocks[3::-1]:
        poly *= u5
        poly += q
    return t * np.exp(np.reshape(poly, np.shape(t)))


def _erfc(x, scaled):
    """erfc(x) from scaled = erfcx(|x|): e^{-x^2} scaled for x >= 0, and 2 minus that below."""
    direct = scaled * np.exp(-x * x)
    return np.where(x < 0.0, 2.0 - direct, direct)


def _gaussian_band(ay, sigma: float, eps: float):
    """C(s) r's band term for N(0, sigma^2): P(|X - y| <= eps) at |y| = ay, slope-free."""
    # x -> -+inf at eps / sigma past 1e308, and x^2 -> inf past 1e154, where
    # erfc is 2 or 0
    with np.errstate(over="ignore"):
        x = np.stack([ay - eps, ay + eps]) / (math.sqrt(2.0) * sigma)
        erfc = _erfc(x, _erfcx(np.abs(x)))
    return 0.5 * (erfc[0] - erfc[1])


def _gaussian_tails(ay, b, sigma: float, eps: float):
    """C(s) r's two tail terms for N(0, sigma^2) at |y| = ay and |s| = b (broadcast).

    The kernel's right tail contributes, times C(s) and at offset w = y - eps,
    e^{s^2 sigma^2 / 2 + s w} P(Z > (|s| sigma^2 - w) / sigma), an exponentially
    modified Gaussian; the left tail is the same at w = -y - eps.  Where the
    normal argument is positive the product is rewritten with erfcx, which
    keeps it free of overflow: one erfcx argument per tail and point.
    """
    ay = np.broadcast_to(ay, np.broadcast_shapes(np.shape(ay), np.shape(b)))
    w = np.stack([ay - eps, -ay - eps])
    # z -> -+inf at eps / sigma past 1e308, where erfcx is 0 and the terms
    # below reach their limits; (|s| sigma)^2 overflows to inf past
    # |s| sigma ~ 1e154, in the tail branch that np.where drops
    with np.errstate(over="ignore"):
        z = (b * sigma * sigma - w) / sigma
        scaled = _erfcx(np.abs(z / math.sqrt(2.0)))
        # e^{s^2 sigma^2 / 2 + s w} erfc(z / sqrt 2) / 2 is emg for z >= 0; for
        # z < 0 it is the exponential minus emg, since erfc(-a) = 2 - erfc(a)
        emg = 0.5 * scaled * np.exp(-0.5 * (w / sigma) ** 2)
        tails = np.where(z >= 0.0, emg,
                         np.exp(np.minimum(0.5 * (b * sigma) ** 2 - b * w, 0.0)) - emg)
    return tails[0] + tails[1]


def _tail_sums(dens: np.ndarray, rate) -> np.ndarray:
    """L[..., k] = sum over cells c < k of dens[..., c] e^{-rate (k - 1 - c)}, for k = 0..cells.

    In blocks of B ~ sqrt(cells) cells: one B x B matrix of e^{-rate (i - c)}
    gives the sums within each block, and one carry per block, the sum at the
    end of the block before, comes from an (blocks x blocks) matrix of
    e^{-rate B (j - 1 - l)}.  Every factor is an exponential taken directly,
    not a power of a rounded e^{-rate}, whose error grows with the power.
    An array of rates broadcasts against the leading axes of dens: one per slope.
    """
    rate = np.asarray(rate, dtype=float)[..., None, None]
    n = dens.shape[-1]
    size = math.isqrt(n - 1) + 1
    blocks = -(-n // size)
    padded = np.pad(dens, [(0, 0)] * (dens.ndim - 1) + [(0, blocks * size - n)])
    i, j = np.arange(size), np.arange(blocks)
    within = np.tril(np.exp(-rate * np.abs(i[:, None] - i)))
    partial = padded.reshape(dens.shape[:-1] + (blocks, size)) @ np.swapaxes(within, -1, -2)
    across = np.tril(np.exp(-(rate * size) * np.abs(j[:, None] - 1 - j)), -1)
    sums = partial + (across @ partial[..., -1:]) * np.exp(-rate * (i + 1))
    sums = sums.reshape(sums.shape[:-2] + (blocks * size,))[..., :n]
    return np.concatenate([np.zeros(sums.shape[:-1] + (1,)), sums], axis=-1)


def _block_sums(masses: np.ndarray, levels: int) -> list[np.ndarray]:
    """blocks[n][i] = masses[i] + ... + masses[i + 2^n - 1], for n < levels."""
    blocks = [masses]
    for n in range(levels - 1):
        blocks.append(blocks[-1][:-(1 << n)] + blocks[-1][1 << n:])
    return blocks


class _TabulatedGeometry:
    """The slope-free part of a tabulated source's convolution r = [M + L + R] / C(s).

    M is the mass in the band [y - eps, y + eps].  L, the integral over x < y - eps
    of p(x) e^{-|s| (y - eps - x)}, is carry_k e^{-|s| d} - dens_k expm1(-|s| d) / |s|
    for y - eps in cell k at offset d, with carry_k = L at edge k; R is L of the
    mirrored source.  All are positive sums: r keeps its relative accuracy where tiny.
    Between breaks (cell edge) -+ eps the cells at y -+ eps and M's whole cells are
    fixed; past the outer breaks (segments 0 and -1) r = r0 e^{-|s| t}.
    """

    def __init__(self, source: Tabulated, loss: EpsilonLoss):
        self.h, self.eps = h, eps = source.spacing, loss.epsilon
        cell_edges, dens = source.edges, source.masses / h
        # padded tables, so that indices 0..cells + 1 need no clipping: edges[n] is
        # edge n - 1 (clamped), pad[n] the density of cell n - 1 (0 off the ends)
        edges = np.concatenate([cell_edges[:1], cell_edges, cell_edges[-1:]])
        self.pad = pad = np.concatenate([[0.0], dens, [0.0]])
        self.breaks = breaks = np.unique(np.concatenate([cell_edges - eps, cell_edges + eps]))
        self.pairs = np.stack([breaks[:-1], breaks[1:]], axis=-1)
        self.longest = np.diff(breaks).max()
        # cell p - 1 holds y - eps in [e, e'), cell q - 1 holds y + eps in (e, e'] (at
        # eps = 0 a segment between the same two edges has q = p - 1: no band)
        mid, last = 0.5 * (breaks[:-1] + breaks[1:]), cell_edges.size
        self.p = p = np.r_[0, np.searchsorted(cell_edges, mid - eps, side="right"), last]
        self.q = q = np.r_[0, np.searchsorted(cell_edges, mid + eps, side="left"), last]
        # M's whole cells p .. q - 2: per set bit n of their count, 2^n cells from p on
        width, whole, first = np.maximum(q - p - 1, 0), np.zeros(p.size), p.copy()
        blocks = _block_sums(dens * np.diff(cell_edges), int(width.max()).bit_length())
        for n, block in enumerate(blocks):
            bit = width & (1 << n)
            whole += np.where(bit, block.take(first, mode="clip"), 0.0)
            first += bit
        # per segment: M's end cells (cell q - 1 where it is not cell p - 1) and
        # whole cells, then each tail's edge and density
        self.table = np.stack([pad[p], edges[p + 1], np.where(q > p, pad[q], 0.0), edges[q], whole,
                               edges[p], pad[p], edges[q + 1], pad[q]])

    def carries(self, b, c):
        """Per slope (|s| in b, C(s) in c): both carries at each padded edge, r's outer entropy."""
        factor = (-np.expm1(-b * self.h) / b)[:, None]
        sums = _tail_sums(np.stack([self.pad[:-1], self.pad[:0:-1]]), (b * self.h)[:, None])
        left, right = sums[:, 0] * factor, sums[:, 1, ::-1] * factor
        r0 = np.stack([right[:, 0], left[:, -1]]) / c
        return left, right, _exp_tail_entropy(r0, b).sum(axis=0)

    def terms(self, y, seg):
        """M at points y of segments seg, then per tail its offset, cell and density."""
        dp, top, dq, low, whole, *ends = self.table[:, seg]
        band = dp * (np.minimum(top - y, self.eps) + self.eps) + dq * (y - low + self.eps) + whole
        return (band, (np.maximum(y - ends[0] - self.eps, 0.0), self.p[seg], ends[1]),
                (np.maximum(ends[2] - y - self.eps, 0.0), self.q[seg], ends[3]))

    def layout(self, b: float):
        """Weights and terms of 8 nodes per panel no longer than 2/|s| (|s| = b), as
        (8, panels); every b whose cap splits no segment shares one layout."""
        cap = 2.0 / b
        nodes = 8.0 * np.maximum(np.ceil(np.diff(self.breaks) / cap), 1.0).sum()
        if nodes > TABULATED_NODE_LIMIT:
            raise ValueError(f"tabulated R_U at |s| = {b:.2g} needs {nodes:.2g} nodes "
                             f"(limit {TABULATED_NODE_LIMIT})")
        return self._nodes(cap) if cap < self.longest else self.shared

    def _nodes(self, cap: float):
        panels, rows = panel_edges(self.pairs, cap)
        y, w = panel_nodes(panels, 8)
        return w, self.terms(np.ascontiguousarray(y.reshape(-1, 8).T), rows + 1)

    @functools.cached_property
    def shared(self):
        return self._nodes(np.inf)  # a panel per segment


def _tabulated_density(terms, b: float, left, right, c: float):
    """r at one slope, from the terms of some points and that slope's carries."""
    out, *tails = terms
    for (d, cell, dens), carry in zip(tails, (left, right)):
        x = np.multiply(d, -b)
        out = out + np.exp(x) * carry[cell]
        out -= dens * (np.expm1(x, out=x) / b)
    return out / c


def _tabulated_entropies(source: Tabulated, s: np.ndarray, loss: EpsilonLoss) -> np.ndarray:
    # r is linear plus exponentials of rate |s| on each panel, and no panel is
    # longer than 2/|s|: 8 nodes come within about 1e-10, not to round-off
    geo, b, c = _TabulatedGeometry(source, loss), -s, _normalizer(s, loss.epsilon)
    left, right, out = geo.carries(b, c)
    for k in range(s.size):
        w, terms = geo.layout(b[k])
        r = _tabulated_density(terms, b[k], left[k], right[k], c[k])
        out[k] += float(np.dot(w, _neg_r_log_r(r).T.reshape(-1)))  # in panel order
        del w, terms, r  # a split layout goes before the next slope's is built
    return out


def _unsupported(source: Source) -> TypeError:
    return TypeError(f"no convolution density for source type {type(source).__name__}")


def conv_pdf(source: Source, s, loss: EpsilonLoss, y) -> np.ndarray:
    """(tilted kernel * source density)(y), vectorized over y.

    For Laplacian and Gaussian sources s is one slope or an array of slopes
    broadcast against y; a tabulated source takes one slope.  Any other
    source type raises TypeError.
    """
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if isinstance(source, Laplacian):
        return _laplacian_conv_pdf(y, _check_slopes(s), source.alpha, loss.epsilon)
    if isinstance(source, Gaussian):
        s, ay, eps = _check_slopes(s), np.abs(y), loss.epsilon
        band = _gaussian_band(ay, source.sigma, eps)
        return (band + _gaussian_tails(ay, np.abs(s), source.sigma, eps)) / _normalizer(s, eps)
    if isinstance(source, Tabulated):
        b, geometry = -_check_slope(s), _TabulatedGeometry(source, loss)
        c = _normalizer(b, loss.epsilon)
        left, right, _ = geometry.carries(np.array([b]), c)
        terms = geometry.terms(y, np.searchsorted(geometry.breaks, y, side="right"))
        return _tabulated_density(terms, b, left[0], right[0], c)
    raise _unsupported(source)


def _neg_r_log_r(r):
    return -r * np.log(np.where(r > 0.0, r, 1.0))  # 0 where r <= 0; NaN stays NaN


def _exp_tail_entropy(r0, b):
    """-r log r over t >= 0 for r = r0 e^{-b t}: r0 (1 - log r0) / b, 0 where r0 <= 0;
    one product, so that an infinite r0 gives -inf, not inf - inf."""
    return r0 * (1.0 - np.log(np.where(r0 > 0.0, r0, 1.0))) / b


def conv_entropies(source: Source, slopes, loss: EpsilonLoss) -> np.ndarray:
    """Differential entropy of (tilted kernel * source) at each slope, by panel quadrature.

    Batches are laid out and chunked as the module says (a Laplacian slope over
    NODE_BUDGET nodes is a chunk of its own).  Each slope's sum is its own np.dot
    in panel order, so its value is the same in any batch.  Other source types
    raise TypeError.
    """
    return _conv_entropies(source, _check_slopes(slopes).reshape(-1), loss)


def _conv_entropies(source: Source, s: np.ndarray, loss: EpsilonLoss) -> np.ndarray:
    if isinstance(source, Tabulated):
        return _tabulated_entropies(source, s, loss)
    if not isinstance(source, (Laplacian, Gaussian)):
        raise _unsupported(source)
    # r is even, so integrate over the half line and double.  Past far = eps +
    # span r is the source's mass spread by the kernel's tail, one exponential
    # of rate |s|, whose entropy is closed form
    eps, span, out = loss.epsilon, source.tail_span(1e-16), np.empty(s.size)
    if isinstance(source, Gaussian):
        # r is analytic on the scale sigma at every slope: one slope-free layout,
        # [0, eps - span] as one panel (r is flat there), then at most 4 sigma
        sigma, b, c = source.sigma, -s, _normalizer(s, eps)
        panels, _ = panel_edges([0.0, max(eps - span, 0.0), eps + span],
                                [np.inf, max(4.0 * sigma, 2.0 * np.spacing(eps))])
        yn, wq = panel_nodes(panels, GAUSSIAN_NODES)
        yn = np.append(yn, eps + span)  # the last point gives the outer tail's r0
        band, step = _gaussian_band(yn, sigma, eps), max(NODE_BUDGET // (2 * yn.size), 1)
        for lo in range(0, s.size, step):  # two erfcx arguments per slope and point
            k = slice(lo, lo + step)
            r = (band + _gaussian_tails(yn, b[k, None], sigma, eps)) / c[k, None]
            out[k] = [2.0 * float(np.dot(wq, f)) for f in _neg_r_log_r(r[:, :-1])]
            out[k] += 2.0 * _exp_tail_entropy(r[:, -1], b[k])
        return out
    n, (panels, chain) = LAPLACIAN_NODES, _entropy_edges(s, loss, span, source.alpha)
    starts = np.searchsorted(chain, np.arange(s.size + 1)).tolist()
    first = 0
    while first < s.size:
        last = first + 1
        while last < s.size and (starts[last + 1] - starts[first]) * n <= NODE_BUDGET:
            last += 1
        lo, hi = starts[first], starts[last]
        yn, wq = panel_nodes(panels[:, lo:hi], n)
        f = _neg_r_log_r(_laplacian_conv_pdf(yn, np.repeat(s[chain[lo:hi]], n), source.alpha, eps))
        for k in range(first, last):
            a, b = (starts[k] - lo) * n, (starts[k + 1] - lo) * n
            out[k] = 2.0 * float(np.dot(wq[a:b], f[a:b]))
        first = last
    r0 = _laplacian_conv_pdf(np.array([eps + span]), s, source.alpha, eps)
    return out + 2.0 * _exp_tail_entropy(r0, -s)
