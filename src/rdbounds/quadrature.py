"""Composite Gauss-Legendre quadrature on explicit panel edges.

Panels are placed by the caller so that integrand kinks land on edges and
no panel is longer than the fastest decay/oscillation scale; Gauss-Legendre
is then spectrally accurate on each panel.  ``panel_edges`` lays out the
panels of one chain of breakpoints per row, all rows in a single call, and
``panel_nodes`` puts the nodes on them.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


def _legendre_pair(n: int, x):
    """P_n(x) and P_{n-1}(x) by the three-term recurrence."""
    prev, cur = np.ones_like(x), x
    for j in range(1, n):
        prev, cur = cur, ((2 * j + 1) * x * cur - j * prev) / (j + 1)
    return cur, prev


@lru_cache(maxsize=8)
def gauss_legendre(n: int):
    """Cached nodes/weights on [-1, 1], ascending.

    Newton's method on P_n from the asymptotic guesses cos(pi (k - 1/4) / (n + 1/2)),
    then w = 2 (1 - x^2) / (n P_{n-1}(x))^2, all in long double: where that is
    the 80-bit x87 format the weights are within an ulp of exact (numpy's
    leggauss(64) is off by up to 1.3e-12 relative).  The guesses are within
    0.13 / n^2, and five steps reach long-double round-off for every n from
    2 to 1000; the sixth is to spare.
    """
    k = np.arange(n, 0, -1)
    x = np.cos(np.pi * (k - 0.25) / (n + 0.5)).astype(np.longdouble)
    for _ in range(6):
        p, q = _legendre_pair(n, x)
        x -= p * (1 - x) * (1 + x) / (n * (q - x * p))
    _, q = _legendre_pair(n, x)
    w = 2 * (1 - x) * (1 + x) / (n * q) ** 2
    x, w = x.astype(float), w.astype(float)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def panel_edges(breaks, max_len):
    """Panels through every breakpoint of each chain, none longer than max_len.

    ``breaks`` is one chain per row (a 1-D chain is one row), and max_len
    broadcasts against its pairs.  Each increasing pair (a, b) of consecutive
    breakpoints is cut into k = ceil((b - a) / max_len) equal panels whose edges
    are the points np.linspace(a, b, k + 1) would give, bit for bit.
    Non-increasing pairs are skipped, so degenerate segments (e.g. an
    insensitivity band of width zero) collapse silently.  A NaN or infinite
    break raises ValueError.

    The result is ``(panels, row)``: a (2, P) array of each panel's lower and
    upper edge, row by row, and the row of each panel.
    """
    breaks = np.atleast_2d(np.asarray(breaks, dtype=float))
    # a NaN would fail the b > a test below and drop its pairs unnoticed
    if not np.isfinite(breaks).all():
        raise ValueError("panel breaks must be finite")
    a, b = breaks[:, :-1], breaks[:, 1:]
    keep = b > a
    max_len = np.broadcast_to(np.asarray(max_len, dtype=float), a.shape)[keep]
    rows = np.nonzero(keep)[0]
    a, b = a[keep], b[keep]
    counts = np.maximum(np.ceil((b - a) / max_len), 1.0).astype(np.int64)
    ends = np.cumsum(counts)
    pair = np.repeat(np.arange(a.size), counts)
    j = np.arange(1, int(counts.sum()) + 1) - np.repeat(ends - counts, counts)
    # np.linspace's arithmetic: j * ((b - a) / k) + a, with the last point set to b
    step, start = ((b - a) / counts)[pair], a[pair]
    points = j * step + start
    points[ends - 1] = b
    # a panel's lower edge is the point before it, (j - 1) * step + a, which
    # is exactly a for the first panel of each pair
    return np.stack([(j - 1) * step + start, points]), rows[pair]


def panel_nodes(panels, n: int = 64):
    """Flattened Gauss-Legendre nodes and weights over all panels.

    ``panels`` is a (2, P) array of panel lower and upper edges, as
    ``panel_edges`` gives.
    """
    lo, hi = np.asarray(panels, dtype=float)
    x, w = gauss_legendre(n)
    # halves first: rounds as 0.5 (hi + lo) does for normal edges, and stays
    # finite for edges past half the float range, where hi + lo overflows
    mid = 0.5 * hi + 0.5 * lo
    half = 0.5 * (hi - lo)
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights
