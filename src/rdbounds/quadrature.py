"""Composite Gauss-Legendre quadrature on explicit panel edges.

Panels are placed by the caller so that integrand kinks land on edges and
no panel is longer than the fastest decay/oscillation scale; 64-node
Gauss-Legendre is then spectrally accurate on each panel.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


@lru_cache(maxsize=8)
def gauss_legendre(n: int):
    """Cached nodes/weights on [-1, 1]."""
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


def panel_edges(breaks, max_len) -> np.ndarray:
    """Edge array passing through every breakpoint, panels no longer than max_len.

    max_len is one length, or one length per breakpoint pair.  Each pair
    (a, b) is cut into k = ceil((b - a) / max_len) equal panels whose edges
    are the points np.linspace(a, b, k + 1) would give, bit for bit.
    Non-increasing breakpoint pairs are skipped, so degenerate segments
    (e.g. an insensitivity band of width zero) collapse silently.
    """
    breaks = np.asarray(breaks, dtype=float)
    a, b = breaks[:-1], breaks[1:]
    keep = b > a
    max_len = np.broadcast_to(np.asarray(max_len, dtype=float), a.shape)[keep]
    a, b = a[keep], b[keep]
    counts = np.maximum(np.ceil((b - a) / max_len), 1.0).astype(np.int64)
    ends = np.cumsum(counts)
    pair = np.repeat(np.arange(a.size), counts)
    j = np.arange(1, int(counts.sum()) + 1) - np.repeat(ends - counts, counts)
    # np.linspace's arithmetic: j * ((b - a) / k) + a, with the last point set to b
    points = j * ((b - a) / counts)[pair] + a[pair]
    points[ends - 1] = b
    return np.concatenate([breaks[:1], points])


def panel_nodes(edges, n: int = 64):
    """Flattened Gauss-Legendre nodes and weights over all panels."""
    edges = np.asarray(edges, dtype=float)
    x, w = gauss_legendre(n)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights


def integrate(f, edges, n: int = 64) -> float:
    nodes, weights = panel_nodes(edges, n)
    return float(np.dot(weights, f(nodes)))
