import math

import numpy as np
import pytest

from rdbounds import EpsilonLoss
from rdbounds.convolution import _entropy_edges, _kernel_reach
from rdbounds.quadrature import gauss_legendre, panel_edges, panel_nodes


def reference_panels(breaks, max_len):
    """One np.linspace per increasing breakpoint pair, as a plain loop: the
    (2, P) lower and upper edges of its panels."""
    breaks = np.asarray(breaks, dtype=float)
    max_len = np.broadcast_to(np.asarray(max_len, dtype=float), breaks[1:].shape)
    lo, hi = [], []
    for a, b, length in zip(breaks[:-1], breaks[1:], max_len):
        if b <= a:
            continue
        k = max(1, int(np.ceil((b - a) / length)))
        points = np.linspace(a, b, k + 1).tolist()
        lo.extend(points[:-1])
        hi.extend(points[1:])
    return np.array([lo, hi])


def random_breaks(rng):
    n = int(rng.integers(1, 12))
    scale = 10.0 ** rng.uniform(-3, 3)
    breaks = rng.uniform(-scale, scale, n)
    kind = rng.integers(4)
    if kind == 0:
        breaks = np.sort(breaks)
    elif kind == 1 and n > 1:  # repeated breaks
        breaks = np.sort(np.concatenate([breaks, breaks[: n // 2]]))
    elif kind == 2:
        breaks = np.sort(breaks)[::-1]
    return breaks, scale


class TestPanelEdges:
    def test_matches_linspace_loop_bit_for_bit(self):
        rng = np.random.default_rng(11)
        for _ in range(3000):
            breaks, scale = random_breaks(rng)
            scalar = scale * 10.0 ** rng.uniform(-2.5, 0.5)
            per_pair = scale * 10.0 ** rng.uniform(-2.5, 0.5, max(breaks.size - 1, 0))
            for max_len in (scalar, per_pair):
                want = reference_panels(breaks, max_len)
                panels, row = panel_edges(breaks, max_len)
                assert panels.dtype == want.dtype
                np.testing.assert_array_equal(panels, want)
                np.testing.assert_array_equal(row, np.zeros(want.shape[1], int))

    def test_single_break_and_degenerate_pairs(self):
        for breaks, max_len, want in (([2.5], 1.0, [[], []]),
                                      ([0.0, 0.0, -1.0], [1.0, 1.0], [[], []]),
                                      ([0.0, 1.0, 1.0, 2.0], [0.5, 9.0, 1.0],
                                       [[0.0, 0.5, 1.0], [0.5, 1.0, 2.0]])):
            panels, row = panel_edges(breaks, max_len)
            np.testing.assert_array_equal(panels, want)
            np.testing.assert_array_equal(row, np.zeros(panels.shape[1], int))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_break(self, bad):
        # unchecked, a NaN fails the b > a test and drops its pairs: the
        # integral over [0, nan, 1] comes out 0, and a 2-D row with it gets no panels
        with pytest.raises(ValueError, match="finite"):
            panel_edges([0.0, bad, 1.0], 0.5)
        with pytest.raises(ValueError, match="finite"):
            panel_edges([[0.0, 0.5, 1.0], [0.0, bad, 1.0]], 0.5)

    def test_nodes_finite_past_half_the_float_range(self):
        nodes, weights = panel_nodes([[1e308], [1.7e308]], 8)
        assert np.all((nodes > 1e308) & (nodes < 1.7e308)) and np.all(np.isfinite(weights))

    def test_rows_lay_out_each_rows_panels(self):
        # one call over a stack of chains gives, row by row, the panels that
        # each row laid out alone gives
        rng = np.random.default_rng(12)
        for _ in range(300):
            rows, width = int(rng.integers(1, 6)), int(rng.integers(2, 8))
            scale = 10.0 ** rng.uniform(-3, 3)
            breaks = np.sort(rng.uniform(-scale, scale, (rows, width)), axis=1)
            breaks[:, 2:3] = breaks[:, 1:2]  # a degenerate pair in every row
            max_len = scale * 10.0 ** rng.uniform(-2.5, 0.5, (rows, width - 1))
            panels, chain = panel_edges(breaks, max_len)
            want = [panel_edges(row, length)[0] for row, length in zip(breaks, max_len)]
            np.testing.assert_array_equal(chain, np.repeat(np.arange(rows),
                                                           [p.shape[1] for p in want]))
            np.testing.assert_array_equal(panels, np.concatenate(want, axis=1))
            per_row = [panel_nodes(p, 8) for p in want]
            for k, got in enumerate(panel_nodes(panels, 8)):
                np.testing.assert_array_equal(got, np.concatenate([r[k] for r in per_row]))

    @pytest.mark.parametrize("eps", [0.0, 0.1, 3.0])
    def test_entropy_edges_match_three_segment_loop(self, eps):
        # one panel on [0, eps - span] where the band holds the source's span,
        # then the three segments around eps: the rest of the band and past the
        # kernel's reach at the source's scale, fine panels only in between
        loss = EpsilonLoss(eps)
        for s in (-1e-3, -0.5, -1.41421356237, -5.0, -50.0, -200.0, -1e4):
            for span, alpha in ((0.05, 15.0), (0.01, 150.0), (12.0, 15.0), (60.0, 1.415)):
                upper, flat = eps + span, max(eps - span, 0.0)
                coarse = 30.0 / alpha
                fine = min(30.0 / abs(s), coarse)
                bounds = [0.0, flat, eps, min(eps + _kernel_reach(s), upper), upper]
                want = np.concatenate([reference_panels(bounds[i:i + 2], length) for i, length
                                       in enumerate((math.inf, coarse, fine, coarse))], axis=1)
                panels, row = _entropy_edges(s, loss, span, alpha)
                np.testing.assert_array_equal(panels, want)
                np.testing.assert_array_equal(row, np.zeros(want.shape[1], int))


class TestGaussLegendre:
    # panels short enough that the rule itself is exact to round-off; what is
    # left is the weights' own error (numpy's leggauss(64) was 1.6e-14 off)
    @pytest.mark.parametrize("n,length", [(8, 1.0), (20, 30.0), (64, 30.0)])
    def test_integrates_exponential_to_round_off(self, n, length):
        nodes, weights = panel_nodes(panel_edges([0.0, 30.0], length)[0], n)
        got = float(np.dot(weights, np.exp(-nodes)))
        want = -math.expm1(-30.0)
        assert abs(got - want) <= 4e-16 * want

    @pytest.mark.parametrize("n", [8, 20, 64])
    def test_symmetric_rule_with_weights_summing_to_two(self, n):
        x, w = gauss_legendre(n)
        assert np.all(np.diff(x) > 0.0) and np.all(w > 0.0)
        np.testing.assert_array_equal(x, -x[::-1])
        np.testing.assert_array_equal(w, w[::-1])
        assert abs(math.fsum(w) - 2.0) <= 4.5e-16
