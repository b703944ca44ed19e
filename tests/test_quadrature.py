import numpy as np
import pytest

from rdbounds import EpsilonLoss
from rdbounds.convolution import _entropy_edges, _kernel_reach
from rdbounds.quadrature import panel_edges


def reference_panel_edges(breaks, max_len):
    """One np.linspace per increasing breakpoint pair, as a plain loop."""
    breaks = np.asarray(breaks, dtype=float)
    max_len = np.broadcast_to(np.asarray(max_len, dtype=float), breaks[1:].shape)
    out = [float(breaks[0])]
    for a, b, length in zip(breaks[:-1], breaks[1:], max_len):
        if b <= a:
            continue
        k = max(1, int(np.ceil((b - a) / length)))
        out.extend(np.linspace(a, b, k + 1)[1:].tolist())
    return np.asarray(out)


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
                want = reference_panel_edges(breaks, max_len)
                got = panel_edges(breaks, max_len)
                assert got.dtype == want.dtype
                np.testing.assert_array_equal(got, want)

    def test_single_break_and_degenerate_pairs(self):
        np.testing.assert_array_equal(panel_edges([2.5], 1.0), [2.5])
        np.testing.assert_array_equal(panel_edges([0.0, 0.0, -1.0], [1.0, 1.0]), [0.0])
        np.testing.assert_array_equal(panel_edges([0.0, 1.0, 1.0, 2.0], [0.5, 9.0, 1.0]),
                                      [0.0, 0.5, 1.0, 2.0])

    @pytest.mark.parametrize("eps", [0.0, 0.1, 3.0])
    def test_entropy_edges_match_four_segment_loop(self, eps):
        loss = EpsilonLoss(eps)
        for s in (-1e-3, -0.5, -1.41421356237, -5.0, -50.0, -200.0, -1e4):
            for upper, smooth in ((0.05, 1.0), (eps + 0.01, 0.1), (12.0, 1.0), (60.0, 10.6)):
                fine_half = min(_kernel_reach(s), eps) if eps > 0.0 else 0.0
                fine_hi = min(eps + _kernel_reach(s), upper)
                coarse = 2.0 * smooth
                fine = min(30.0 / abs(s), coarse)
                bounds = [0.0, max(eps - fine_half, 0.0), min(eps, upper), fine_hi, upper]
                parts = [reference_panel_edges(bounds[:2], coarse)]
                parts += [reference_panel_edges(bounds[i:i + 2], length)[1:]
                          for i, length in ((1, fine), (2, fine), (3, coarse))]
                want = np.concatenate(parts)
                np.testing.assert_array_equal(_entropy_edges(s, loss, upper, smooth), want)
