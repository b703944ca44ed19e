import decimal
import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from scipy import integrate, special

from rdbounds import (
    EpsilonLoss,
    Gaussian,
    Laplacian,
    Tabulated,
    analytic_upper_bound_laplacian,
    conv_pdf,
    convolution_upper_bound,
    convolution_upper_bounds,
    gaussian_entropy_bound,
    laplacian_conv_pdf,
    laplacian_dmax_gaps,
    laplacian_upper_bound_terms,
    shannon_lower_bound,
    slb_at_matched_slope,
    slb_zero,
    slope_of_distortion,
    tilted_entropy,
    trivial_upper_bound_laplacian,
)
from rdbounds import convolution, tilted
from rdbounds.bounds import _lambertw0
from rdbounds.quadrature import panel_edges

import oracles

ALPHA = math.sqrt(2.0)
LAP = Laplacian(ALPHA)
GAU = Gaussian(1.0)
H_LAP = LAP.differential_entropy()
H_GAU = GAU.differential_entropy()
# s = -alpha, where the Laplacian closed forms have a removable 0/0, and a
# relative step of 1e-9 to either side of it
MATCHED = (-ALPHA, -ALPHA * (1.0 + 1e-9), -ALPHA * (1.0 - 1e-9))
# a symmetric triangular source on 15 cells of width 0.3, and the same source
# shifted by 0.7 so that it is neither centred nor even
TAB = Tabulated(0.3 * np.arange(-7, 8), (8.0 - np.abs(np.arange(-7, 8))) / 64.0)
TAB_SHIFTED = Tabulated(TAB.grid + 0.7, TAB.masses)
# the same grid with no mass on the five middle cells, a gap over (-0.75, 0.75)
TAB_GAP = Tabulated(TAB.grid, np.where(np.abs(TAB.grid) < 0.7, 0.0, TAB.masses) / 0.46875)
# 15 cells whose masses grow from left to right, off centre: the two outer
# tails of its convolution differ
TAB_SKEW = Tabulated(TAB.grid + 0.7, np.arange(1.0, 16.0) / 120.0)


class TestShannonLowerBound:
    def test_eps_zero_is_log_identity(self):
        loss = EpsilonLoss(0.0)
        for d in np.geomspace(1e-3, 1.0 / ALPHA, 30):
            assert shannon_lower_bound(d, H_LAP, loss) == pytest.approx(
                -math.log(ALPHA * d), abs=1e-13
            )

    @pytest.mark.parametrize("eps", [0.05, 0.1, 0.5])
    def test_two_route_equality(self, eps):
        # closed form against h(p) - h(g) at the slope matching the distortion
        loss = EpsilonLoss(eps)
        for d in np.geomspace(1e-4, 1e2, 50):
            direct = shannon_lower_bound(d, H_LAP, loss)
            parametric = H_LAP - tilted_entropy(slope_of_distortion(d, loss), loss)
            assert abs(direct - parametric) < 1e-12

    def test_strictly_decreasing(self):
        loss = EpsilonLoss(0.1)
        ds = np.geomspace(1e-4, 10.0, 200)
        vals = [shannon_lower_bound(d, H_LAP, loss) for d in ds]
        assert all(a > b for a, b in zip(vals[:-1], vals[1:]))

    @pytest.mark.parametrize("eps", [1e-160, 1e-200, 1e-300])
    def test_tiny_band_is_the_eps_zero_limit(self, eps):
        # d / eps beyond ~1e154 overflows a root of (d / 2 eps)^2
        for d in (1e-3, 0.5, 10.0):
            assert shannon_lower_bound(d, H_LAP, EpsilonLoss(eps)) == pytest.approx(
                shannon_lower_bound(d, H_LAP, EpsilonLoss(0.0)), abs=1e-12)

    def test_least_distortion_at_eps_zero(self):
        # a half-scale form takes d/2, which underflows to 0 at the least subnormal
        d = 5e-324
        want = H_LAP - math.log(d) - math.log(2.0) - 1.0
        assert shannon_lower_bound(d, H_LAP, EpsilonLoss(0.0)) == pytest.approx(want, rel=1e-15)

    @pytest.mark.parametrize("eps", [0.0, 1e-300, 1e-8, 0.1, 1.0, 1e8, 1e300])
    def test_matches_decimal_evaluation(self, eps):
        # h - log(2 eps + d + r) - 2d/(d + r), r = sqrt(d (d + 4 eps)), in 60 digits
        with decimal.localcontext() as ctx:
            ctx.prec = 60
            e, h = decimal.Decimal(eps), decimal.Decimal(H_LAP)
            for d in np.geomspace(5e-324, 1.7e308, 401).tolist():
                x = decimal.Decimal(d)
                r = (x * (x + 4 * e)).sqrt()
                want = float(h - (2 * e + x + r).ln() - 2 * x / (x + r))
                got = shannon_lower_bound(d, H_LAP, EpsilonLoss(eps))
                assert abs(got - want) <= 4e-16 * max(abs(want), 1.0), d

    def test_domain(self):
        with pytest.raises(ValueError):
            shannon_lower_bound(0.0, H_LAP, EpsilonLoss(0.1))
        with pytest.raises(ValueError):
            shannon_lower_bound(-0.5, H_LAP, EpsilonLoss(0.1))

    def test_huge_distortion_stays_finite(self):
        # 2 eps + d + r and 2d overflow past d of about 9e307, where the bound
        # is h - log 2 - log d - 1 to within eps / d
        d = 1e308
        want = H_LAP - math.log(2.0) - math.log(d) - 1.0
        for eps in (0.0, 0.1):
            got = shannon_lower_bound(d, H_LAP, EpsilonLoss(eps))
            assert math.isfinite(got) and got == pytest.approx(want, rel=0.0, abs=1e-12)


class TestSlbZero:
    def test_laplacian_endpoint(self):
        assert slb_zero(LAP, EpsilonLoss(0.1)) == pytest.approx(0.6136, abs=5e-4)

    def test_gaussian_endpoint(self):
        assert slb_zero(GAU, EpsilonLoss(0.1)) == pytest.approx(0.6662, abs=5e-4)

    def test_eps_zero_laplacian_is_inverse_alpha(self):
        assert slb_zero(LAP, EpsilonLoss(0.0)) == pytest.approx(1.0 / ALPHA, abs=1e-8)

    def test_below_d_max(self):
        loss = EpsilonLoss(0.1)
        for src in (LAP, GAU):
            assert slb_zero(src, loss) < src.d_max(loss)

    def test_vacuous(self):
        with pytest.raises(ValueError, match="vacuous"):
            slb_zero(LAP, EpsilonLoss(2.0))

    @pytest.mark.parametrize("u", [1e-200, 1e-9, 5e-4, 9.99e-4, 0.5, 2.0])
    def test_laplacian_dmax_gaps_match_decimal_oracle(self, u):
        # at u = 1e-200 the first gap itself, u^3 / 6, would underflow
        loss = EpsilonLoss(u / ALPHA)
        u = ALPHA * loss.epsilon  # the u the library sees
        band, top = laplacian_dmax_gaps(ALPHA, loss)
        assert band == pytest.approx(oracles.laplacian_dmax_gap_decimal(u), rel=4e-15)
        assert top == pytest.approx(-math.expm1(-u) / u, rel=1e-15)

    @pytest.mark.parametrize("src", [LAP, GAU, TAB], ids=["laplacian", "gaussian", "tabulated"])
    @pytest.mark.parametrize("eps", [0.0, 1e-300, 1e-9, 0.01, 0.1, 1.0])
    def test_is_the_zero_of_the_bound(self, src, eps):
        h_p = src.differential_entropy()
        loss = EpsilonLoss(eps)
        if eps > 0.0 and h_p <= math.log(2.0 * eps):
            with pytest.raises(ValueError, match="vacuous"):
                slb_zero(src, loss)
        else:
            assert abs(shannon_lower_bound(slb_zero(src, loss), h_p, loss)) <= 1e-13

    def test_vacuous_exactly_past_half_the_entropy_power(self):
        # the bound is positive somewhere iff h(p) > log(2 eps)
        edge = 0.5 * math.exp(H_LAP)
        with pytest.raises(ValueError, match="vacuous"):
            slb_zero(LAP, EpsilonLoss(edge * (1.0 + 1e-12)))
        root = slb_zero(LAP, EpsilonLoss(edge * (1.0 - 1e-6)))
        assert 0.0 < root < 1e-9

    def test_lambertw0_matches_scipy(self):
        xs = np.concatenate([[0.0, 5e-324], np.geomspace(1e-300, 1e300, 4001),
                             np.linspace(0.0, math.e, 1001)])
        got = np.array([_lambertw0(float(x)) for x in xs])
        np.testing.assert_array_max_ulp(got, special.lambertw(xs).real, maxulp=2)


class TestTrivialBound:
    def test_values(self):
        assert trivial_upper_bound_laplacian(1.0 / ALPHA, ALPHA) == 0.0
        assert trivial_upper_bound_laplacian(0.1, ALPHA) == pytest.approx(
            -math.log(0.1 * ALPHA), rel=1e-12
        )
        assert trivial_upper_bound_laplacian(0.7071, ALPHA) == pytest.approx(0.0, abs=1e-4)
        assert trivial_upper_bound_laplacian(5.0, ALPHA) == 0.0
        with pytest.raises(ValueError):
            trivial_upper_bound_laplacian(0.0, ALPHA)

    def test_zero_rate_is_positive_zero(self):
        # -log(1.0) is -0.0; the clamp must not keep its sign
        for d in (1.0, 2.0, 1e300):
            assert math.copysign(1.0, trivial_upper_bound_laplacian(d, 1.0)) == 1.0

    def test_dominates_lower_bound(self):
        # band-forgiving rate <= absolute-error rate, so slb <= -log(alpha d)
        loss = EpsilonLoss(0.1)
        for d in np.geomspace(1e-3, 1.0 / ALPHA, 60):
            assert shannon_lower_bound(d, H_LAP, loss) <= trivial_upper_bound_laplacian(
                d, ALPHA
            ) + 1e-12


class TestLaplacianConvPdf:
    @pytest.mark.parametrize("s", [-0.5, -3.0, -20.0])
    @pytest.mark.parametrize("eps", [0.05, 0.1, 0.5])
    def test_matches_convolution_quadrature(self, s, eps):
        loss = EpsilonLoss(eps)
        for y in (0.0, eps, 2 * eps, 1.0):
            want = oracles.conv_quad(LAP.pdf, s, eps, y)
            assert laplacian_conv_pdf(y, s, ALPHA, loss) == pytest.approx(want, abs=1e-9)

    @pytest.mark.parametrize("s", [-0.5, -4.0, -40.0])
    def test_normalization(self, s):
        loss = EpsilonLoss(0.1)
        val, _ = integrate.quad(
            lambda y: laplacian_conv_pdf(y, s, ALPHA, loss), 0.0, 90.0,
            points=[0.1, 1.0, 5.0], limit=400, epsabs=1e-12, epsrel=1e-12,
        )
        assert 2.0 * val == pytest.approx(1.0, abs=1e-9)

    def test_symmetry_and_continuity(self):
        loss = EpsilonLoss(0.1)
        y = np.linspace(0.0, 3.0, 301)
        left = laplacian_conv_pdf(-y, -3.0, ALPHA, loss)
        right = laplacian_conv_pdf(y, -3.0, ALPHA, loss)
        assert np.array_equal(left, right)
        inner = laplacian_conv_pdf(0.1 - 1e-12, -3.0, ALPHA, loss)
        outer = laplacian_conv_pdf(0.1 + 1e-12, -3.0, ALPHA, loss)
        assert inner == pytest.approx(outer, rel=1e-9)

    def test_sharp_kernel_limit_recovers_source(self):
        # at eps = 0 and huge |s| the kernel tends to a point mass
        loss = EpsilonLoss(0.0)
        for y in (0.0, 0.7, 2.0):
            assert laplacian_conv_pdf(y, -1e6, ALPHA, loss) == pytest.approx(
                LAP.pdf(y), rel=1e-5
            )

    def test_continuous_through_matched_slope(self):
        y = np.array([0.0, 0.05, 0.1, 0.3, 2.0, 12.0])
        vals = np.array([laplacian_conv_pdf(y, s, ALPHA, EpsilonLoss(0.1)) for s in MATCHED])
        assert np.all(np.isfinite(vals)) and np.all(vals > 0.0)
        assert np.max(np.abs(vals[1:] / vals[0] - 1.0)) <= 1e-8

    # (alpha, s): s = -alpha, where the divided difference meets exprel(0),
    # and |s + alpha| = 1e-300, 1e-17, 1e-8 and 1 on both sides of it
    EXPREL_CASES = [(ALPHA, -ALPHA)] + [
        (alpha, -alpha + side * gap) for alpha, gap in
        ((1e-290, 1e-300), (0.01, 1e-17), (ALPHA, 1e-8), (ALPHA, 1.0)) for side in (1, -1)]

    @pytest.mark.parametrize("alpha,s", EXPREL_CASES)
    def test_matches_scipy_exprel_expression(self, monkeypatch, alpha, s):
        loss = EpsilonLoss(0.1 / alpha)
        y = np.linspace(0.0, 40.0, 4001) / alpha
        got = laplacian_conv_pdf(y, s, alpha, loss)
        monkeypatch.setattr(convolution, "_exp_divided_difference", lambda u, s, alpha: (
            u * np.exp(max(s, -alpha) * u) * special.exprel(-abs(s + alpha) * u)))
        want = laplacian_conv_pdf(y, s, alpha, loss)
        if s == -alpha:
            assert np.array_equal(got, want)
        else:
            # numpy may run expm1 as SIMD code (AVX-512) that rounds 1 ulp away
            # from the C library's expm1 inside exprel on ~1 % of arguments;
            # where the density's terms cancel that reads as up to 4 ulp
            np.testing.assert_allclose(got, want, rtol=2e-15, atol=0.0)


class TestErrorFunctions:
    # erfcx never underflows; erfc is compared wherever it is a normal double
    X = np.concatenate([np.linspace(-30.0, 30.0, 60_001), np.geomspace(30.0, 1e12, 2_001)])

    def test_erfcx_matches_scipy(self):
        z = np.abs(self.X)
        np.testing.assert_allclose(convolution._erfcx(z), special.erfcx(z), rtol=4e-15, atol=0.0)

    def test_erfc_matches_scipy(self):
        got = convolution._erfc(self.X, convolution._erfcx(np.abs(self.X)))
        want = special.erfc(self.X)
        keep = want > 1e-300
        np.testing.assert_allclose(got[keep], want[keep], rtol=4e-15, atol=0.0)
        assert np.all(got[~keep] < 1e-299)

    def test_limits(self):
        assert convolution._erfcx(np.array([0.0]))[0] == pytest.approx(1.0, rel=4e-15)
        assert convolution._erfcx(np.array([np.inf]))[0] == 0.0
        np.testing.assert_array_equal(
            convolution._erfc(np.array([-np.inf, 0.0, np.inf]), np.array([0.0, 1.0, 0.0])),
            [2.0, 1.0, 0.0])


class TestNumericConvolution:
    @pytest.mark.parametrize("s", [-0.7, -5.0, -50.0, -200.0])
    def test_gaussian_against_quadrature(self, s):
        loss = EpsilonLoss(0.1)
        for y in (0.0, 0.1, 0.35, 2.0, 8.0, 12.0):
            want = oracles.conv_quad(GAU.pdf, s, 0.1, y, extra_points=())
            assert conv_pdf(GAU, s, loss, [y])[0] == pytest.approx(want, abs=1e-9)

    @pytest.mark.parametrize("src", [TAB, TAB_SHIFTED], ids=["symmetric", "shifted"])
    @pytest.mark.parametrize("s", [-0.5, -5.0, -50.0])
    def test_tabulated_against_quadrature(self, src, s):
        eps = 0.1
        half = 0.5 * src.spacing
        cell_edges = np.append(src.grid - half, src.grid[-1] + half)
        # points on cell edge +- eps, where r has kinks, and between them
        ys = [src.grid[7], cell_edges[3] - eps, cell_edges[3] + eps, cell_edges[0] - eps,
              cell_edges[-1] + eps, src.grid[-1] + 1.3]
        got = conv_pdf(src, s, EpsilonLoss(eps), ys)
        for y, value in zip(ys, got):
            want = oracles.conv_quad(src.pdf, s, eps, y, extra_points=cell_edges)
            assert value == pytest.approx(want, abs=1e-9)

    @pytest.mark.parametrize("eps", [0.0, 0.1])
    @pytest.mark.parametrize("s", [-5.0, -50.0])
    def test_tabulated_relative_accuracy_where_tiny(self, eps, s):
        # in the zero-mass gap and 1-3 beyond either end of the support r is
        # far below the density's scale (down to ~1e-60), but still a sum of
        # positive terms, so it keeps its relative accuracy
        ys = [-0.6, -0.3, 0.0, 0.45, 0.7, -3.25, -4.25, -5.25, 3.25, 4.25, 5.25]
        got = conv_pdf(TAB_GAP, s, EpsilonLoss(eps), ys)
        for y, value in zip(ys, got):
            want = oracles.conv_cells_quad(TAB_GAP.grid, TAB_GAP.masses, s, eps, y)
            assert value == pytest.approx(want, rel=1e-10, abs=0.0)

    def test_tabulated_independent_of_node_order(self):
        eps = 0.1
        half = 0.5 * TAB.spacing
        cell_edges = np.append(TAB.grid - half, TAB.grid[-1] + half)
        ys = np.concatenate([cell_edges - eps, cell_edges + eps, cell_edges,
                             np.linspace(-4.0, 4.0, 1201)])
        ys = np.sort(np.concatenate([ys, ys[::7]]))  # with duplicates
        shuffled = np.random.default_rng(3).permutation(ys.size)
        for s in (-0.5, -50.0):
            want = conv_pdf(TAB, s, EpsilonLoss(eps), ys)
            got = conv_pdf(TAB, s, EpsilonLoss(eps), ys[shuffled])
            np.testing.assert_array_equal(got, want[shuffled])

    @pytest.mark.parametrize("eps", [0.35, 1.0])
    @pytest.mark.parametrize("s", [-20.0, -200.0])
    def test_tabulated_relative_accuracy_inside_light_band(self, eps, s):
        # 49 cells of mass 1e-30 between heavy outer cells: the cells wholly
        # inside the band add their own tiny masses, which a difference of
        # running sums across the heavy cells would round to 0
        grid = 0.1 * np.arange(-30, 31)
        light = np.abs(grid) < 2.45
        src = Tabulated(grid, np.where(light, 1e-30, 1.0 / np.count_nonzero(~light)))
        ys = [0.0, 0.33, -0.9, 1.2]
        got = conv_pdf(src, s, EpsilonLoss(eps), ys)
        for y, value in zip(ys, got):
            want = oracles.conv_cells_quad(src.grid, src.masses, s, eps, y)
            assert value == pytest.approx(want, rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("s", [-0.5, -5.0, -50.0])
    def test_tabulated_empty_band_on_cell_edges(self, s):
        # at eps = 0 a node on a cell edge has an empty band, so r there is the
        # two tails alone; in the gap and the light band it is far below the
        # density's scale
        grid = 0.1 * np.arange(-30, 31)
        light = Tabulated(grid, np.where(np.abs(grid) < 2.45, 1e-30, 1.0 / 12.0))
        for src in (TAB, TAB_GAP, light):
            got = conv_pdf(src, s, EpsilonLoss(0.0), src.edges)
            for y, value in zip(src.edges, got):
                want = oracles.conv_cells_quad(src.grid, src.masses, s, 0.0, y)
                assert value == pytest.approx(want, rel=1e-10, abs=0.0)

    def test_tail_sums_match_recursion(self):
        # against L[k + 1] = L[k] e^{-rate} + dens[k] run in long double (in
        # double its powers of a rounded e^{-rate} drift by up to 1.6e-14
        # relative below rate 1e-2).  Every exponent rate d is a rounded
        # product, so L[k] is known to 1e-15 plus 2^-52 times its mean
        # exponent rate X[k] / L[k], where X[k] sums dens[c] (k - 1 - c) e^{..}
        rng = np.random.default_rng(9)
        for _ in range(300):
            dens = rng.uniform(0.0, 1.0, int(rng.integers(1, 700)))
            dens[rng.uniform(size=dens.size) < rng.uniform(0.0, 0.9)] = 0.0
            rate = 10.0 ** rng.uniform(-4.0, 2.5)
            decay = np.exp(-np.longdouble(rate))
            want = np.zeros(dens.size + 1, dtype=np.longdouble)
            moment = want.copy()
            for k, d in enumerate(dens.astype(np.longdouble)):
                moment[k + 1] = (moment[k] + want[k]) * decay
                want[k + 1] = want[k] * decay + d
            got = convolution._tail_sums(dens, rate)
            normal = want > 1e-300  # below, double has lost digits to underflow
            assert got[0] == 0.0 and np.all(got[want == 0.0] == 0.0)
            err = np.abs(got[normal] - want[normal]) / want[normal]
            assert np.all(err <= 1e-15 + 2.0**-52 * rate * moment[normal] / want[normal])

    def test_tabulated_block_sum_lookups_per_segment(self, monkeypatch):
        # a band of about 600 whole cells is summed from power-of-two blocks once
        # per segment between the breaks (cell edge) +- eps, shared by every
        # slope of a batch: at most ceil(log2 600) + 1 lookups per segment,
        # however many nodes the slopes take (s = -500 splits every segment)
        src = Tabulated(np.linspace(-6.0, 6.0, 1201), np.full(1201, 1.0 / 1201))
        eps = 3.0
        lookups = []
        real_blocks = convolution._block_sums

        class CountedBlock:
            def __init__(self, block):
                self.block = block

            def take(self, index, mode):
                lookups.append(np.size(index))
                return self.block.take(index, mode=mode)

        monkeypatch.setattr(convolution, "_block_sums", lambda masses, levels: [
            CountedBlock(block) for block in real_blocks(masses, levels)])
        convolution.conv_entropies(src, [-5.0, -50.0, -500.0], EpsilonLoss(eps))
        # the segments between the breaks, and the half-lines past either end
        segments = np.unique(np.concatenate([src.edges - eps, src.edges + eps])).size + 1
        per_segment = math.ceil(math.log2(2.0 * eps / src.spacing)) + 1
        assert 0 < sum(lookups) <= per_segment * segments

    @pytest.mark.parametrize("eps", [0.0, 0.1, 3.0])
    @pytest.mark.parametrize("s", [-0.5, -50.0, -1e4])
    def test_tabulated_pdf_is_the_entropy_density(self, monkeypatch, eps, s):
        # conv_pdf looks up each point's segment and shares the entropy route's
        # terms and carries, so at the route's own nodes it is the route's
        # density bit for bit, split panels (s = -1e4) or not
        loss = EpsilonLoss(eps)
        seen = {}
        real_nodes, real_density = convolution.panel_nodes, convolution._tabulated_density

        def nodes(panels, n):
            seen["y"], w = real_nodes(panels, n)
            return seen["y"], w

        def density(terms, b, left, right, c):
            seen["r"] = real_density(terms, b, left, right, c)
            return seen["r"]

        with monkeypatch.context() as patch:
            patch.setattr(convolution, "panel_nodes", nodes)
            patch.setattr(convolution, "_tabulated_density", density)
            convolution.conv_entropies(TAB_SKEW, [s], loss)[0]
        # the route's nodes are (8, panels); seen["y"] is in panel order
        want = seen["r"].T.reshape(-1)
        assert want.size == seen["y"].size > 0
        np.testing.assert_array_equal(conv_pdf(TAB_SKEW, s, loss, seen["y"]), want)

    @pytest.mark.parametrize("eps", [0.0, 0.1, 3.0])
    @pytest.mark.parametrize("s", [-1e-3, -0.5, -50.0, -1e4])
    def test_tabulated_outer_tails_match_quadrature(self, eps, s):
        # past the outer breaks r = r0 e^{-|s| t}, whose entropy is the closed
        # form r0 (1 - log r0) / |s| a side; the oracle integrates the cell sum
        loss = EpsilonLoss(eps)
        b = np.array([-s])
        geometry = convolution._TabulatedGeometry(TAB_SKEW, loss)
        _, _, tails = geometry.carries(b, tilted._normalizer(b, eps))
        want = oracles.tabulated_outer_entropy_quad(TAB_SKEW.grid, TAB_SKEW.masses, s, eps)
        assert tails[0] == pytest.approx(want, rel=1e-14, abs=0.0)

    def test_neg_r_log_r_keeps_nan(self):
        # a NaN density must reach the sum, where the cell is noted non-finite;
        # a zero or round-off negative density adds nothing
        got = convolution._neg_r_log_r(np.array([np.nan, 0.0, -1e-300, 0.5]))
        assert np.isnan(got[0]) and got[1] == 0.0 and got[2] == 0.0
        assert got[3] == -0.5 * math.log(0.5)


class TestConvolutionUpperBound:
    @pytest.mark.parametrize("src,h_p", [(LAP, H_LAP), (GAU, H_GAU)])
    def test_sits_above_lower_bound(self, src, h_p):
        loss = EpsilonLoss(0.1)
        for s in (-0.5, -2.0, -20.0, -150.0):
            pt = convolution_upper_bound(src, s, loss)
            assert pt.raw_rate >= shannon_lower_bound(pt.d, h_p, loss) - 1e-10

    def test_laplacian_meets_lower_bound_at_steep_slopes(self):
        # at eps = 0, R_U - SLB shrinks like 1 / s^2: past |s| = 1e8 the two
        # agree to the round-off of entropies of 18 to 690 nats
        src, loss = Laplacian(1.0), EpsilonLoss(0.0)
        for s in (-1e8, -1e12, -1e16, -1e18, -1e300):
            pt = convolution_upper_bound(src, s, loss)
            slb = shannon_lower_bound(pt.d, src.differential_entropy(), loss)
            assert pt.raw_rate == pytest.approx(slb, abs=1e-12)

    def test_weak_slope_limit(self):
        # s -> 0-: the bound's rate collapses while its distortion exceeds d_max
        loss = EpsilonLoss(0.1)
        pt = convolution_upper_bound(LAP, -1e-4, loss)
        assert pt.d > LAP.d_max(loss)
        assert 0.0 <= pt.r < 1e-2
        assert shannon_lower_bound(pt.d, H_LAP, loss) <= 0.0

    @pytest.mark.parametrize("src,s", [
        (LAP, -0.5), (LAP, -ALPHA), (LAP, -5.0), (LAP, -50.0),
        (GAU, -0.5), (GAU, -5.0), (GAU, -200.0),
    ])
    def test_matches_nested_quadrature(self, src, s):
        if src is LAP:
            want = oracles.ru_quad(LAP.pdf, s, 0.1, support=40.0, kinks=(0.0,))
        else:
            want = oracles.ru_quad(GAU.pdf, s, 0.1, support=9.5)
        assert convolution_upper_bound(src, s, EpsilonLoss(0.1)).raw_rate == pytest.approx(
            want, abs=1e-8)

    @pytest.mark.parametrize("src,s", [
        (LAP, -0.5), (LAP, -5.0), (GAU, -0.5), (GAU, -50.0), (LAP, -20.0), (LAP, -200.0),
    ])
    @pytest.mark.parametrize("eps", [10.0, 100.0, 3.0])
    def test_wide_band_matches_nested_quadrature(self, src, s, eps):
        # both sources have unit variance, so eps is 10 and 100 sigma: past the
        # tail span the band's flat stretch [0, eps - span] is one panel.  At
        # eps = 3 and |s| = 20 or 200 the band is wider than the kernel's reach
        # 45/|s|, and a Laplacian r is taken there on its own scale 1/alpha,
        # with fine panels only past eps
        if src is LAP:
            want = oracles.ru_quad(LAP.pdf, s, eps, support=40.0, kinks=(0.0,))
        else:
            want = oracles.ru_quad(GAU.pdf, s, eps, support=9.5)
        assert convolution_upper_bound(src, s, EpsilonLoss(eps)).raw_rate == pytest.approx(
            want, abs=1e-10)

    @pytest.mark.parametrize("s", [-1e-3, -1e-2, -0.5])
    def test_gaussian_weak_slopes_match_nested_quadrature(self, s):
        # the oracle's source stops at 9.5, a kink its outer integral must see
        # once the kernel is far wider than the source
        want = oracles.ru_quad(GAU.pdf, s, 0.1, support=9.5, kinks=(9.5,))
        assert convolution_upper_bound(GAU, s, EpsilonLoss(0.1)).raw_rate == pytest.approx(
            want, abs=1e-11)

    @pytest.mark.parametrize("sigma2", [0.3, 4.0])
    @pytest.mark.parametrize("band", [0.0, 3.0])
    @pytest.mark.parametrize("b_sigma", [50.0, 200.0])
    def test_gaussian_steep_slopes_match_nested_quadrature(self, sigma2, band, b_sigma):
        # the kernel is far narrower than the source: r has no panel break at
        # eps and is taken on panels of up to 4 sigma, its scale at every slope
        src = Gaussian(sigma2)
        s, eps = -b_sigma / src.sigma, band * src.sigma
        want = oracles.ru_quad(src.pdf, s, eps, support=9.5 * src.sigma)
        assert convolution_upper_bound(src, s, EpsilonLoss(eps)).raw_rate == pytest.approx(
            want, abs=1e-11)

    @staticmethod
    def panels_bounded_then_small_allocation(monkeypatch, source, eps, slopes, max_panels):
        # the panel count is read off the breaks before any edge array exists,
        # so a route whose panels grow like 1/|s| fails here instead of
        # allocating gigabytes below
        counts = []

        def counting_panel_edges(breaks, max_len):
            breaks = np.asarray(breaks, dtype=float)
            gaps = np.diff(breaks)
            lengths = np.broadcast_to(np.asarray(max_len, dtype=float), gaps.shape)
            counts.append(int(np.ceil(gaps[gaps > 0] / lengths[gaps > 0]).sum()))
            assert counts[-1] <= max_panels
            return panel_edges(breaks, max_len)

        loss = EpsilonLoss(eps)
        with monkeypatch.context() as patch:
            patch.setattr(convolution, "panel_edges", counting_panel_edges)
            for s in slopes:
                convolution_upper_bound(source, s, loss)
        assert len(counts) == len(slopes)
        tracemalloc.start()
        try:
            convolution_upper_bound(source, -1e-6, loss)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10e6

    @pytest.mark.parametrize("eps", [0.0, 0.1, 1.0])
    def test_gaussian_panels_bounded_then_small_allocation(self, monkeypatch, eps):
        self.panels_bounded_then_small_allocation(
            monkeypatch, GAU, eps, -np.geomspace(1e-8, 1.0, 41), 16)

    @pytest.mark.parametrize("eps", [0.0, 0.1, 1.0])
    def test_laplacian_panels_bounded_then_small_allocation(self, monkeypatch, eps):
        self.panels_bounded_then_small_allocation(
            monkeypatch, LAP, eps, (-0.5, -1e-2, -1e-6, -1e-300), 20)

    @pytest.mark.parametrize("src,bands,max_panels", [
        (LAP, (0.0, 0.1, 1.0, 3.0 / ALPHA), 5), (GAU, (0.0, 0.1, 1.0, 3.0), 3),
        (LAP, (10.0, 100.0, 1e6, 1e12, 1e17, 1e300), 7),
        (GAU, (10.0, 100.0, 1e6, 1e12, 1e17, 1e300), 6),
    ], ids=["laplacian", "gaussian", "laplacian-wide", "gaussian-wide"])
    def test_smooth_panels_have_width_at_every_slope(self, monkeypatch, src, bands, max_panels):
        # past |s| ~ 1e15 the reach 45/|s| is under an ulp of eps, and eps + it
        # rounds to a neighbour of eps: such a one-ulp segment is one Laplacian
        # panel, not several whose edges round to the same value.  A Gaussian
        # batch lays one slope-free row, counted here as every slope's.
        # Both sources have unit variance; on [0, eps - span] r is flat and
        # takes one panel, so the count stays bounded as eps grows (a Gaussian
        # slope took 500 006 panels at eps = 1e6), and where sigma is under an
        # ulp of eps (1e17) no source-scale panel has zero width either
        slopes = -np.geomspace(1e-300, 1e300, 6001)
        layouts = []

        def recording_panel_edges(breaks, max_len):
            layouts.append(panel_edges(breaks, max_len))
            return layouts[-1]

        monkeypatch.setattr(convolution, "panel_edges", recording_panel_edges)
        # the density is a stand-in: only the layout is checked
        monkeypatch.setattr(convolution, "_laplacian_conv_pdf", lambda y, *rest: np.ones(y.shape))
        for eps in bands:
            convolution.conv_entropies(src, slopes, EpsilonLoss(eps))
            panels, chain = layouts.pop()
            assert not layouts and panels.size > 0
            assert np.all(panels[1] > panels[0])
            assert np.bincount(chain, minlength=slopes.size).max() <= max_panels

    @pytest.mark.parametrize("src", [LAP, GAU], ids=["laplacian", "gaussian"])
    @pytest.mark.parametrize("eps", [0.0, 0.1, 10.0])
    def test_smooth_tiny_slopes_take_a_value(self, src, eps):
        # the kernel's reach 45/|s| overflows at 1e-307; R_U -> 0 as s -> 0
        slopes = -np.array([1e-307, 1e-300, 1e-200, 1e-100])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rates = [pt.raw_rate for pt in convolution_upper_bounds(src, slopes, EpsilonLoss(eps))]
        assert np.all(np.abs(rates) <= 1e-12)

    @pytest.mark.parametrize("s", [-0.5, -1e-2, -ALPHA / 2, -0.999 * ALPHA, -1.001 * ALPHA])
    def test_laplacian_weak_slopes_match_nested_quadrature(self, s):
        # past the far break r is summed in closed form as one exponential of
        # rate |s|; near |s| = alpha it is two exponentials of close rates there
        want = oracles.ru_quad(LAP.pdf, s, 0.1, support=40.0, kinks=(0.0,))
        assert convolution_upper_bound(LAP, s, EpsilonLoss(0.1)).raw_rate == pytest.approx(
            want, abs=1e-10)

    @pytest.mark.parametrize("src", [TAB, TAB_SHIFTED], ids=["symmetric", "shifted"])
    @pytest.mark.parametrize("eps", [0.0, 0.1, 1.0])
    @pytest.mark.parametrize("s", [-0.5, -5.0, -50.0])
    def test_tabulated_matches_kink_quadrature(self, src, eps, s):
        want = oracles.ru_tabulated_quad(src.grid, src.masses, s, eps)
        assert convolution_upper_bound(src, s, EpsilonLoss(eps)).raw_rate == pytest.approx(
            want, abs=1e-10)

    def test_tabulated_layout_over_the_node_limit_raises(self):
        # the node count is taken in floating point before any panel exists,
        # so neither a huge allocation nor an overflowed integer count follows
        three = Tabulated(np.array([-1.0, 0.0, 1.0]), np.array([0.25, 0.5, 0.25]))
        with pytest.raises(ValueError, match="nodes"):
            convolution_upper_bound(three, -1e300, EpsilonLoss(0.0))

    def test_continuous_through_matched_slope(self):
        pts = [convolution_upper_bound(LAP, s, EpsilonLoss(0.1)) for s in MATCHED]
        rates = np.array([pt.raw_rate for pt in pts])
        assert np.all(np.isfinite(rates))
        assert not any(pt.clamped for pt in pts)
        assert np.max(np.abs(rates[1:] - rates[0])) <= 1e-8


class TestBatchedUpperBound:
    """convolution_upper_bounds over a batch: each slope's value is the one it
    has alone, wherever the chunks of the batch fall."""

    SLOPES = -np.geomspace(1e-3, 1e4, 60)

    @classmethod
    def alone(cls, src, loss):
        return {s: convolution_upper_bound(src, s, loss).raw_rate for s in cls.SLOPES}

    @pytest.mark.parametrize("src", [LAP, GAU, TAB], ids=["laplacian", "gaussian", "tabulated"])
    def test_slope_value_independent_of_batch(self, src):
        loss = EpsilonLoss(0.1)
        alone = self.alone(src, loss)
        shuffled = np.random.default_rng(5).permutation(self.SLOPES)
        batch = convolution_upper_bounds(src, shuffled, loss)
        assert [pt.s for pt in batch] == list(shuffled)
        assert all(pt.raw_rate == alone[pt.s] for pt in batch)

    @pytest.mark.parametrize("src", [LAP, GAU, TAB], ids=["laplacian", "gaussian", "tabulated"])
    def test_empty_batch_is_empty(self, src):
        assert convolution_upper_bounds(src, [], EpsilonLoss(0.1)) == []

    @pytest.mark.parametrize("src", [LAP, GAU], ids=["laplacian", "gaussian"])
    def test_slope_value_independent_of_chunk(self, monkeypatch, src):
        # one slope at every position among the rest: before and after each
        # boundary of chunks that never pass the node budget (for a Gaussian,
        # the tails' erfcx arguments: two per slope and point)
        loss = EpsilonLoss(0.1)
        alone = self.alone(src, loss)
        chunks = []

        def counting_pdf(y, *rest):
            chunks.append(np.size(y))
            return real_pdf(y, *rest)

        def counting_tails(ay, b, *rest):
            chunks.append(2 * np.broadcast(ay, b).size)
            return real_tails(ay, b, *rest)

        real_pdf, real_tails = convolution._laplacian_conv_pdf, convolution._gaussian_tails
        if src is GAU:
            monkeypatch.setattr(convolution, "_gaussian_tails", counting_tails)
        else:
            monkeypatch.setattr(convolution, "_laplacian_conv_pdf", counting_pdf)
        shuffled = list(np.random.default_rng(6).permutation(self.SLOPES))
        for target in shuffled[:2]:
            rest = [s for s in shuffled if s != target]
            for at in range(len(rest) + 1):
                chunks.clear()
                batch = convolution_upper_bounds(src, rest[:at] + [target] + rest[at:], loss)
                assert batch[at].s == target and batch[at].raw_rate == alone[target]
                assert len(chunks) > 1 and max(chunks) <= convolution.NODE_BUDGET

    @pytest.mark.parametrize("sigma2", [0.3, 1.0, 4.0])
    def test_gaussian_twenty_nodes_match_sixty_four(self, monkeypatch, sigma2):
        src = Gaussian(sigma2)
        slopes = -np.geomspace(1e-4, 1e5, 91) / src.sigma
        for eps in (0.0, 0.1 * src.sigma, src.sigma, 3.0 * src.sigma):
            loss = EpsilonLoss(eps)
            got = [pt.raw_rate for pt in convolution_upper_bounds(src, slopes, loss)]
            with monkeypatch.context() as patch:
                patch.setattr(convolution, "GAUSSIAN_NODES", 64)
                want = [pt.raw_rate for pt in convolution_upper_bounds(src, slopes, loss)]
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-13)

    @pytest.mark.parametrize("alpha", [0.3, 1.0, ALPHA, 7.0])
    def test_laplacian_forty_nodes_match_sixty_four(self, monkeypatch, alpha):
        src = Laplacian(alpha)
        slopes = -np.geomspace(1e-3, 1e5, 161)
        for eps in (0.0, 0.1, 1.0, 3.0 / alpha):
            loss = EpsilonLoss(eps)
            got = [pt.raw_rate for pt in convolution_upper_bounds(src, slopes, loss)]
            with monkeypatch.context() as patch:
                patch.setattr(convolution, "LAPLACIAN_NODES", 64)
                want = [pt.raw_rate for pt in convolution_upper_bounds(src, slopes, loss)]
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-13)

    def test_long_gaussian_batch_allocates_by_the_node_budget(self):
        # at most 64 live doubles per node of a chunk, and 1 KiB per slope for
        # its panels and its point; evaluating the batch's ~440 000 nodes at
        # once would take about a hundred times the bound
        slopes = list(-np.geomspace(1e-4, 1e5, 2000))
        convolution_upper_bounds(GAU, slopes[:3], EpsilonLoss(0.1))  # lazy set-up
        tracemalloc.start()
        try:
            points = convolution_upper_bounds(GAU, slopes, EpsilonLoss(0.1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(points) == 2000
        assert peak < 64 * 8 * convolution.NODE_BUDGET + 1024 * len(slopes)

    def test_long_gaussian_batch_stays_under_the_mmap_threshold(self, monkeypatch):
        # erfcx holds five doubles per argument at once (its powers); no call
        # may reach glibc's 128 KiB mmap threshold, or every chunk of a sweep
        # maps fresh pages and faults them in
        sizes = []

        def recording_erfcx(z):
            sizes.append(np.size(z))
            return real_erfcx(z)

        real_erfcx = convolution._erfcx
        monkeypatch.setattr(convolution, "_erfcx", recording_erfcx)
        slopes = list(-np.geomspace(1e-4, 1e5, 2000))
        assert len(convolution_upper_bounds(GAU, slopes, EpsilonLoss(0.1))) == 2000
        assert len(sizes) > 1 and 5 * 8 * max(sizes) <= 128 * 1024


class TestGaussianEntropyBound:
    def test_dominates_convolution_bound(self):
        loss = EpsilonLoss(0.1)
        for src in (LAP, GAU):
            for s in (-0.5, -2.0, -10.0, -100.0):
                ru = convolution_upper_bound(src, s, loss)
                rge = gaussian_entropy_bound(src, s, loss)
                assert ru.raw_rate <= rge.raw_rate + 1e-9

    @pytest.mark.parametrize("eps", [0.0, 0.1])
    def test_dominates_convolution_bound_tabulated(self, eps):
        # the Gaussian bound needs the variance of the piecewise-constant
        # density that R_U convolves, not that of point masses on the grid
        x = np.linspace(-5.5, 5.5, 401)
        sources = (
            Tabulated(np.array([-0.5, 0.5]), np.array([0.5, 0.5])),
            Tabulated(np.array([-0.5, 0.0, 0.5]), np.array([0.0, 1.0, 0.0])),
            Tabulated(x, np.exp(-x * x) / np.exp(-x * x).sum()),
        )
        loss = EpsilonLoss(eps)
        for src in sources:
            for s in -np.geomspace(0.5, 200.0, 25):
                ru = convolution_upper_bound(src, s, loss)
                rge = gaussian_entropy_bound(src, s, loss)
                assert ru.raw_rate <= rge.raw_rate + 1e-9

    def test_independent_recomputation(self):
        s, eps = -5.0, 0.1
        loss = EpsilonLoss(eps)
        b = abs(s)
        c = 2.0 * (1.0 + b * eps) / b
        v_g = (2.0 / c) * (eps**3 / 3.0 + (eps**2 + 2 * eps / b + 2 / b**2) / b)
        h_g = math.log(c) + 1.0 / (1.0 + b * eps)
        want = 0.5 * math.log(2 * math.pi * math.e * (1.0 + v_g)) - h_g
        got = gaussian_entropy_bound(LAP, s, loss)  # Laplacian(sqrt 2) has unit variance
        assert got.raw_rate == pytest.approx(want, rel=1e-14)

    @pytest.mark.parametrize("src", [LAP, GAU], ids=["laplacian", "gaussian"])
    @pytest.mark.parametrize("eps", [0.0, 0.1])
    def test_tends_to_its_limit_at_tiny_slopes(self, src, eps):
        # Var g ~ 2/s^2: its terms overflow at 1e-120, and s^2 underflows to 0
        # at 1e-200 and 1e-300; the bound tends to (1/2) log(pi e) - 1
        for s in (-1e-120, -1e-200, -1e-300):
            got = gaussian_entropy_bound(src, s, EpsilonLoss(eps)).raw_rate
            assert abs(got - (0.5 * math.log(math.pi * math.e) - 1.0)) <= 1e-12

    @pytest.mark.parametrize("src", [LAP, GAU], ids=["laplacian", "gaussian"])
    @pytest.mark.parametrize("eps", [1e103, 1e200, 1e300])
    def test_finite_at_huge_bands(self, src, eps):
        # the kernel variance's eps^3 overflowed at eps = 1e103; with Var g ~
        # eps^2/3 the bound at s = -1 tends to (1/2) log(2 pi e / 3) - log 2
        got = gaussian_entropy_bound(src, -1.0, EpsilonLoss(eps)).raw_rate
        assert abs(got - (0.5 * math.log(2.0 * math.pi * math.e / 3.0) - math.log(2.0))) <= 1e-12

    def test_nonnegative_even_at_weak_slopes(self):
        # the max-entropy replacement keeps this bound >= 0 for every slope
        pt = gaussian_entropy_bound(GAU, -0.01, EpsilonLoss(0.1))
        assert pt.raw_rate >= 0.0
        assert not pt.clamped

    def test_clamp_machinery_flags_negative_values(self):
        from rdbounds.bounds import _rate_point

        pt = _rate_point(1.0, -0.25, -2.0)
        assert pt.r == 0.0 and pt.raw_rate == -0.25 and pt.clamped
        pt = _rate_point(1.0, 0.25, -2.0)
        assert pt.r == 0.25 and not pt.clamped


class TestAnalyticUpperBound:
    def test_dominates_convolution_bound_in_both_regimes(self):
        loss = EpsilonLoss(0.1)
        for s in (-0.5, -2.0, -10.0, -100.0):
            ru = convolution_upper_bound(LAP, s, loss)
            rau = analytic_upper_bound_laplacian(s, ALPHA, loss)
            assert ru.raw_rate <= rau.raw_rate + 1e-9

    def test_band_floor_constant_limit(self):
        # c_s tends to 1 - exp(-2 alpha eps) as |s| grows
        loss = EpsilonLoss(0.1)
        c_s, _, _ = laplacian_upper_bound_terms(-1e12, ALPHA, loss)
        assert c_s == pytest.approx(1.0 - math.exp(-2.0 * ALPHA * 0.1), abs=1e-6)
        assert c_s > 0.0

    @pytest.mark.parametrize("eps", [0.01, 0.02, 0.05])
    def test_small_distortion_gap(self, eps):
        loss = EpsilonLoss(eps)
        s = -1e6
        rau = analytic_upper_bound_laplacian(s, ALPHA, loss)
        slb = shannon_lower_bound(rau.d, H_LAP, loss)
        assert 0.0 < rau.raw_rate - slb <= 0.6 * (ALPHA * eps) ** 2

    @pytest.mark.parametrize("eps", [0.0, 0.1, 1.0])
    def test_terms_match_exact_arithmetic(self, eps):
        # the textbook form, c_s = 2 + c1 (1 + e2) with c1 = s / (alpha - s),
        # in exact arithmetic on the same floats s, alpha and e2; in floating
        # point it cancels as c1 -> -1 and overflows to inf / inf past ~1e154
        a, e2 = Fraction(ALPHA), Fraction(math.exp(-2.0 * ALPHA * eps))
        m1 = (1 + a * Fraction(eps)) / (a * a)
        for s in -np.geomspace(1e-2, 1e300, 61):
            x = Fraction(float(s))
            c1 = x / (a - x)
            quad = x * x - 2 * a * x + 2 * a * a
            want = (2 + c1 * (1 + e2),
                    c1 * e2 / a + quad / (a * x * (x - a)),
                    c1 * m1 * e2 + (2 * a - m1 * x * quad) / ((a - x) * x * x))
            got = laplacian_upper_bound_terms(float(s), ALPHA, EpsilonLoss(eps))
            for g, w in zip(got, want):
                assert abs(Fraction(g) - w) <= Fraction(4e-16) * abs(w)

    @pytest.mark.parametrize("eps", [0.0, 0.1])
    def test_finite_at_steep_slopes(self, eps):
        loss = EpsilonLoss(eps)
        for s in (-40.0, -1e16, -1e154, -1e300):
            pt = analytic_upper_bound_laplacian(s, ALPHA, loss)
            assert math.isfinite(pt.raw_rate)
            if pt.d > 0.0:
                assert pt.raw_rate >= shannon_lower_bound(pt.d, H_LAP, loss) - 1e-12

    def test_continuous_through_matched_slope(self):
        pts = [analytic_upper_bound_laplacian(s, ALPHA, EpsilonLoss(0.1)) for s in MATCHED]
        rates = np.array([pt.raw_rate for pt in pts])
        assert np.all(np.isfinite(rates))
        assert not any(pt.clamped for pt in pts)
        assert np.max(np.abs(rates[1:] - rates[0])) <= 1e-8


class TestStrictnessValue:
    def test_matched_slope_value(self):
        u = ALPHA * 0.1
        want = 1.0 - math.log(1.0 + u) - 1.0 / (1.0 + u)
        got = slb_at_matched_slope(ALPHA, EpsilonLoss(0.1))
        assert got == pytest.approx(want, rel=1e-14)
        assert got == pytest.approx(-0.0083749, abs=1e-6)

    @pytest.mark.parametrize("u", [1e-3, 0.1, 1.0, 10.0])
    def test_negative_for_positive_band(self, u):
        assert slb_at_matched_slope(u, EpsilonLoss(1.0)) < 0.0

    def test_vanishes_with_band(self):
        assert abs(slb_at_matched_slope(ALPHA, EpsilonLoss(1e-9))) < 1e-12
