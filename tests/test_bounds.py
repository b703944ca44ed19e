import math

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
    gaussian_entropy_bound,
    laplacian_conv_pdf,
    laplacian_upper_bound_terms,
    shannon_lower_bound,
    slb_at_matched_slope,
    slb_zero,
    slope_of_distortion,
    tilted_entropy,
    trivial_upper_bound_laplacian,
)
from rdbounds import convolution
from rdbounds.bounds import _lambertw0

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

    def test_domain(self):
        with pytest.raises(ValueError):
            shannon_lower_bound(0.0, H_LAP, EpsilonLoss(0.1))
        with pytest.raises(ValueError):
            shannon_lower_bound(-0.5, H_LAP, EpsilonLoss(0.1))


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

    def test_tabulated_kernel_cdf_points_per_node(self, monkeypatch):
        # a band of about 600 cells still takes the kernel CDF only at the
        # edges of the two cells that hold its ends
        src = Tabulated(np.linspace(-6.0, 6.0, 1201), np.full(1201, 1.0 / 1201))
        nodes, points = [], []
        real_pdf, real_cdf = convolution.conv_pdf, convolution.tilted_cdf

        def pdf(source, s, loss, y):
            nodes.append(np.size(y))
            return real_pdf(source, s, loss, y)

        def cdf(t, s, loss):
            points.append(np.size(t))
            return real_cdf(t, s, loss)

        monkeypatch.setattr(convolution, "conv_pdf", pdf)
        monkeypatch.setattr(convolution, "tilted_cdf", cdf)
        convolution.conv_entropy(src, -5.0, EpsilonLoss(3.0))
        assert sum(nodes) > 0
        assert sum(points) <= 4 * sum(nodes)


class TestConvolutionUpperBound:
    @pytest.mark.parametrize("src,h_p", [(LAP, H_LAP), (GAU, H_GAU)])
    def test_sits_above_lower_bound(self, src, h_p):
        loss = EpsilonLoss(0.1)
        for s in (-0.5, -2.0, -20.0, -150.0):
            pt = convolution_upper_bound(src, s, loss)
            assert pt.raw_rate >= shannon_lower_bound(pt.d, h_p, loss) - 1e-10

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

    @pytest.mark.parametrize("src", [TAB, TAB_SHIFTED], ids=["symmetric", "shifted"])
    @pytest.mark.parametrize("eps", [0.0, 0.1, 1.0])
    @pytest.mark.parametrize("s", [-0.5, -5.0, -50.0])
    def test_tabulated_matches_kink_quadrature(self, src, eps, s):
        want = oracles.ru_tabulated_quad(src.grid, src.masses, s, eps)
        assert convolution_upper_bound(src, s, EpsilonLoss(eps)).raw_rate == pytest.approx(
            want, abs=1e-10)

    def test_continuous_through_matched_slope(self):
        pts = [convolution_upper_bound(LAP, s, EpsilonLoss(0.1)) for s in MATCHED]
        rates = np.array([pt.raw_rate for pt in pts])
        assert np.all(np.isfinite(rates))
        assert not any(pt.flag or pt.clamped for pt in pts)
        assert np.max(np.abs(rates[1:] - rates[0])) <= 1e-8


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

    def test_continuous_through_matched_slope(self):
        pts = [analytic_upper_bound_laplacian(s, ALPHA, EpsilonLoss(0.1)) for s in MATCHED]
        rates = np.array([pt.raw_rate for pt in pts])
        assert np.all(np.isfinite(rates))
        assert not any(pt.flag or pt.clamped for pt in pts)
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
