import inspect
import math
import re
import warnings

import numpy as np
import pytest

from rdbounds import (
    EpsilonLoss,
    Gaussian,
    Laplacian,
    Tabulated,
    bounds,
    convolution,
    distortion_of_slope,
    gaussian_deconvolution_density,
    normalizer,
    shannon_lower_bound,
    slope_of_distortion,
    spectral,
    tilted,
    tilted_entropy,
    tilted_pdf,
    tilted_variance,
    trivial_upper_bound_laplacian,
)

import oracles

S_GRID = [-0.1, -1.0, -10.0, -100.0]
EPS_GRID = [0.0, 0.01, 0.1, 1.0]


class TestLoss:
    def test_values(self):
        assert EpsilonLoss(0.1)(0.05) == 0.0
        assert EpsilonLoss(0.1)(0.3) == pytest.approx(0.2, abs=1e-15)
        assert EpsilonLoss(0.0)(-1.5) == 1.5

    def test_even_and_continuous(self):
        loss = EpsilonLoss(0.25)
        z = np.linspace(-3, 3, 601)
        assert np.array_equal(loss(z), loss(-z))
        assert loss(0.25) == 0.0
        assert loss(0.25 + 1e-12) == pytest.approx(1e-12, abs=1e-14)

    def test_validation(self):
        with pytest.raises(ValueError):
            EpsilonLoss(-0.1)
        with pytest.raises(ValueError):
            EpsilonLoss(math.nan)


class TestNormalizer:
    def test_values(self):
        assert normalizer(-1.0, EpsilonLoss(0.0)) == pytest.approx(2.0, rel=1e-15)
        assert normalizer(-2.0, EpsilonLoss(0.5)) == pytest.approx(2.0, rel=1e-15)
        assert normalizer(-2.0, EpsilonLoss(0.1)) == pytest.approx(1.2, rel=1e-15)

    def test_finite_where_the_slope_band_product_overflows(self):
        # |s| eps = 1e312 is past the float range, but C(s) ~ 2 eps is not
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert normalizer(-1e300, EpsilonLoss(1e12)) == 2e12

    @pytest.mark.parametrize("s", [0.0, 1.0, math.inf, math.nan])
    def test_domain(self, s):
        with pytest.raises(ValueError):
            normalizer(s, EpsilonLoss(0.1))


class TestPdf:
    def test_flat_top(self):
        assert tilted_pdf(0.0, -1.0, EpsilonLoss(0.5)) == pytest.approx(1.0 / 3.0, rel=1e-15)

    @pytest.mark.parametrize("s", S_GRID)
    def test_boundary_continuity(self, s):
        loss = EpsilonLoss(0.2)
        c = normalizer(s, loss)
        assert tilted_pdf(0.2, s, loss) == pytest.approx(1.0 / c, rel=1e-14)
        assert tilted_pdf(-0.2, s, loss) == pytest.approx(1.0 / c, rel=1e-14)

    @pytest.mark.parametrize("s", S_GRID)
    @pytest.mark.parametrize("eps", EPS_GRID)
    def test_normalization(self, s, eps):
        assert oracles.tilted_norm_quad(s, eps) == pytest.approx(1.0, abs=1e-10)

    def test_laplace_reduction_at_eps_zero(self):
        x = np.linspace(-5, 5, 401)
        for s in S_GRID:
            laplace = 0.5 * abs(s) * np.exp(s * np.abs(x))
            assert np.max(np.abs(tilted_pdf(x, s, EpsilonLoss(0.0)) - laplace)) < 1e-12


class TestEntropy:
    def test_values(self):
        assert tilted_entropy(-1.0, EpsilonLoss(0.0)) == pytest.approx(math.log(2) + 1, rel=1e-15)
        assert tilted_entropy(-2.0, EpsilonLoss(0.5)) == pytest.approx(math.log(2) + 0.5, rel=1e-15)

    @pytest.mark.parametrize("s", S_GRID)
    @pytest.mark.parametrize("eps", EPS_GRID)
    def test_against_quadrature(self, s, eps):
        assert tilted_entropy(s, EpsilonLoss(eps)) == pytest.approx(
            oracles.tilted_entropy_quad(s, eps), abs=1e-8
        )


class TestDistortionMap:
    def test_values(self):
        assert distortion_of_slope(-1.0, EpsilonLoss(0.0)) == pytest.approx(1.0, rel=1e-15)
        assert distortion_of_slope(-2.0, EpsilonLoss(0.5)) == pytest.approx(0.25, rel=1e-15)

    @pytest.mark.parametrize("s", S_GRID)
    @pytest.mark.parametrize("eps", EPS_GRID)
    def test_against_quadrature(self, s, eps):
        assert distortion_of_slope(s, EpsilonLoss(eps)) == pytest.approx(
            oracles.tilted_distortion_quad(s, eps), abs=1e-9
        )

    def test_strictly_decreasing_in_slope_magnitude(self):
        loss = EpsilonLoss(0.1)
        mags = np.geomspace(1e-3, 1e3, 100)
        ds = [distortion_of_slope(-m, loss) for m in mags]
        assert all(a > b for a, b in zip(ds[:-1], ds[1:]))

    def test_inverse_values(self):
        assert slope_of_distortion(1.0, EpsilonLoss(0.0)) == pytest.approx(-1.0, rel=1e-15)
        assert slope_of_distortion(0.25, EpsilonLoss(0.5)) == pytest.approx(-2.0, rel=1e-15)
        # d (d + 4 eps) would overflow; -1/d is the limit of the slope
        assert slope_of_distortion(1e200, EpsilonLoss(0.1)) == pytest.approx(-1e-200, rel=1e-15)

    @pytest.mark.parametrize("eps", [0.0, 0.01, 0.1, 1.0])
    def test_roundtrip(self, eps):
        loss = EpsilonLoss(eps)
        for d in np.geomspace(1e-4, 1e2, 50):
            back = distortion_of_slope(slope_of_distortion(d, loss), loss)
            assert abs(back - d) / d < 1e-12

    def test_domain(self):
        with pytest.raises(ValueError):
            slope_of_distortion(0.0, EpsilonLoss(0.1))
        with pytest.raises(ValueError):
            slope_of_distortion(-1.0, EpsilonLoss(0.1))
        with pytest.raises(ValueError):
            distortion_of_slope(2.0, EpsilonLoss(0.1))


class TestVariance:
    def test_laplace_value(self):
        assert tilted_variance(-2.0, EpsilonLoss(0.0)) == pytest.approx(0.5, rel=1e-15)

    def test_large_slope_limit(self):
        # variance tends to eps^2 / 3 as |s| grows
        eps = 0.3
        assert tilted_variance(-1e9, EpsilonLoss(eps)) == pytest.approx(eps**2 / 3.0, abs=1e-8)

    @pytest.mark.parametrize("eps", [0.0, 0.1])
    def test_tiny_slopes_give_two_over_s_squared(self, eps):
        # the closed form's terms overflow below |s| ~ 2.2e-103 and s^2
        # underflows to 0 below ~1.6e-162; the variance 2/s^2 is finite to
        # |s| ~ 1e-154 and inf past it, never an error
        for s in (-1e-120, -1e-150):
            assert tilted_variance(s, EpsilonLoss(eps)) == pytest.approx(2.0 / s / s, rel=1e-15)
        for s in (-1e-160, -1e-200, -5e-324):
            assert tilted_variance(s, EpsilonLoss(eps)) == math.inf

    def test_huge_band_gives_its_value(self):
        # eps^3 overflowed at eps = 1e103, although Var g ~ eps^2/3 is finite
        assert tilted_variance(-1.0, EpsilonLoss(1e103)) == pytest.approx(1e206 / 3.0, rel=1e-15)

    def test_against_quadrature(self):
        assert tilted_variance(-3.0, EpsilonLoss(0.2)) == pytest.approx(
            oracles.tilted_variance_quad(-3.0, 0.2), abs=1e-9
        )


class TestPositiveParameters:
    """Every parameter that must be a finite positive real is refused, by name."""

    CALLS = {
        "Laplacian": ("alpha", lambda v: Laplacian(alpha=v)),
        "Gaussian": ("sigma2", lambda v: Gaussian(sigma2=v)),
        "shannon_lower_bound": ("distortion",
                                lambda v: shannon_lower_bound(v, 1.0, EpsilonLoss(0.1))),
        "trivial_upper_bound_laplacian": ("distortion",
                                          lambda v: trivial_upper_bound_laplacian(v, 1.0)),
        "slope_of_distortion": ("distortion", lambda v: slope_of_distortion(v, EpsilonLoss(0.1))),
        "gaussian_deconvolution_density": ("sigma2",
                                           lambda v: gaussian_deconvolution_density(0.5, v, -2.0)),
    }
    # every public function that takes a bare alpha (here with a valid slope
    # |s| > 1 and band), which at alpha = -1 gave plausible numbers, not errors
    ALPHA_CALLS = {
        "analytic_upper_bound_laplacian": lambda v: bounds.analytic_upper_bound_laplacian(
            -5.0, v, EpsilonLoss(0.1)),
        "laplacian_upper_bound_terms": lambda v: bounds.laplacian_upper_bound_terms(
            -5.0, v, EpsilonLoss(0.1)),
        "trivial_upper_bound_laplacian": lambda v: trivial_upper_bound_laplacian(0.5, v),
        "slb_at_matched_slope": lambda v: bounds.slb_at_matched_slope(v, EpsilonLoss(0.1)),
        "laplacian_dmax_gaps": lambda v: bounds.laplacian_dmax_gaps(v, EpsilonLoss(0.1)),
        "laplacian_witness": lambda v: spectral.laplacian_witness(v, -5.0, EpsilonLoss(0.1), 1),
        "first_witness_index": lambda v: spectral.first_witness_index(v, -5.0, EpsilonLoss(0.1)),
        "laplacian_conv_pdf": lambda v: convolution.laplacian_conv_pdf(
            [0.0, 1.0], -5.0, v, EpsilonLoss(0.1)),
    }
    CALLS.update({f"{callee}-alpha": ("alpha", call) for callee, call in ALPHA_CALLS.items()})

    @pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf])
    @pytest.mark.parametrize("callee", sorted(CALLS))
    def test_refused_with_its_name(self, callee, value):
        name, call = self.CALLS[callee]
        want = f"{name} must be a finite positive real, got {value!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
            call(value)

    def test_every_public_alpha_is_covered(self):
        assert set(self.ALPHA_CALLS) == set(_public_taking(("alpha",)))


def _public_taking(params):
    """Names of the public functions of tilted, bounds, spectral and convolution
    with a parameter named in params."""
    return [name for module in (tilted, bounds, spectral, convolution) for name in module.__all__
            if inspect.isfunction(fn := getattr(module, name))
            and set(params) & set(inspect.signature(fn).parameters)]


LOSS = EpsilonLoss(0.1)
TAB = Tabulated(np.array([-1.0, 0.0, 1.0]), np.array([0.25, 0.5, 0.25]))


class TestSlopeParameters:
    """Every public function that takes a slope refuses one that is not a
    finite negative real, with the slope message, at its entry check."""

    CALLS = {
        "normalizer": lambda s: normalizer(s, LOSS),
        "tilted_pdf": lambda s: tilted_pdf([0.0, 1.0], s, LOSS),
        "tilted_entropy": lambda s: tilted_entropy(s, LOSS),
        "tilted_variance": lambda s: tilted_variance(s, LOSS),
        "distortion_of_slope": lambda s: distortion_of_slope(s, LOSS),
        "convolution_upper_bounds": lambda s: bounds.convolution_upper_bounds(
            Laplacian(1.0), [-1.0, s], LOSS),
        "convolution_upper_bound": lambda s: bounds.convolution_upper_bound(
            Gaussian(1.0), s, LOSS),
        "gaussian_entropy_bound": lambda s: bounds.gaussian_entropy_bound(Gaussian(1.0), s, LOSS),
        "laplacian_upper_bound_terms": lambda s: bounds.laplacian_upper_bound_terms(s, 1.0, LOSS),
        "analytic_upper_bound_laplacian": lambda s: bounds.analytic_upper_bound_laplacian(
            s, 1.0, LOSS),
        "laplace_cf": lambda s: spectral.laplace_cf([0.0, 1.0], s),
        "mixture_cf": lambda s: spectral.mixture_cf([0.0, 1.0], s, LOSS),
        "tilted_cf": lambda s: spectral.tilted_cf([0.0, 1.0], s, LOSS),
        "laplacian_witness": lambda s: spectral.laplacian_witness(1.0, s, LOSS, 1),
        "first_witness_index": lambda s: spectral.first_witness_index(1.0, s, LOSS),
        "gaussian_deconvolution_density": lambda s: gaussian_deconvolution_density(0.5, 1.0, s),
        "laplacian_conv_pdf": lambda s: convolution.laplacian_conv_pdf(
            [0.0, 1.0], [-1.0, s], 1.0, LOSS),
        "conv_pdf-laplacian": lambda s: convolution.conv_pdf(Laplacian(1.0), s, LOSS, [0.0, 1.0]),
        "conv_pdf-gaussian": lambda s: convolution.conv_pdf(
            Gaussian(1.0), [-1.0, s], LOSS, [0.0, 1.0]),
        "conv_pdf-tabulated": lambda s: convolution.conv_pdf(TAB, s, LOSS, [0.0, 1.0]),
        "conv_entropies": lambda s: convolution.conv_entropies(TAB, [-1.0, s], LOSS),
    }

    @pytest.mark.parametrize("value", [0.0, 0.5, math.nan, -math.inf])
    @pytest.mark.parametrize("callee", sorted(CALLS))
    def test_refused_with_the_slope_message(self, callee, value):
        want = f"slope s must be a finite negative real, got {value!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
            self.CALLS[callee](value)

    def test_every_public_slope_is_covered(self):
        assert {callee.split("-")[0] for callee in self.CALLS} == set(
            _public_taking(("s", "slopes")))
