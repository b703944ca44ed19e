import math

import numpy as np
import pytest

from rdbounds import (
    EpsilonLoss,
    distortion_of_slope,
    normalizer,
    slope_of_distortion,
    tilted_cdf,
    tilted_entropy,
    tilted_pdf,
    tilted_variance,
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

    def test_against_quadrature(self):
        assert tilted_variance(-3.0, EpsilonLoss(0.2)) == pytest.approx(
            oracles.tilted_variance_quad(-3.0, 0.2), abs=1e-9
        )


class TestCdf:
    @pytest.mark.parametrize("s,eps", [(-1.0, 0.1), (-6.0, 0.5), (-50.0, 0.0)])
    def test_against_quadrature(self, s, eps):
        loss = EpsilonLoss(eps)
        for t in (-2.0, -eps, 0.0, eps / 2, eps, 1.3):
            want = oracles.tilted_quad(s, eps, lambda x, t=t: 1.0 if x <= t else 0.0)
            assert tilted_cdf(t, s, loss) == pytest.approx(want, abs=1e-9)

    def test_limits(self):
        loss = EpsilonLoss(0.2)
        assert tilted_cdf(-1e6, -1.0, loss) == pytest.approx(0.0, abs=1e-200)
        assert tilted_cdf(1e6, -1.0, loss) == pytest.approx(1.0, rel=1e-15)

    @pytest.mark.parametrize("s,eps", [(-0.5, 0.1), (-200.0, 3.0), (-5.0, 0.0)])
    def test_branches_match_the_where_form(self, s, eps):
        # the three closed-form branches evaluated on every lane and picked by
        # np.where, the lower tail first; the CDF computes each only on its own
        # lanes, which must not change a single bit
        b, c = abs(s), 2.0 * (1.0 + abs(s) * eps) / abs(s)
        t = np.concatenate([np.linspace(-eps - 2.0, eps + 2.0, 2001), [-eps, eps, 0.0, 40.0]])
        with np.errstate(over="ignore"):
            lo = np.exp(np.minimum(b * (t + eps), 0.0)) / (b * c)
            hi = 1.0 - np.exp(np.minimum(-b * (t - eps), 0.0)) / (b * c)
        want = np.where(t <= -eps, lo, np.where(t >= eps, hi, 1.0 / (b * c) + (t + eps) / c))
        np.testing.assert_array_equal(tilted_cdf(t, s, EpsilonLoss(eps)), want)
        assert tilted_cdf(t[3], s, EpsilonLoss(eps)) == want[3]
