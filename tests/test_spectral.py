import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate

from rdbounds import (
    EpsilonLoss,
    first_witness_index,
    gaussian_deconvolution_density,
    laplace_cf,
    laplacian_witness,
    mixture_cf,
    tilted_cf,
)
from rdbounds import spectral

import oracles

ALPHA = math.sqrt(2.0)
SRC = str(Path(spectral.__file__).resolve().parents[1])


class TestLaplaceCf:
    def test_anchors(self):
        assert laplace_cf(0.0, -3.0) == 1.0
        assert laplace_cf(3.0, -3.0) == pytest.approx(0.5, rel=1e-15)

    def test_even(self):
        w = np.linspace(0.0, 50.0, 101)
        assert np.array_equal(laplace_cf(w, -2.0), laplace_cf(-w, -2.0))


class TestMixtureCf:
    def test_anchors(self):
        loss = EpsilonLoss(0.5)
        assert mixture_cf(0.0, -2.0, loss) == pytest.approx(1.0, rel=1e-15)

    def test_quarter_period_nodes(self):
        # cos term vanishes and the sinc term hits its -1/(omega eps) envelope
        s, eps = -2.0, 0.5
        loss = EpsilonLoss(eps)
        for k in (1, 2, 5):
            omega = (2 * k - 0.5) * math.pi / eps
            want = -eps * abs(s) / ((2 * k - 0.5) * math.pi * (1.0 + eps * abs(s)))
            assert mixture_cf(omega, s, loss) == pytest.approx(want, rel=1e-12)

    def test_identity_at_zero_band(self):
        loss = EpsilonLoss(0.0)
        for omega in (0.0, 0.5, 17.3):
            assert mixture_cf(omega, -4.0, loss) == 1.0

    def test_series_branch_is_smooth(self):
        loss = EpsilonLoss(0.1)
        lo = mixture_cf(9.99e-4, -2.0, loss)
        hi = mixture_cf(1.01e-3, -2.0, loss)
        assert lo == pytest.approx(hi, abs=1e-9)

    def test_sinc_against_libm(self):
        # one value at a time and as one array; numpy's SIMD sin may round an
        # ulp apart from libm's
        u = [v for m in (0.0, 5e-324, 1e-300, 1e-8, 1e-4, 1.0, 50.0) for v in (m, -m)]
        want = [1.0 if v == 0.0 else math.sin(v) / v for v in u]
        for got in ([float(spectral._sinc(v)) for v in u], spectral._sinc(np.array(u))):
            assert all(abs(g - w) <= 2.0 * math.ulp(w) for g, w in zip(got, want))


class TestTiltedCf:
    def test_axioms(self):
        loss = EpsilonLoss(0.1)
        w = np.linspace(-500.0, 500.0, 1001)
        vals = tilted_cf(w, -3.0, loss)
        assert tilted_cf(0.0, -3.0, loss) == 1.0
        assert np.max(np.abs(vals)) <= 1.0 + 1e-15
        assert np.max(np.abs(vals - tilted_cf(-w, -3.0, loss))) < 1e-14

    def test_factorization_is_exact(self):
        loss = EpsilonLoss(0.3)
        w = np.linspace(-40, 40, 201)
        prod = laplace_cf(w, -7.0) * mixture_cf(w, -7.0, loss)
        assert np.array_equal(prod, tilted_cf(w, -7.0, loss))

    @pytest.mark.parametrize("s", [-1.0, -5.0, -20.0])
    @pytest.mark.parametrize("eps", [0.05, 0.1, 0.5])
    def test_against_cosine_transform(self, s, eps):
        loss = EpsilonLoss(eps)
        for omega in (0.3, 1.0, 3.7, 10.0):
            want = oracles.cosine_transform_quad(s, eps, omega)
            assert tilted_cf(omega, s, loss) == pytest.approx(want, abs=1e-7)

    def test_convolution_identity(self):
        # the kernel equals Laplace(|s|) convolved with the delta/uniform mixture;
        # transform that convolution numerically and compare with the product CF
        s, eps = -3.0, 0.2
        b = abs(s)
        w_delta = 1.0 / (1.0 + eps * b)

        def laplace_pdf(x):
            return 0.5 * b * np.exp(-b * np.abs(x))

        def laplace_cdf(x):
            x = np.asarray(x, dtype=float)
            return np.where(x < 0, 0.5 * np.exp(-b * np.abs(x)), 1.0 - 0.5 * np.exp(-b * x))

        def mix_conv(x):
            deltas = 0.5 * (laplace_pdf(x - eps) + laplace_pdf(x + eps))
            uniform = (laplace_cdf(x + eps) - laplace_cdf(x - eps)) / (2.0 * eps)
            return w_delta * deltas + (1.0 - w_delta) * uniform

        for omega in (0.5, 2.0, 7.0):
            val, _ = integrate.quad(
                lambda x: mix_conv(x) * math.cos(omega * x), 0.0, eps + 45.0 / b,
                points=[eps], weight=None, limit=400, epsabs=1e-10, epsrel=1e-10,
            )
            loss = EpsilonLoss(eps)
            assert 2.0 * val == pytest.approx(tilted_cf(omega, s, loss), abs=1e-6)


class TestWitness:
    def test_first_index_value(self):
        loss = EpsilonLoss(0.1)
        want = (2.0 / 25.0) * (1.5 / 0.5) * 1.5 * math.pi
        assert laplacian_witness(ALPHA, -5.0, loss, 1) == pytest.approx(want, rel=1e-12)
        assert want > 1.0
        assert first_witness_index(ALPHA, -5.0, loss) == 1

    def test_monotone_and_unbounded(self):
        loss = EpsilonLoss(0.1)
        vals = [laplacian_witness(ALPHA, -5.0, loss, k) for k in range(1, 40)]
        assert all(b > a for a, b in zip(vals[:-1], vals[1:]))
        k_big = first_witness_index(ALPHA, -5.0, loss, threshold=1e6)
        assert laplacian_witness(ALPHA, -5.0, loss, k_big) > 1e6
        assert k_big == 1 or laplacian_witness(ALPHA, -5.0, loss, k_big - 1) <= 1e6

    @pytest.mark.parametrize("alpha, s, threshold", [
        (ALPHA, -5.0, 1.0), (ALPHA, -1.5, 1.0), (1e-3, -2.0, 1.0), (1e-6, -1.0, 1.0),
        (ALPHA, -5.0, 1e12), (1e-6, -1.0, 7.5), (1e-7, -1.0, 3.0), (1e-8, -1.0, 60.0)])
    def test_first_index_is_the_smallest(self, alpha, s, threshold):
        # k from the closed form, checked one step each way, up to k ~ 8.7e15 < 2**53
        loss = EpsilonLoss(0.1)
        k = first_witness_index(alpha, s, loss, threshold=threshold)
        assert laplacian_witness(alpha, s, loss, k) > threshold
        assert k == 1 or laplacian_witness(alpha, s, loss, k - 1) <= threshold

    def test_index_past_float_resolution_is_refused(self):
        # k ~ 1e199: a step of k no longer moves the witness, and a search by
        # steps never ended; a fresh interpreter keeps a hang from stalling the suite
        code = ("from rdbounds import EpsilonLoss, first_witness_index\n"
                "try:\n    first_witness_index(1e-100, -1.0, EpsilonLoss(0.1))\n"
                "except ValueError as exc:\n    print(exc)\n")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": SRC}, timeout=60)
        assert proc.returncode == 0 and proc.stderr == ""
        assert "2**53" in proc.stdout

    def test_requires_steep_slope_and_band(self):
        with pytest.raises(ValueError, match="alpha"):
            laplacian_witness(ALPHA, -1.0, EpsilonLoss(0.1), 1)
        with pytest.raises(ValueError, match="epsilon"):
            laplacian_witness(ALPHA, -5.0, EpsilonLoss(0.0), 1)


class TestGaussianDeconvolution:
    def test_positive_at_origin(self):
        assert gaussian_deconvolution_density(0.0, 1.0, -5.0) > 0.0

    @pytest.mark.parametrize("s", [-1.0, -5.0, -20.0])
    def test_goes_negative(self, s):
        sigma2 = 1.0
        x_min = math.sqrt(sigma2 * (s * s * sigma2 + 3.0))
        assert gaussian_deconvolution_density(x_min, sigma2, s) < 0.0

    def test_sign_flips_past_the_zero_crossing(self):
        sigma2, s = 1.0, -1.0
        edge = math.sqrt(sigma2 * (1.0 + s * s * sigma2))
        assert gaussian_deconvolution_density(0.9 * edge, sigma2, s) > 0.0
        assert gaussian_deconvolution_density(1.1 * edge, sigma2, s) < 0.0

    def test_signed_integral_is_one(self):
        for s in (-1.0, -5.0):
            val, _ = integrate.quad(
                lambda x: gaussian_deconvolution_density(x, 1.0, s), -25.0, 25.0,
                limit=400, epsabs=1e-10, epsrel=1e-10,
            )
            assert val == pytest.approx(1.0, abs=1e-8)
