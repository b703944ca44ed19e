"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report including measured slacks and runtimes.
"""

import math
import time

import numpy as np
import pytest

import rdbounds as rb

import oracles

ALPHA = math.sqrt(2.0)
EPS = 0.1
LAP = rb.Laplacian(ALPHA)
GAU = rb.Gaussian(1.0)
LOSS = rb.EpsilonLoss(EPS)


def report(name, ok, budget, elapsed, detail):
    status = "PASS" if ok else "FAIL"
    print(f"{status} {name} [{elapsed:.2f}s / budget {budget:.0f}s] {detail}")
    assert ok, f"{name}: {detail}"
    assert elapsed < budget, f"{name}: runtime {elapsed:.2f}s exceeded {budget:.0f}s"


def test_criterion_1_laplacian_endpoints():
    t0 = time.perf_counter()
    root = rb.slb_zero(LAP, LOSS)
    d_eps = LAP.d_max(LOSS)
    d_zero = LAP.d_max(rb.EpsilonLoss(0.0))
    elapsed = time.perf_counter() - t0
    ok = (
        abs(root - 0.6136) <= 5e-4
        and abs(d_eps - 0.6139) <= 5e-4
        and abs(d_zero - 0.7071) <= 5e-4
        and root < d_eps < d_zero
    )
    report("criterion 1 (Laplacian endpoints)", ok, 1.0, elapsed,
           f"slb_zero={root:.6f} d_max_eps={d_eps:.6f} d_max_zero={d_zero:.6f}")


def test_criterion_2_gaussian_endpoints():
    t0 = time.perf_counter()
    root = rb.slb_zero(GAU, LOSS)
    d_eps = GAU.d_max(LOSS)
    d_zero = GAU.d_max(rb.EpsilonLoss(0.0))
    elapsed = time.perf_counter() - t0
    ok = (
        abs(root - 0.6662) <= 5e-4
        and abs(d_eps - 0.7019) <= 5e-4
        and abs(d_zero - math.sqrt(2.0 / math.pi)) <= 5e-4
        and abs(d_zero - 0.7979) <= 5e-4
        and root < d_eps < d_zero
    )
    report("criterion 2 (Gaussian endpoints)", ok, 1.0, elapsed,
           f"slb_zero={root:.6f} d_max_eps={d_eps:.6f} d_max_zero={d_zero:.6f}")


def test_criterion_3_exact_absolute_error_curve():
    t0 = time.perf_counter()
    loss0 = rb.EpsilonLoss(0.0)
    worst = 0.0
    for s in (-2.0, -4.0, -8.0, -16.0):
        problem = rb.build_problem(LAP, loss0, s, n=2001)
        result = rb.ba_iterate(problem, tol=1e-10, max_iter=20_000)
        worst = max(worst, abs(result.rate + math.log(ALPHA * result.distortion)))
    elapsed = time.perf_counter() - t0
    report("criterion 3 (exact curve at eps=0)", worst < 2e-2, 120.0, elapsed,
           f"max |R_BA + log(alpha D_BA)| = {worst:.4f}")


def test_criterion_4_sandwich():
    t0 = time.perf_counter()
    s_grid = -np.geomspace(0.5, 200.0, 20)
    worst_lower = -math.inf
    worst_upper = -math.inf
    worst_ge = -math.inf
    worst_au = -math.inf
    for source in (LAP, GAU):
        h_p = source.differential_entropy()
        for s in s_grid:
            problem = rb.build_problem(source, LOSS, s, n=2001)
            result = rb.ba_iterate(problem, tol=1e-10, max_iter=20_000)
            d_s = rb.distortion_of_slope(s, LOSS)
            slb = rb.shannon_lower_bound(d_s, h_p, LOSS)
            ru = rb.convolution_upper_bound(source, s, LOSS)
            rge = rb.gaussian_entropy_bound(source, s, LOSS)
            worst_lower = max(worst_lower, slb - result.rate)
            worst_upper = max(worst_upper, result.rate - ru.r)
            worst_ge = max(worst_ge, ru.raw_rate - rge.raw_rate)
            if source is LAP:
                rau = rb.analytic_upper_bound_laplacian(s, ALPHA, LOSS)
                worst_au = max(worst_au, ru.raw_rate - rau.raw_rate)
    elapsed = time.perf_counter() - t0
    ok = (
        worst_lower <= 2e-2
        and worst_upper <= 2e-2
        and worst_ge <= 1e-9
        and worst_au <= 1e-9
    )
    report("criterion 4 (sandwich)", ok, 300.0, elapsed,
           f"slb-R_BA<={worst_lower:+.4f} R_BA-R_U<={worst_upper:+.4f} "
           f"R_U-R_GE<={worst_ge:+.2e} R_U-R_AU<={worst_au:+.2e}")


def test_criterion_5_laplacian_small_distortion():
    t0 = time.perf_counter()
    details = []
    ok = True
    for eps in (0.01, 0.02, 0.05):
        loss = rb.EpsilonLoss(eps)
        rau = rb.analytic_upper_bound_laplacian(-1e6, ALPHA, loss)
        slb = rb.shannon_lower_bound(rau.d, LAP.differential_entropy(), loss)
        gap = rau.raw_rate - slb
        ok = ok and 0.0 < gap <= 0.6 * (ALPHA * eps) ** 2
        details.append(f"eps={eps}: gap={gap:.3e} cap={0.6 * (ALPHA * eps) ** 2:.3e}")
    elapsed = time.perf_counter() - t0
    report("criterion 5 (Laplacian small-distortion gap)", ok, 1.0, elapsed,
           "; ".join(details))


def test_criterion_6_gaussian_small_distortion():
    t0 = time.perf_counter()
    rge = rb.gaussian_entropy_bound(GAU, -1e6, LOSS)
    slb = rb.shannon_lower_bound(rge.d, GAU.differential_entropy(), LOSS)
    gap = rge.raw_rate - slb
    analytic = 0.5 * math.log1p(EPS**2 / 3.0)
    elapsed = time.perf_counter() - t0
    ok = abs(gap - analytic) <= 1e-6 and gap <= EPS**2 / 6.0
    report("criterion 6 (Gaussian small-distortion gap)", ok, 1.0, elapsed,
           f"gap={gap:.8f} analytic={analytic:.8f} cap={EPS**2 / 6.0:.8f}")


def test_criterion_7_strictness_certificates():
    t0 = time.perf_counter()
    k = rb.first_witness_index(ALPHA, -5.0, LOSS, threshold=1.0)
    witness_ok = rb.laplacian_witness(ALPHA, -5.0, LOSS, k) > 1.0
    matched = rb.slb_at_matched_slope(ALPHA, LOSS)
    # sigma2 = 0.5 keeps the negative dip of the deconvolution transform above
    # the 1e-6 detection threshold at s = -5 (the dip is ~2.7e-8 at sigma2 = 1)
    sigma2 = 0.5
    x_min = math.sqrt(sigma2 * (25.0 * sigma2 + 3.0))
    dip = rb.gaussian_deconvolution_density(x_min, sigma2, -5.0)
    strict_at_unit = min(
        rb.gaussian_deconvolution_density(math.sqrt(1.0 * (s * s + 3.0)), 1.0, s)
        for s in (-1.0, -5.0, -20.0)
    )
    elapsed = time.perf_counter() - t0
    ok = witness_ok and matched < 0.0 and dip < -1e-6 and strict_at_unit < 0.0
    report("criterion 7 (strictness certificates)", ok, 1.0, elapsed,
           f"k={k} slb(-alpha)={matched:.6f} dip(s=-5,sigma2=0.5)={dip:.2e}")


def test_criterion_8_closed_form_vs_quadrature():
    t0 = time.perf_counter()
    worst = {"norm": 0.0, "entropy": 0.0, "distortion": 0.0, "variance": 0.0,
             "cf": 0.0, "conv": 0.0}
    for s in (-0.1, -1.0, -10.0, -100.0):
        for eps in (0.0, 0.01, 0.1, 1.0):
            loss = rb.EpsilonLoss(eps)
            worst["norm"] = max(worst["norm"], abs(oracles.tilted_norm_quad(s, eps) - 1.0))
            worst["entropy"] = max(worst["entropy"], abs(
                rb.tilted_entropy(s, loss) - oracles.tilted_entropy_quad(s, eps)))
            worst["distortion"] = max(worst["distortion"], abs(
                rb.distortion_of_slope(s, loss) - oracles.tilted_distortion_quad(s, eps)))
            worst["variance"] = max(worst["variance"], abs(
                rb.tilted_variance(s, loss) - oracles.tilted_variance_quad(s, eps)))
    for s in (-1.0, -5.0, -20.0):
        for eps in (0.05, 0.1, 0.5):
            loss = rb.EpsilonLoss(eps)
            for omega in (0.3, 1.0, 3.7, 10.0):
                worst["cf"] = max(worst["cf"], abs(
                    rb.tilted_cf(omega, s, loss) - oracles.cosine_transform_quad(s, eps, omega)))
    for s in (-0.5, -ALPHA, -3.0, -20.0):
        for eps in (0.05, 0.1, 0.5):
            loss = rb.EpsilonLoss(eps)
            for y in (0.0, eps, 2 * eps, 1.0):
                worst["conv"] = max(worst["conv"], abs(
                    rb.laplacian_conv_pdf(y, s, ALPHA, loss)
                    - oracles.conv_quad(LAP.pdf, s, eps, y)))
    elapsed = time.perf_counter() - t0
    tols = {"norm": 1e-10, "entropy": 1e-8, "distortion": 1e-9, "variance": 1e-9,
            "cf": 1e-7, "conv": 1e-9}
    ok = all(worst[k] <= tols[k] for k in tols)
    report("criterion 8 (closed form vs quadrature)", ok, 30.0, elapsed,
           " ".join(f"{k}={worst[k]:.2e}" for k in sorted(worst)))


def test_criterion_9_ba_internal_checks():
    t0 = time.perf_counter()
    # objective monotone on representative runs
    violations = 0
    max_rise = 0.0
    for source in (LAP, GAU):
        for s in (-1.0, -5.0, -20.0):
            result = rb.ba_iterate(rb.build_problem(source, LOSS, s, n=1001),
                                   tol=1e-10, max_iter=10_000)
            violations += result.objective_violations
            max_rise = max(max_rise, result.max_objective_rise)
    # grid doubling 1001 -> 2001
    drift = 0.0
    for source in (LAP, GAU):
        for s in (-1.0, -5.0, -20.0):
            coarse = rb.ba_iterate(rb.build_problem(source, LOSS, s, n=1001),
                                   tol=1e-10, max_iter=15_000)
            fine = rb.ba_iterate(rb.build_problem(source, LOSS, s, n=2001),
                                 tol=1e-10, max_iter=15_000)
            drift = max(drift, abs(coarse.distortion - fine.distortion),
                        abs(coarse.rate - fine.rate))
    # finite-difference slope between well-separated points; all slopes must
    # sit on the strictly-curved branch (steeper than the zero-rate corner at
    # ~-1.43), where the tangent-slope interpretation applies
    pts = [(s, rb.ba_iterate(rb.build_problem(LAP, LOSS, s, n=1001), tol=1e-10,
                             max_iter=20_000))
           for s in (-2.0, -4.0, -8.0, -16.0)]  # by rising |s|
    worst_slope = 0.0
    for (sa, a), (sb, b) in zip(pts[:-1], pts[1:]):
        chord = (b.rate - a.rate) / (b.distortion - a.distortion)
        s_mid = -math.sqrt(sa * sb)
        worst_slope = max(worst_slope, abs(chord - s_mid) / abs(s_mid))
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and max_rise <= 1e-12 and drift < 5e-3 and worst_slope <= 0.10
    report("criterion 9 (BA internal checks)", ok, 300.0, elapsed,
           f"violations={violations} rise={max_rise:.1e} grid_drift={drift:.2e} "
           f"slope_dev={worst_slope:.3f}")
