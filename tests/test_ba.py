import math

import numpy as np
import pytest

from rdbounds import (
    BAProblem,
    EpsilonLoss,
    Gaussian,
    Laplacian,
    Tabulated,
    auto_span,
    ba_curve,
    ba_iterate,
    build_problem,
)

import oracles

ALPHA = math.sqrt(2.0)
LAP = Laplacian(ALPHA)
GAU = Gaussian(1.0)


class TestBuildProblem:
    def test_construction_contract(self):
        prob = build_problem(GAU, EpsilonLoss(0.1), -2.0, n=2001)
        assert prob.p_mass.sum() == pytest.approx(1.0, abs=1e-12)
        assert prob.x_grid.size == 2001
        assert prob.x_grid[1000] == 0.0
        assert GAU.tail_mass(prob.x_grid[-1]) < 1e-10

    def test_auto_span_covers_laplacian_tail(self):
        half = auto_span(LAP)
        assert half >= 16.3
        assert math.exp(-ALPHA * half) < 1e-10

    def test_rejects_even_or_tiny_n(self):
        with pytest.raises(ValueError):
            build_problem(GAU, EpsilonLoss(0.1), -2.0, n=100)
        with pytest.raises(ValueError):
            build_problem(GAU, EpsilonLoss(0.1), -2.0, n=1)

    def test_minimal_toy_problem(self):
        prob = build_problem(GAU, EpsilonLoss(0.0), -1.0, n=3)
        res = ba_iterate(prob, tol=1e-12, max_iter=5000)
        assert res.q_mass.sum() == pytest.approx(1.0, abs=1e-12)

    def test_tabulated_outer_cells_are_whole(self):
        # a uniform 11-cell source on [-1, 1]: cells of width 0.2, 1/11 each;
        # a grid that stops at the outermost grid points halves the end cells
        tab = Tabulated(np.linspace(-1.0, 1.0, 11), np.full(11, 1.0 / 11.0))
        prob = build_problem(tab, EpsilonLoss(0.1), -5.0, n=2001)
        for outer in (prob.x_grid > 0.9, prob.x_grid < -0.9):
            assert prob.p_mass[outer].sum() == pytest.approx(1.0 / 11.0, rel=1e-2)
        shifted = Tabulated(tab.grid + 0.37, tab.masses)
        prob = build_problem(shifted, EpsilonLoss(0.1), -5.0, n=2001)
        assert abs(float(np.dot(prob.p_mass, prob.x_grid)) - shifted.mean()) < 1e-3

    @pytest.mark.parametrize("grid", [[-1.0, math.nan], [-math.inf, 1.0], [-1e308, 1e308],
                                      [-1e308, 0.0, 1e308]])
    def test_rejects_non_finite_grid(self, grid):
        with pytest.raises(ValueError, match="x_grid values, steps and span must be finite"):
            BAProblem(x_grid=grid, p_mass=np.full(len(grid), 1.0 / len(grid)), y_grid=grid,
                      loss=EpsilonLoss(0.1), s=-1.0)

    def test_slope_is_stored_as_a_float(self):
        # the validated float replaces what was passed: a numeric string solves,
        # and a numpy slope yields plain-float rates and distortions
        base = build_problem(GAU, EpsilonLoss(0.1), -2.0, n=101)
        prob = BAProblem(x_grid=base.x_grid, p_mass=base.p_mass, y_grid=base.y_grid,
                         loss=base.loss, s="-2")
        assert type(prob.s) is float and prob.s == -2.0
        assert type(ba_iterate(prob, max_iter=20).rate) is float
        (pt,) = ba_curve(GAU, EpsilonLoss(0.1), np.array([-2.0]), n=101, max_iter=20)
        assert pt.flag in ("", "ba_not_converged")
        assert type(pt.r) is float and type(pt.d) is float


class TestKernelApplication:
    @pytest.mark.parametrize("s", [-0.5, -3.0, -40.0])
    def test_fft_toeplitz_matches_dense_matrix(self, s):
        from rdbounds.ba import _ToeplitzKernel

        rng = np.random.default_rng(7)
        loss = EpsilonLoss(0.1)
        # the FFT length is the least power of two >= 2n - 1: n = 64 leaves it
        # one slot to spare and n = 65 doubles it
        for n, size in ((51, 128), (64, 128), (65, 256)):
            x = np.linspace(-4.0, 4.0, n)
            dense = np.exp(s * loss(x[:, None] - x[None, :]))
            kernel = _ToeplitzKernel(np.exp(s * loss((x[1] - x[0]) * np.arange(n))))
            assert kernel.size == size
            for _ in range(4):
                v = rng.random(n)
                assert np.max(np.abs(kernel.apply(v) - dense @ v)) < 1e-13


class TestTwoPointSource:
    def test_matches_brute_force(self):
        s = -10.0
        prob = BAProblem(
            x_grid=np.array([-1.0, 1.0]),
            p_mass=np.array([0.5, 0.5]),
            y_grid=np.array([-1.0, 1.0]),
            loss=EpsilonLoss(0.0),
            s=s,
        )
        res = ba_iterate(prob, tol=1e-14, max_iter=10_000)
        d_want, r_want = oracles.two_point_brute_force(s)
        assert res.rate <= math.log(2.0) + 1e-12
        assert res.distortion >= 0.0
        assert res.distortion == pytest.approx(d_want, abs=1e-8)
        assert res.rate == pytest.approx(r_want, abs=1e-6)


class TestZeroRateLimit:
    def test_rate_collapses_for_weak_slopes(self):
        prob = build_problem(LAP, EpsilonLoss(0.1), -1e-6, n=501)
        res = ba_iterate(prob, tol=1e-10, max_iter=2000)
        assert res.rate < 1e-4
        assert not res.converged  # the reproduction mass drifts too slowly to settle
        assert res.distortion >= LAP.d_max(EpsilonLoss(0.1)) - 1e-3

    def test_distortion_approaches_d_max(self):
        # within the zero-rate regime the solution concentrates on the best
        # constant reproduction, so D tends to d_max and R to zero
        loss = EpsilonLoss(0.1)
        prob = build_problem(LAP, loss, -0.05, n=1001)
        res = ba_iterate(prob, tol=1e-10, max_iter=30_000)
        assert abs(res.distortion - LAP.d_max(loss)) < 2e-3
        assert res.rate < 1e-3


class TestExactCurve:
    def test_absolute_error_curve_single_slope(self):
        prob = build_problem(LAP, EpsilonLoss(0.0), -4.0, n=1001)
        res = ba_iterate(prob, tol=1e-10, max_iter=15_000)
        assert abs(res.rate + math.log(ALPHA * res.distortion)) < 2e-2


class TestIterationDiagnostics:
    def test_objective_monotone_and_q_normalized(self):
        for src, s in ((LAP, -3.0), (GAU, -7.0)):
            prob = build_problem(src, EpsilonLoss(0.1), s, n=801)
            res = ba_iterate(prob, tol=1e-11, max_iter=8000)
            assert res.objective_violations == 0
            assert res.max_objective_rise <= 1e-12
            assert res.q_mass.min() >= 0.0
            assert res.q_mass.sum() == pytest.approx(1.0, abs=1e-12)

    def test_non_convergence_is_reported(self):
        prob = build_problem(LAP, EpsilonLoss(0.1), -2.0, n=501)
        res = ba_iterate(prob, tol=1e-12, max_iter=5)
        assert not res.converged
        assert res.iterations == 5

    @pytest.mark.parametrize("max_iter", [5, 50, 500])
    def test_gap_matches_dense_oracle(self, max_iter):
        prob = build_problem(LAP, EpsilonLoss(0.1), -5.0, n=201)
        res = ba_iterate(prob, tol=1e-12, max_iter=max_iter)
        want = oracles.dense_blahut_gap(prob.x_grid, prob.p_mass, prob.s, 0.1, res.q_mass)
        assert want > 0.0
        assert res.gap == pytest.approx(want, rel=1e-3)

    def test_grid_doubling_stability(self):
        loss = EpsilonLoss(0.1)
        for src in (LAP, GAU):
            coarse = ba_iterate(build_problem(src, loss, -5.0, n=1001), tol=1e-9,
                                max_iter=15_000)
            fine = ba_iterate(build_problem(src, loss, -5.0, n=2001), tol=1e-9,
                              max_iter=15_000)
            assert abs(coarse.distortion - fine.distortion) < 5e-3
            assert abs(coarse.rate - fine.rate) < 5e-3


class TestCurve:
    def test_singleton(self):
        pts = ba_curve(GAU, EpsilonLoss(0.1), [-5.0], n=501, tol=1e-9, max_iter=5000)
        assert len(pts) == 1
        assert pts[0].s == -5.0

    def test_sorted_and_monotone(self):
        s_list = [-20.0, -1.0, -5.0, -2.0]
        pts = ba_curve(LAP, EpsilonLoss(0.1), s_list, n=801, tol=1e-9, max_iter=10_000)
        ds = [pt.d for pt in pts]
        assert ds == sorted(ds)
        # weaker slopes sit at larger distortion
        assert [pt.s for pt in pts] == [-20.0, -5.0, -2.0, -1.0]

    def test_per_point_failures_do_not_abort(self):
        pts = ba_curve(GAU, EpsilonLoss(0.1), [-5.0, -math.inf], n=301, tol=1e-9,
                       max_iter=3000)
        flags = {pt.s: pt.flag for pt in pts}
        assert flags[-5.0] == "" or flags[-5.0] == "ba_not_converged"
        assert any(f.startswith("ba_error") for f in flags.values())
        with pytest.raises(ValueError):
            ba_curve(GAU, EpsilonLoss(0.1), [], n=301)
