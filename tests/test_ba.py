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
    ba_iterate,
    build_problem,
)

import oracles

ALPHA = math.sqrt(2.0)
LAP = Laplacian(ALPHA)
GAU = Gaussian(1.0)


def solve(problem, **kwargs):
    """ba_iterate, checking that the running certificate never exceeds the final gap."""
    res = ba_iterate(problem, **kwargs)
    assert res.certified_gap <= res.gap
    return res


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

    @pytest.mark.parametrize("s", [-math.inf, math.nan, 0.0])
    def test_rejects_a_slope_outside_the_domain(self, s):
        with pytest.raises(ValueError, match="slope s must be a finite negative real"):
            build_problem(GAU, EpsilonLoss(0.1), s, n=101)

    def test_minimal_toy_problem(self):
        prob = build_problem(GAU, EpsilonLoss(0.0), -1.0, n=3)
        res = solve(prob, tol=1e-12, max_iter=5000)
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
        assert type(solve(prob, max_iter=20).rate) is float
        res = solve(build_problem(GAU, EpsilonLoss(0.1), np.float64(-2.0), n=101), max_iter=20)
        assert type(res.rate) is float and type(res.distortion) is float


def kernel_products(kernel, v):
    """K v and K_d v through the kernel's own buffer."""
    handle, view = kernel.vector()
    view[:] = v
    return kernel.apply(handle).copy(), kernel.apply(handle, derivative=True).copy()


class TestKernelApplication:
    @pytest.mark.parametrize("s", [-0.5, -3.0, -40.0, -1e4])
    @pytest.mark.parametrize("eps", [0.0, 0.1, 0.3, 20.0])
    def test_products_are_exact_entrywise(self, s, eps):
        # a vector spanning 60 decades: every entry of K v and K_d v within
        # 1e-13 of a long-double dense product, relative to itself, wherever
        # that product is a normal double.  eps = 20 is wider than the grid;
        # eps = 0.3 at n = 2001 is 2.3 blocks wide, so the blocks straddling
        # the band's edge are 2 and 3 apart and those 1 apart lie inside it.
        # n = 127, 128 and 129 sit at a change of block length: the last of
        # the 8-cell blocks is one short, then whole, then L is 9.  At
        # s = -1e4 the ratio r = e^(s h) underflows on the coarse grids
        from rdbounds.ba import _EpsKernel

        assert [_EpsKernel(n, 1.0, s, eps).shape[1] for n in (127, 128, 129)] == [8, 8, 9]
        rng = np.random.default_rng(7)
        tiny = np.finfo(float).tiny
        for n in (2, 3, 51, 64, 65, 127, 128, 129, 2001):
            x = np.linspace(-4.0, 4.0, n)
            kernel = _EpsKernel(n, float(x[1] - x[0]), s, eps)
            if (n, eps) == (2001, 0.3):
                assert sorted(set(kernel.index[0] - kernel.pad)) == [-3, -2, 0, 2, 3]
            v = 10.0 ** rng.uniform(-60.0, 0.0, n)
            want_k, want_d = oracles.dense_kernel_products(x, s, eps, v)
            for got, want in zip(kernel_products(kernel, v), (want_k, want_d)):
                assert got.shape == (n,)
                normal = want >= tiny
                err = np.abs(got - want)
                assert np.all(err[normal] <= 1e-13 * want[normal]), (n, float(np.max(err / want)))
                assert np.all(err[~normal] <= tiny)

    def test_wide_band_keeps_memory_linear(self):
        # every offset inside the band: K v is the sum of v in each entry, and
        # no matrix holds more than 2n entries
        from rdbounds.ba import _EpsKernel

        n = 2001
        kernel = _EpsKernel(n, 0.01, -3.0, 100.0)
        assert max(a.size for op in kernel.ops for a in op) <= 2 * n
        v = np.random.default_rng(1).random(n)
        k, d = kernel_products(kernel, v)
        assert np.allclose(k, v.sum(), rtol=1e-14)
        assert not np.any(d)


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
        res = solve(prob, tol=1e-14, max_iter=10_000)
        d_want, r_want = oracles.two_point_brute_force(s)
        assert res.rate <= math.log(2.0) + 1e-12
        assert res.distortion >= 0.0
        assert res.distortion == pytest.approx(d_want, abs=1e-8)
        assert res.rate == pytest.approx(r_want, abs=1e-6)


class TestCertifiedStop:
    def test_stall_is_converged_only_once_certified(self):
        # sup|q' - q| < tol holds after 6 iterations here, while Blahut's gap
        # is still 3.6e-2; the solve goes on until the certificate holds
        prob = build_problem(GAU, EpsilonLoss(0.1), -20.0, n=2001)
        res = solve(prob, tol=1e-10, max_iter=20_000)
        assert res.converged
        assert res.certified_gap <= 1e-4
        assert oracles.dense_blahut_gap(prob.x_grid, prob.p_mass, prob.s, 0.1,
                                        res.q_mass) <= 1e-4

    @staticmethod
    def check_best_iterate(s, stall):
        # plain BA's gap is not monotone: the solve stalls after the gap has
        # risen again, and the iterate with the smallest gap is the one
        # returned, within 1e-4 by its own gap
        prob = build_problem(GAU, EpsilonLoss(0.1), s, n=2001)
        res = solve(prob, tol=1e-10, max_iter=20_000)
        assert res.converged and res.iterations < stall
        assert res.gap <= 1e-4
        assert oracles.dense_blahut_gap(prob.x_grid, prob.p_mass, prob.s, 0.1,
                                        res.q_mass) <= 1e-4

    def test_earlier_iterate_certifies_a_later_stall(self):
        # stalls after 77 iterations, when the gap is 5.9e-4; iterate 5 has 6.4e-5
        self.check_best_iterate(-4.52, 100)

    def test_best_iterate_returned_after_a_gap_rise(self):
        # stalls after 7 iterations, when the gap is 7.0e-3; iterate 4 has 7.6e-6
        self.check_best_iterate(-8.541, 10)


class TestZeroRateLimit:
    def test_rate_collapses_for_weak_slopes(self):
        prob = build_problem(LAP, EpsilonLoss(0.1), -1e-6, n=501)
        res = solve(prob, tol=1e-10, max_iter=2000)
        assert res.rate < 1e-4
        assert not res.converged  # the reproduction mass drifts too slowly to settle
        assert res.distortion >= LAP.d_max(EpsilonLoss(0.1)) - 1e-3

    def test_distortion_approaches_d_max(self):
        # within the zero-rate regime the solution concentrates on the best
        # constant reproduction, so D tends to d_max and R to zero
        loss = EpsilonLoss(0.1)
        prob = build_problem(LAP, loss, -0.05, n=1001)
        res = solve(prob, tol=1e-10, max_iter=30_000)
        assert abs(res.distortion - LAP.d_max(loss)) < 2e-3
        assert res.rate < 1e-3


class TestExactCurve:
    def test_absolute_error_curve_single_slope(self):
        prob = build_problem(LAP, EpsilonLoss(0.0), -4.0, n=1001)
        res = solve(prob, tol=1e-10, max_iter=15_000)
        assert abs(res.rate + math.log(ALPHA * res.distortion)) < 2e-2


class TestIterationDiagnostics:
    def test_objective_monotone_and_q_normalized(self):
        for src, s in ((LAP, -3.0), (GAU, -7.0)):
            prob = build_problem(src, EpsilonLoss(0.1), s, n=801)
            res = solve(prob, tol=1e-11, max_iter=8000)
            assert res.objective_violations == 0
            assert res.max_objective_rise <= 1e-12
            assert res.q_mass.min() >= 0.0
            assert res.q_mass.sum() == pytest.approx(1.0, abs=1e-12)

    def test_non_convergence_is_reported(self):
        prob = build_problem(LAP, EpsilonLoss(0.1), -2.0, n=501)
        res = solve(prob, tol=1e-12, max_iter=5)
        assert not res.converged
        assert res.iterations == 5

    @pytest.mark.parametrize("max_iter", [5, 50, 500])
    def test_gap_matches_dense_oracle(self, max_iter):
        prob = build_problem(LAP, EpsilonLoss(0.1), -5.0, n=201)
        res = solve(prob, tol=1e-12, max_iter=max_iter)
        want = oracles.dense_blahut_gap(prob.x_grid, prob.p_mass, prob.s, 0.1, res.q_mass)
        assert want > 0.0
        assert res.gap == pytest.approx(want, rel=1e-3)

    def test_grid_doubling_stability(self):
        loss = EpsilonLoss(0.1)
        for src in (LAP, GAU):
            coarse = solve(build_problem(src, loss, -5.0, n=1001), tol=1e-9,
                                max_iter=15_000)
            fine = solve(build_problem(src, loss, -5.0, n=2001), tol=1e-9,
                              max_iter=15_000)
            assert abs(coarse.distortion - fine.distortion) < 5e-3
            assert abs(coarse.rate - fine.rate) < 5e-3


class TestCurve:
    def test_distortion_rises_as_slope_flattens(self):
        loss = EpsilonLoss(0.1)
        s_list = [-20.0, -5.0, -2.0, -1.0]
        # weaker slopes sit at larger distortion
        ds = [solve(build_problem(LAP, loss, s, n=801), tol=1e-9, max_iter=10_000).distortion
              for s in s_list]
        assert ds == sorted(ds) and len(set(ds)) == len(ds)
