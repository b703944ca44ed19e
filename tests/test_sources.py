import math

import numpy as np
import pytest
from scipy import integrate, optimize

from rdbounds import (
    EpsilonLoss,
    Gaussian,
    Laplacian,
    Tabulated,
    erfc_tail,
    load_tabulated_csv,
)

import oracles

ALPHA = math.sqrt(2.0)


def discretized(source, n, half):
    """Tabulated source from midpoint samples of a continuous density."""
    x = np.linspace(-half, half, n)
    m = source.pdf(x)
    return Tabulated(grid=x, masses=m / m.sum())


class TestPdf:
    def test_values(self):
        assert Laplacian(ALPHA).pdf(0.0) == pytest.approx(ALPHA / 2.0, rel=1e-15)
        assert Gaussian(1.0).pdf(0.0) == pytest.approx(1.0 / math.sqrt(2 * math.pi), rel=1e-15)

    def test_tabulated_cells(self):
        tab = Tabulated(grid=np.array([-1.0, 0.0, 1.0]), masses=np.full(3, 1 / 3))
        for x in (-1.0, 0.0, 1.0, 0.49, -1.49):
            assert tab.pdf(x) == pytest.approx((1 / 3) / 1.0, rel=1e-12)
        assert tab.pdf(1.51) == 0.0
        assert tab.pdf(-8.0) == 0.0


class TestEntropy:
    def test_closed_forms(self):
        assert Laplacian(ALPHA).differential_entropy() == pytest.approx(
            1.0 + 0.5 * math.log(2.0), rel=1e-15
        )
        assert Gaussian(1.0).differential_entropy() == pytest.approx(
            0.5 * (1.0 + math.log(2 * math.pi)), rel=1e-15
        )

    def test_discretized_gaussian(self):
        tab = discretized(Gaussian(1.0), 4001, 8.0)
        assert tab.differential_entropy() == pytest.approx(
            0.5 * (1.0 + math.log(2 * math.pi)), abs=1e-3
        )

    def test_zero_mass_cells_contribute_nothing(self):
        tab = Tabulated(grid=np.array([0.0, 1.0, 2.0, 3.0]),
                        masses=np.array([0.5, 0.0, 0.0, 0.5]))
        assert tab.differential_entropy() == pytest.approx(-math.log(0.5), rel=1e-12)


class TestVariance:
    def test_tabulated_is_the_density_variance(self):
        # two unit cells of mass 1/2 make the uniform density on [-1, 1]
        tab = Tabulated(grid=np.array([-0.5, 0.5]), masses=np.array([0.5, 0.5]))
        assert tab.variance() == pytest.approx(1.0 / 3.0, rel=1e-15)
        shifted = Tabulated(grid=np.array([0.0, 0.2, 0.4]), masses=np.array([0.5, 0.25, 0.25]))
        want = integrate.quad(lambda x: (x - shifted.mean()) ** 2 * shifted.pdf(x),
                              -0.1, 0.5, points=[0.1, 0.3])[0]
        assert shifted.variance() == pytest.approx(want, rel=1e-12)


class TestErfcTail:
    def test_anchors(self):
        assert erfc_tail(0.0) == 0.5
        assert erfc_tail(40.0) == pytest.approx(0.0, abs=1e-300)
        assert erfc_tail(0.1) == pytest.approx(0.460172, abs=1e-6)

    @pytest.mark.parametrize("x", [-2.0, -0.3, 0.1, 1.0, 2.5])
    def test_against_series(self, x):
        assert erfc_tail(x) == pytest.approx(oracles.normal_upper_tail_series(x), abs=1e-12)


class TestDMax:
    def test_known_endpoint_values(self):
        loss = EpsilonLoss(0.1)
        assert Laplacian(ALPHA).d_max(loss) == pytest.approx(0.6139, abs=5e-4)
        assert Gaussian(1.0).d_max(loss) == pytest.approx(0.7019, abs=5e-4)
        assert Gaussian(1.0).d_max(EpsilonLoss(0.0)) == pytest.approx(
            math.sqrt(2.0 / math.pi), abs=5e-4
        )

    @pytest.mark.parametrize("eps", [0.0, 0.05, 0.1, 0.5])
    def test_against_quadrature(self, eps):
        for src in (Laplacian(ALPHA), Gaussian(1.0)):
            assert src.d_max(EpsilonLoss(eps)) == pytest.approx(
                oracles.d_max_quad(src.pdf, eps), abs=1e-8
            )

    def test_loss_dominance(self):
        # a wider forgiven band can only lower the achievable zero-rate distortion
        for src in (Laplacian(ALPHA), Gaussian(1.0), discretized(Laplacian(ALPHA), 801, 16.5)):
            ds = [src.d_max(EpsilonLoss(e)) for e in (0.0, 0.05, 0.1, 0.5)]
            assert all(a > b for a, b in zip(ds[:-1], ds[1:]))

    @pytest.mark.parametrize("src", [Laplacian(ALPHA), Gaussian(1.0)])
    def test_symmetric_minimizer_is_zero(self, src):
        res = optimize.minimize_scalar(
            lambda y: oracles.d_max_quad(src.pdf, 0.1, y=y),
            bounds=(-1.0, 1.0), method="bounded",
            options={"xatol": 1e-9},
        )
        assert abs(res.x) < 1e-6

    def test_asymmetric_tabulated(self):
        shift = 0.7
        x = np.linspace(-16.0 + shift, 16.0 + shift, 2001)
        m = Laplacian(ALPHA).pdf(x - shift)
        tab = Tabulated(grid=x, masses=m / m.sum())
        loss = EpsilonLoss(0.1)
        got = tab.d_max(loss)
        # the minimum over y of the loss averaged over each cell of the density
        want = optimize.minimize_scalar(
            lambda y: oracles.d_max_cells_quad(tab.grid, tab.masses, 0.1, y),
            bounds=(shift - 0.5, shift + 0.5), method="bounded",
            options={"xatol": 1e-9},
        ).fun
        assert got == pytest.approx(want, abs=1e-8)

    @pytest.mark.parametrize("eps,want", [(0.0, 0.125), (0.05, 0.08), (0.1, 0.045)])
    def test_single_cell_is_the_uniform_density(self, eps, want):
        # all mass on the middle cell: X is uniform on [-0.25, 0.25]
        tab = Tabulated(grid=np.array([-0.5, 0.0, 0.5]), masses=np.array([0.0, 1.0, 0.0]))
        assert tab.d_max(EpsilonLoss(eps)) == pytest.approx(want, rel=1e-12)


class TestTabulatedConvergence:
    def test_halving(self):
        src = Laplacian(ALPHA)
        loss = EpsilonLoss(0.1)
        h_exact = src.differential_entropy()
        d_exact = src.d_max(loss)
        errs_h, errs_d = [], []
        for n in (1001, 2001, 4001):
            tab = discretized(src, n, 16.5)
            errs_h.append(abs(tab.differential_entropy() - h_exact))
            errs_d.append(abs(tab.d_max(loss) - d_exact))
        assert errs_h[1] <= errs_h[0] / 2 and errs_h[2] <= errs_h[1] / 2
        assert errs_d[1] <= errs_d[0] / 2 and errs_d[2] <= errs_d[1] / 2


class TestTabulatedTailSpan:
    @pytest.mark.parametrize("mass", [0.0, 1e-12, 1e-10, 1e-6, 1e-2, 0.3, 1.0])
    def test_smallest_grid_point_meeting_the_mass(self, mass):
        shifted = discretized(Laplacian(ALPHA), 801, 16.0)
        shifted = Tabulated(shifted.grid + 0.37, shifted.masses)
        for tab in (discretized(Laplacian(ALPHA), 801, 16.0), shifted):
            span = tab.tail_span(mass)
            assert tab.tail_mass(span) <= mass
            # the span is the outer edge |x| + h/2 of the outermost kept cell,
            # and no cell further in leaves at most that mass outside
            kept = np.abs(tab.grid)[np.abs(tab.grid) + 0.5 * tab.spacing == span]
            assert kept.size > 0
            inner = kept[0]
            assert tab.tail_mass(inner) <= mass
            smaller = np.abs(tab.grid)[np.abs(tab.grid) < inner]
            if smaller.size:
                assert tab.tail_mass(smaller.max()) > mass

    def test_ends_carrying_mass_keep_the_full_span(self):
        tab = Tabulated(np.linspace(-2.0, 2.0, 5), np.full(5, 0.2))
        assert tab.tail_span(1e-10) == 2.5
        assert tab.tail_span(0.4) == 1.5
        assert tab.tail_span(1.0) == 0.5


class TestTabulatedValidation:
    def test_nonuniform_grid(self):
        with pytest.raises(ValueError, match="uniform"):
            Tabulated(grid=np.array([0.0, 1.0, 2.5]), masses=np.full(3, 1 / 3))

    def test_negative_mass(self):
        with pytest.raises(ValueError, match="nonnegative"):
            Tabulated(grid=np.array([0.0, 1.0]), masses=np.array([1.5, -0.5]))

    def test_mass_sum(self):
        with pytest.raises(ValueError, match="sum"):
            Tabulated(grid=np.array([0.0, 1.0]), masses=np.array([0.6, 0.5]))

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            Laplacian(0.0)
        with pytest.raises(ValueError):
            Gaussian(-1.0)


class TestCsvLoading:
    def test_with_header(self, tmp_path):
        path = tmp_path / "src.csv"
        path.write_text("x,mass\n-1.0,0.25\n0.0,0.5\n1.0,0.25\n")
        tab = load_tabulated_csv(path)
        assert tab.masses.tolist() == [0.25, 0.5, 0.25]

    @pytest.mark.parametrize("header", ["", "x,mass\n"], ids=["headerless", "header"])
    def test_byte_order_mark(self, tmp_path, header):
        # spreadsheets save "CSV UTF-8" with a BOM; the first data row must not
        # be taken for a header, although its tiny mass would pass the sum check
        x = np.arange(-2.0, 2.5, 0.5)
        m = np.exp(-2.0 * np.abs(x)) ** 10
        m /= m.sum()
        rows = "".join(f"{xi!r},{mi!r}\n" for xi, mi in zip(x.tolist(), m.tolist()))
        path = tmp_path / "src.csv"
        path.write_text(header + rows, encoding="utf-8-sig")
        tab = load_tabulated_csv(path)
        assert tab.grid.tolist() == x.tolist()
        np.testing.assert_allclose(tab.masses, m, rtol=1e-15)

    def test_renormalizes_small_defects(self, tmp_path):
        path = tmp_path / "src.csv"
        path.write_text("-1.0,0.2500004\n0.0,0.5\n1.0,0.25\n")
        tab = load_tabulated_csv(path)
        assert tab.masses.sum() == pytest.approx(1.0, abs=1e-15)

    def test_rejects_large_defect(self, tmp_path):
        path = tmp_path / "src.csv"
        path.write_text("-1.0,0.3\n0.0,0.5\n1.0,0.25\n")
        with pytest.raises(ValueError, match="1e-6"):
            load_tabulated_csv(path)

    def test_rejects_malformed(self, tmp_path):
        path = tmp_path / "src.csv"
        path.write_text("-1.0,0.5\nnot,a number\n1.0,0.5\n")
        with pytest.raises(ValueError, match="non-numeric"):
            load_tabulated_csv(path)
        path.write_text("-1.0;0.5\n")
        with pytest.raises(ValueError, match="two comma-separated"):
            load_tabulated_csv(path)


def test_summary_ordering():
    loss = EpsilonLoss(0.1)
    for src in (Laplacian(ALPHA), Gaussian(1.0)):
        assert src.d_max(loss) < src.d_max(EpsilonLoss(0.0))
        assert src.variance() > 0
