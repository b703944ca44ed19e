"""Independent numeric oracles used to pin expected values in the tests.

Everything here goes through scipy's adaptive QUADPACK routines, plain
brute force or high-precision decimals, never through the library's own
Gauss-Legendre panels, so that closed forms and quadrature cross-check along
genuinely different routes.
"""

import decimal
import math

import numpy as np
from scipy import integrate


def tilted_quad(s, eps, integrand):
    """Adaptive quadrature of integrand(x) * exp(s * rho(x)) / C over the real line."""
    c = 2.0 * (1.0 + abs(s) * eps) / abs(s)
    upper = eps + 60.0 / abs(s)

    def f(x):
        g = math.exp(s * max(abs(x) - eps, 0.0)) / c
        return integrand(x) * g

    pts = [-eps, 0.0, eps]
    val, _ = integrate.quad(f, -upper, upper, points=pts, limit=400, epsabs=1e-13, epsrel=1e-13)
    return val


def tilted_norm_quad(s, eps):
    return tilted_quad(s, eps, lambda x: 1.0)


def tilted_entropy_quad(s, eps):
    c = 2.0 * (1.0 + abs(s) * eps) / abs(s)

    def neg_log_g(x):
        return -(s * max(abs(x) - eps, 0.0) - math.log(c))

    return tilted_quad(s, eps, neg_log_g)


def tilted_distortion_quad(s, eps):
    return tilted_quad(s, eps, lambda x: max(abs(x) - eps, 0.0))


def tilted_variance_quad(s, eps):
    return tilted_quad(s, eps, lambda x: x * x)


def conv_quad(source_pdf, s, eps, y, extra_points=(0.0,)):
    """(g * p)(y) by adaptive quadrature with the kink locations supplied."""
    c = 2.0 * (1.0 + abs(s) * eps) / abs(s)

    def f(x):
        return math.exp(s * max(abs(y - x) - eps, 0.0)) / c * source_pdf(x)

    half = abs(y) + eps + 60.0 / abs(s) + 40.0
    pts = sorted(p for p in [y - eps, y + eps, *extra_points] if -half < p < half)
    val, _ = integrate.quad(f, -half, half, points=pts, limit=400, epsabs=1e-13, epsrel=1e-13)
    return val


def ru_quad(source_pdf, s, eps, support, kinks=()):
    """R_U = h(g * p) - h(g) for an even source density, by nested quadrature.

    The inner integral gives (g * p)(y) over the overlap of the kernel's reach
    with [-support, support], outside which p is negligible; the outer one
    integrates -r log r over the half line.  ``kinks`` are the points where
    p is not smooth.
    """
    c = 2.0 * (1.0 + abs(s) * eps) / abs(s)
    reach = eps + 60.0 / abs(s)

    def conv(y):
        lo, hi = max(y - reach, -support), min(y + reach, support)
        if hi <= lo:
            return 0.0
        pts = [p for p in (y - eps, y + eps, *kinks) if lo < p < hi]
        val, _ = integrate.quad(
            lambda x: math.exp(s * max(abs(y - x) - eps, 0.0)) / c * source_pdf(x),
            lo, hi, points=pts or None, limit=200, epsabs=1e-15, epsrel=1e-13)
        return val

    def neg_r_log_r(y):
        r = conv(y)
        return -r * math.log(r) if r > 0.0 else 0.0

    upper = support + reach
    pts = sorted({eps, *(abs(k) + eps for k in kinks)} - {0.0})
    h_r, _ = integrate.quad(neg_r_log_r, 0.0, upper, points=pts or None, limit=400,
                            epsabs=1e-13, epsrel=1e-12)
    return 2.0 * h_r - tilted_entropy_quad(s, eps)


def kernel_cdf(t, s, eps):
    """CDF of the tilted kernel at t (vectorized): exponential, linear, exponential."""
    b = abs(s)
    c = 2.0 * (1.0 + b * eps) / b
    t = np.asarray(t, dtype=float)
    left = np.exp(b * np.minimum(t + eps, 0.0)) / (b * c)
    right = 1.0 - np.exp(-b * np.maximum(t - eps, 0.0)) / (b * c)
    return np.where(t < -eps, left, np.where(t > eps, right, 1.0 / (b * c) + (t + eps) / c))


def ru_tabulated_quad(grid, masses, s, eps):
    """R_U = h(g * p) - h(g) for a piecewise-constant density on uniform cells.

    The density (g * p)(y) is the exact sum over cells of mass / h times the
    kernel probability of the cell seen from y; -r log r is integrated by
    QUADPACK between consecutive points (cell edge) +- eps, with the kernel's
    reach added at both ends.
    """
    grid = np.asarray(grid, dtype=float)
    h = grid[1] - grid[0]
    edges = np.append(grid - 0.5 * h, grid[-1] + 0.5 * h)
    dens = np.asarray(masses, dtype=float) / h

    def neg_r_log_r(y):
        cdf = kernel_cdf(y - edges, s, eps)
        r = float(np.dot(cdf[:-1] - cdf[1:], dens))
        return -r * math.log(r) if r > 0.0 else 0.0

    reach = eps + 60.0 / abs(s)
    pts = np.unique(np.concatenate([edges - eps, edges + eps,
                                    [edges[0] - reach, edges[-1] + reach]]))
    h_r = 0.0
    for a, b in zip(pts[:-1], pts[1:]):
        val, _ = integrate.quad(neg_r_log_r, a, b, limit=200, epsabs=1e-14, epsrel=1e-13)
        h_r += val
    return h_r - tilted_entropy_quad(s, eps)


def tabulated_outer_entropy_quad(grid, masses, s, eps):
    """Entropy of (g * p) over the two half-lines past the first edge - eps and
    the last edge + eps, for a piecewise-constant density on uniform cells.

    There the band [y - eps, y + eps] holds no mass, and each cell adds mass / h
    times the kernel's exponential tail over the cell, a positive closed form;
    -r log r is integrated by QUADPACK over the kernel's reach 60/|s|, in pieces
    of 1/|s|.
    """
    b = abs(s)
    c = 2.0 * (1.0 + b * eps) / b
    grid = np.asarray(grid, dtype=float)
    h = grid[1] - grid[0]
    dens = (np.asarray(masses, dtype=float) / h).tolist()
    cell = -math.expm1(-b * h) / (b * c)
    total = 0.0
    # each cell's near edge, as its distance from the outer edge on that side
    for near in ((grid - grid[0]).tolist(), (grid[-1] - grid).tolist()):
        def neg_r_log_r(t, near=near):
            r = cell * math.fsum(d * math.exp(-b * (t + x)) for d, x in zip(dens, near))
            return -r * math.log(r) if r > 0.0 else 0.0

        for k in range(60):
            val, _ = integrate.quad(neg_r_log_r, k / b, (k + 1) / b, limit=100, epsabs=0.0,
                                    epsrel=1e-13)
            total += val
    return total


def conv_cells_quad(grid, masses, s, eps, y):
    """(g * p)(y) for a piecewise-constant density, one QUADPACK integral per cell.

    Each cell's integral of the kernel pdf is taken with a purely relative
    tolerance (epsabs = 0) and breaks at y -+ eps, so every term, and their
    positive sum, keeps relative accuracy however small it is.
    """
    b = abs(s)
    c = 2.0 * (1.0 + b * eps) / b
    grid = np.asarray(grid, dtype=float)
    h = grid[1] - grid[0]

    def kernel(x):
        return math.exp(-b * max(abs(y - x) - eps, 0.0)) / c

    total = 0.0
    for x, m in zip(grid, masses):
        if m == 0.0:
            continue
        lo, hi = x - 0.5 * h, x + 0.5 * h
        pts = [p for p in (y - eps, y + eps) if lo < p < hi]
        val, _ = integrate.quad(kernel, lo, hi, points=pts or None, limit=200, epsabs=0.0,
                                epsrel=1e-13)
        total += m / h * val
    return total


def dense_blahut_gap(x_grid, p_mass, s, eps, q_mass):
    """Blahut's gap log max_j (K^T (p / K q))_j with the kernel as a dense matrix.

    K[i, j] = exp(s max(h |i - j| - eps, 0)) on the offsets h |i - j| of the
    uniform grid, h = x[1] - x[0]; both products are plain matrix products.
    """
    x = np.asarray(x_grid, dtype=float)
    idx = np.arange(x.size)
    offsets = (x[1] - x[0]) * np.abs(idx[:, None] - idx[None, :])
    kernel = np.exp(s * np.maximum(offsets - eps, 0.0))
    z = kernel @ np.asarray(q_mass, dtype=float)
    return math.log(float(np.max(kernel.T @ (np.asarray(p_mass, dtype=float) / z))))


def dense_kernel_products(x_grid, s, eps, v, rows=256):
    """K v and K_d v in long double, K[i, j] = exp(s rho(h |i - j|)) and K_d = rho K.

    The offsets are h |i - j| with h = x[1] - x[0], as the solver takes them;
    both matrices are built densely, a slab of rows at a time, and every sum
    runs in numpy's long double.
    """
    x = np.asarray(x_grid, dtype=float)
    n = x.size
    h = np.longdouble(x[1] - x[0])
    v = np.asarray(v, dtype=np.longdouble)
    idx = np.arange(n)
    k_v = np.empty(n, dtype=np.longdouble)
    kd_v = np.empty(n, dtype=np.longdouble)
    for start in range(0, n, rows):
        offsets = h * np.abs(idx[start:start + rows, None] - idx[None, :]).astype(np.longdouble)
        rho = np.maximum(offsets - np.longdouble(eps), np.longdouble(0.0))
        kernel = np.exp(np.longdouble(s) * rho)
        k_v[start:start + rows] = kernel @ v
        kd_v[start:start + rows] = (rho * kernel) @ v
    return k_v, kd_v


def cosine_transform_quad(s, eps, omega):
    """2 * int_0^inf g(x) cos(omega x) dx by oscillatory-weight quadrature."""
    c = 2.0 * (1.0 + abs(s) * eps) / abs(s)

    def g(x):
        return math.exp(s * max(abs(x) - eps, 0.0)) / c

    upper = eps + 60.0 / abs(s)
    total = 0.0
    for a, b in ((0.0, eps), (eps, upper)):
        if b <= a:
            continue
        val, _ = integrate.quad(g, a, b, weight="cos", wvar=omega, limit=800,
                                epsabs=1e-12, epsrel=1e-12)
        total += val
    return 2.0 * total


def normal_upper_tail_series(x, terms=60):
    """P(Z > x) via the Maclaurin series of the error integral (|x| modest)."""
    total = 0.0
    for k in range(terms):
        total += (-1.0) ** k * x ** (2 * k + 1) / (math.factorial(k) * 2.0**k * (2 * k + 1))
    return 0.5 - total / math.sqrt(2.0 * math.pi)


def two_point_brute_force(s, d_same=0.0, d_cross=2.0, grid=200_001):
    """Exhaustive simplex search of the fixed-slope objective for a 2-point source.

    Returns (distortion, rate) at the best reproduction distribution
    q = (t, 1-t) on the same two points, p uniform.
    """
    a_same = math.exp(s * d_same)
    a_cross = math.exp(s * d_cross)
    ts = np.linspace(1e-12, 1.0 - 1e-12, grid)
    z1 = ts * a_same + (1.0 - ts) * a_cross
    z2 = ts * a_cross + (1.0 - ts) * a_same
    objective = -0.5 * (np.log(z1) + np.log(z2))
    t = float(ts[np.argmin(objective)])
    z1 = t * a_same + (1.0 - t) * a_cross
    z2 = t * a_cross + (1.0 - t) * a_same
    # conditional channel backed out of the optimal q
    q11 = t * a_same / z1
    q12 = (1.0 - t) * a_cross / z1
    q21 = t * a_cross / z2
    q22 = (1.0 - t) * a_same / z2
    distortion = 0.5 * (q11 * d_same + q12 * d_cross + q21 * d_cross + q22 * d_same)
    f_val = -0.5 * (math.log(z1) + math.log(z2))
    rate = s * distortion + f_val
    return distortion, rate


def d_max_quad(source_pdf, eps, y=0.0, half=80.0):
    """E[rho(X - y)] by adaptive quadrature."""

    def f(x):
        return max(abs(x - y) - eps, 0.0) * source_pdf(x)

    pts = sorted(p for p in (y - eps, y, y + eps, 0.0) if -half < p < half)
    val, _ = integrate.quad(f, -half, half, points=pts, limit=400, epsabs=1e-12, epsrel=1e-12)
    return val


def d_max_cells_quad(grid, masses, eps, y):
    """E[rho(X - y)] for a piecewise-constant density, one QUADPACK integral per cell."""
    grid = np.asarray(grid, dtype=float)
    h = grid[1] - grid[0]

    def loss(x):
        return max(abs(x - y) - eps, 0.0)

    total = 0.0
    for x, m in zip(grid, masses):
        lo, hi = x - 0.5 * h, x + 0.5 * h
        pts = [p for p in (y - eps, y + eps) if lo < p < hi]
        val, _ = integrate.quad(loss, lo, hi, points=pts or None, epsabs=1e-14, epsrel=1e-13)
        total += m / h * val
    return total


def laplacian_dmax_gap_decimal(u, digits=700):
    """(e^{-u} - (1 - t)^2 e^t) / u^3 with t = W0(u), in `digits`-digit decimals.

    The numerator is alpha (d_max(eps) - slb_zero) for a Laplacian at
    u = alpha eps; its terms cancel to about u^3, so `digits` must exceed
    3 |log10 u| plus the digits wanted.  W0 is Newton on t e^t = u.
    """
    with decimal.localcontext() as ctx:
        ctx.prec = digits
        u = decimal.Decimal(u)
        t = u
        for _ in range(100):
            step = (t * t.exp() - u) / (t.exp() * (t + 1))
            t -= step
            if abs(step) <= abs(t) * decimal.Decimal(10) ** (4 - digits):
                break
        return float(((-u).exp() - (1 - t) ** 2 * t.exp()) / u**3)
