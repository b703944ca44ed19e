"""Discretized Blahut-Arimoto fixed-point solver for rate-distortion points.

The solver sweeps the slope parameter: for each s < 0 it iterates the
reproduction-marginal fixed point

    q[j] <- q[j] * sum_i p[i] K[i, j] / (K q)[i],      K[i, j] = exp(s * rho(x_i - y_j))

starting from the uniform distribution.  Identical uniform source and
reproduction grids make K symmetric Toeplitz: 1 on offsets inside the band
and geometric in the offset past it.  ``_EpsKernel`` applies it exactly in
blocks, with positive terms only, so each entry of a product is accurate
relative to itself.

The variational objective F(q) = -sum_i p[i] log (K q)[i] is evaluated at
every iterate; the update never increases it, which is checked against the
previous iterate with 1e-12 slack, and any violation is counted in the result
instead of aborting the sweep.  The product the update takes gives Blahut's
gap log max_j (K (p / K q))_j at no cost (IEEE T-IT 18, 1972), and with it a
lower bound F - gap on min F at every iterate.  A step that merely stalls,
sup|q' - q| < tol, is no stop: the solve ends once it has stalled and the
best lower bound so far lies within 1e-4 nats of F, or at the cap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import RDPoint
from .sources import Source, _check_grid
from .tilted import EpsilonLoss, _check_slope

__all__ = ["BAProblem", "BAResult", "auto_span", "build_problem", "ba_iterate", "ba_curve"]

_TINY = 1e-300
# a stalled iterate counts as converged once its certificate is this small (nats)
_CERTIFIED_GAP = 1e-4


@dataclass(frozen=True)
class BAProblem:
    """Discretized rate-distortion instance on matching uniform grids."""

    x_grid: np.ndarray
    p_mass: np.ndarray
    y_grid: np.ndarray
    loss: EpsilonLoss
    s: float

    def __post_init__(self):
        x, p = _check_grid(self.x_grid, self.p_mass, "x_grid", "p_mass")
        y = np.asarray(self.y_grid, dtype=float).copy()
        if not np.array_equal(x, y):
            raise ValueError("y_grid must match x_grid")
        y.setflags(write=False)
        object.__setattr__(self, "x_grid", x)
        object.__setattr__(self, "p_mass", p)
        object.__setattr__(self, "y_grid", y)
        object.__setattr__(self, "s", _check_slope(self.s))

    @property
    def spacing(self) -> float:
        return float(self.x_grid[1] - self.x_grid[0])


@dataclass
class BAResult:
    """Converged (or last) iterate of one fixed-slope solve.

    ``gap`` is Blahut's bound log max_j (K^T (p / K q))_j at the returned q:
    F(q) - gap <= min F <= F(q) for the objective F of the module docstring.
    Every iterate's F_k - gap_k is such a lower bound, and ``certified_gap``
    is F(q) - max_k (F_k - gap_k), at most ``gap``: the objective at q lies at
    most that far above its minimum.  The stop rule reads it.
    """

    q_mass: np.ndarray
    distortion: float
    rate: float
    iterations: int
    converged: bool
    objective_violations: int = 0
    max_objective_rise: float = 0.0
    gap: float = math.nan
    certified_gap: float = math.nan


def auto_span(source: Source) -> float:
    """Half-width whose truncated tail mass is strictly below 1e-10."""
    return 1.002 * source.tail_span(1e-10)


def build_problem(source: Source, loss: EpsilonLoss, s: float, n: int = 2001) -> BAProblem:
    """Discretize a source on a symmetric uniform grid of n (odd) points.

    The half-width is ``auto_span(source)``.
    """
    n = int(n)
    if n < 3 or n % 2 == 0:
        raise ValueError(f"n must be an odd integer >= 3, got {n!r}")
    half = auto_span(source)
    x = np.linspace(-half, half, n)
    p = source.pdf(x) * (x[1] - x[0])
    total = float(p.sum())
    if total <= 0.0:
        raise ValueError("source mass vanishes on the requested grid")
    return BAProblem(x_grid=x, p_mass=p / total, y_grid=x, loss=loss, s=s)


class _EpsKernel:
    """Exact products with K[i, j] = exp(s rho(h |i - j|)) and K_d = dK/ds = rho K.

    The n grid points are cut into nb blocks of L cells (the last one padded
    with zeros), and blocks D apart hold the offsets D L + a - b, a and b the
    cells' places in their blocks:

    * D = 0, and any D whose offsets straddle the band's edge: a dense L x L
      matrix, one small matmul a side;
    * offsets wholly inside the band (K = 1, K_d = 0): the input blocks' sums,
      spread by an nb x nb matrix of ones and zeros;
    * D with mu_D = (D - 1) L h - eps >= 0: every entry is r^a exp(s mu_D)
      r^(L - b) below the diagonal (r^(L - a) exp(s mu_D) r^b above it),
      r = e^(s h), so one weighted sum per block and one triangular nb x nb
      matmul carry them, and K_d follows by the product rule
      (rho = h a + mu_D + h (L - b)).

    Every exponent is s times a non-negative number and every term is
    positive, so nothing overflows and each output entry is accurate relative
    to itself, however widely the input's entries range.  With
    L = ceil(sqrt(n)) the matrices take O(n) memory at any eps.
    """

    def __init__(self, n: int, h: float, s: float, eps: float):
        L = math.isqrt(n - 1) + 1
        nb = -(-n // L)
        self.n, self.shape = n, (nb, L)
        a = np.arange(L)
        d = np.arange(nb)
        mu = h * ((d - 1) * L) - eps
        geometric = (d >= 1) & (mu >= 0.0)
        band = (d >= 1) & (h * ((d + 1) * L - 1) <= eps)
        dense = np.flatnonzero(~(geometric | band))  # starts with D = 0

        def entries(D):
            rho = np.maximum(h * np.abs(D * L + a[:, None] - a[None, :]) - eps, 0.0)
            k = np.exp(s * rho)
            return k, rho * k

        k_blocks, d_blocks = zip(*map(entries, dense))
        lag = d[:, None] - d[None, :]
        below = np.maximum(lag, 0)  # 0 on and above the diagonal, where geometric[0] is False
        mu = np.maximum(mu, 0.0)
        g = np.where(geometric[below], np.exp(s * mu)[below], 0.0)
        g_mu = g * mu[below]
        ra, rb = np.exp(s * (h * a)), np.exp(s * (h * (L - a)))
        ha, hb = h * a, h * (L - a)
        ones = np.ones(L)

        def plan(blocks, *terms):
            # a term (left, matrix, right) adds left[a] (matrix @ (V @ right))[I]
            left, mats, right = zip(*terms)
            return (list(zip(dense, blocks)), np.stack(right, axis=1), np.stack(mats),
                    np.stack(left))

        self.plan = plan(k_blocks, (ra, g, rb), (rb, g.T, ra),
                         (ones, band[np.abs(lag)].astype(float), ones))
        self.plan_d = plan(d_blocks, (ha * ra, g, rb), (ra, g_mu, rb), (ra, g, hb * rb),
                           (hb * rb, g.T, ra), (rb, g_mu.T, ra), (rb, g.T, ha * ra))

    def apply(self, v: np.ndarray, derivative: bool = False) -> np.ndarray:
        """K v, or K_d v when ``derivative``."""
        blocks, right, mats, left = self.plan_d if derivative else self.plan
        V = np.zeros(self.shape)
        V.ravel()[: self.n] = v
        (_, t0), *near = blocks
        out = V @ t0
        for D, t in near:
            out[D:] += V[:-D] @ t.T
            out[:-D] += V[D:] @ t
        x = V @ right
        out += (mats @ x.T[:, :, None])[:, :, 0].T @ left
        return out.ravel()[: self.n]


def ba_iterate(problem: BAProblem, tol: float = 1e-10, max_iter: int = 200_000) -> BAResult:
    """Run the fixed point from uniform q until a certified stall or max_iter.

    The iterate has stalled once sup|q' - q| < tol, and the stop counts as
    converged once the running certificate is at most 1e-4 nats as well;
    until then the iterations go on.  Non-convergence is reported through the
    ``converged`` flag; the last iterate is still returned.
    """
    if not (tol > 0.0):
        raise ValueError("tol must be positive")
    max_iter = max(int(max_iter), 1)
    n = problem.x_grid.size
    kernel = _EpsKernel(n, problem.spacing, problem.s, problem.loss.epsilon)
    p = problem.p_mass

    q = np.full(n, 1.0 / n)
    previous = math.inf
    lower = -math.inf
    violations = 0
    max_rise = 0.0
    stalled = False
    # each pass evaluates z, F, the update's product w and the gap at the
    # current q (after `iterations` updates), then stops or updates q
    for iterations in range(max_iter + 1):
        z = np.maximum(kernel.apply(q), _TINY)
        objective = -float(np.dot(p, np.log(z)))
        if objective > previous + 1e-12:
            violations += 1
            max_rise = max(max_rise, objective - previous)
        previous = objective
        w = kernel.apply(p / z)
        gap = math.log(float(w.max()))
        lower = max(lower, objective - gap)
        certified = min(objective - lower, gap)  # the min keeps round-off from passing gap
        converged = stalled and certified <= _CERTIFIED_GAP
        if converged or iterations == max_iter:
            break
        q_next = q * w
        q_next[q_next < _TINY] = 0.0
        total = float(q_next.sum())
        if not 0.0 < total < math.inf:
            raise ArithmeticError("Blahut-Arimoto iterate became non-finite")
        q_next /= total
        stalled = float(np.max(np.abs(q_next - q))) < tol
        q = q_next

    distortion = float(np.dot(p, kernel.apply(q, derivative=True) / z))
    return BAResult(
        q_mass=q,
        distortion=distortion,
        rate=max(0.0, problem.s * distortion + objective),
        iterations=iterations,
        converged=converged,
        objective_violations=violations,
        max_objective_rise=max_rise,
        gap=gap,
        certified_gap=certified,
    )


def ba_curve(
    source: Source,
    loss: EpsilonLoss,
    s_list,
    n: int = 2001,
    tol: float = 1e-10,
    max_iter: int = 200_000,
) -> list[RDPoint]:
    """One solve per slope; points sorted by distortion, failures flagged per point."""
    s_list = list(s_list)
    if not s_list:
        raise ValueError("s_list must be nonempty")
    points = []
    for s in s_list:
        try:
            problem = build_problem(source, loss, s, n=n)
            result = ba_iterate(problem, tol=tol, max_iter=max_iter)
        except (ValueError, ArithmeticError) as exc:
            points.append(RDPoint(d=math.nan, r=math.nan, s=float(s), flag=f"ba_error:{exc}"))
            continue
        flag = "" if result.converged else "ba_not_converged"
        points.append(RDPoint(d=result.distortion, r=result.rate, s=float(s), flag=flag))
    points.sort(key=lambda pt: (math.isnan(pt.d), pt.d))
    return points
