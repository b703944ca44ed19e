"""Discretized Blahut-Arimoto fixed-point solver for rate-distortion points.

For each slope s < 0 the solver iterates the reproduction-marginal fixed point

    q[j] <- q[j] * sum_i p[i] K[i, j] / (K q)[i],      K[i, j] = exp(s * rho(x_i - y_j))

from the uniform distribution.  Identical uniform source and reproduction
grids make K symmetric Toeplitz: 1 on offsets inside the band and geometric
past it, and ``_EpsKernel`` applies it exactly, each entry accurate relative
to itself.

The objective F(q) = -sum_i p[i] log (K q)[i] is evaluated at every iterate;
the update never increases it, which is checked against the previous iterate
with 1e-12 slack, and any violation is counted in the result instead of
aborting the sweep.  The update's own product gives Blahut's gap
log max_j (K (p / K q))_j (IEEE T-IT 18, 1972): F(q) lies at most that far
above min F.  Plain BA's gap is not monotone, so the solve keeps the iterate
with the smallest gap.  A step that merely stalls, sup|q' - q| < tol, is no
stop: the solve ends once it has stalled and the kept gap is at most 1e-4
nats, or at the cap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .sources import Source, _check_grid
from .tilted import EpsilonLoss, _check_slope

__all__ = ["BAProblem", "BAResult", "auto_span", "build_problem", "ba_iterate"]

_TINY = 1e-300
# a stall counts as converged once the smallest gap is this small (nats)
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
    """The iterate with the smallest gap in one fixed-slope solve.

    ``gap`` is Blahut's bound log max_j (K^T (p / K q))_j at the returned q:
    F(q) - gap <= min F <= F(q) for the objective F of the module docstring.
    Every iterate's F_k - gap_k is such a lower bound, and ``certified_gap``
    is F(q) - max_k (F_k - gap_k), at most ``gap``.  ``converged`` means that
    the solve stalled while ``gap`` was at most 1e-4 nats; ``iterations``
    counts the updates made, and the returned q may be an earlier iterate.
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

    The grid is cut into nb blocks of L = ceil(sqrt(n / 2)) cells, so that an
    nb x nb matrix holds about 2n entries, and blocks D apart hold the offsets
    D L + a - b, a and b the cells' places in their blocks:

    * D = 0, and any D whose offsets straddle the band's edge: a dense L x L
      matrix.  Output block I gathers input blocks I and I -+ D from a buffer
      zero-padded by the largest such D, and one matmul with the matrices
      stacked gives the near field;
    * offsets wholly inside the band (K = 1, K_d = 0): the input blocks' sums,
      spread by an nb x nb matrix of ones and zeros;
    * D with mu_D = (D - 1) L h - eps >= 0: every entry is r^a exp(s mu_D)
      r^(L - b) below the diagonal (r^(L - a) exp(s mu_D) r^b above it),
      r = e^(s h), so one weighted sum per block and one triangular nb x nb
      matmul carry them, and K_d follows by the product rule
      (rho = h a + mu_D + h (L - b)).

    Terms that are zero everywhere are left out.  Every exponent is s times a
    non-negative number and every term is positive: nothing overflows, and
    each entry is accurate relative to itself, however widely the input's
    entries range.  The matrices take O(n + L^2) memory at any eps.
    """

    def __init__(self, n: int, h: float, s: float, eps: float):
        L = math.isqrt((n - 1) // 2) + 1
        nb = -(-n // L)
        a, d = np.arange(L), np.arange(nb)
        mu = h * ((d - 1) * L) - eps
        geometric = (d >= 1) & (mu >= 0.0)
        band = (d >= 1) & (h * ((d + 1) * L - 1) <= eps)
        dense = np.flatnonzero(~(geometric | band))  # D = 0, then the band's edge
        self.n, self.pad = n, int(dense[-1])
        self.shape = (nb + 2 * self.pad, L)
        # output block I takes input blocks I, I - D and I + D, D in dense[1:]
        self.index = d[:, None] + self.pad + np.concatenate([[0], -dense[1:], dense[1:]])
        self.gathered = np.empty((nb, self.index.shape[1], L))
        self.blocks = np.empty((nb, L))
        self.out = self.blocks.reshape(-1)[:n]

        rho = np.maximum(h * np.abs(dense[:, None, None] * L + a[:, None] - a) - eps, 0.0)
        lag = d[:, None] - d
        below = np.maximum(lag, 0)  # 0 on and above the diagonal, where geometric[0] is False
        mu = np.maximum(mu, 0.0)
        g = np.where(geometric[below], np.exp(s * mu)[below], 0.0)
        g_mu = g * mu[below]
        ra, rb = np.exp(s * (h * a)), np.exp(s * (h * (L - a)))
        ha, hb = h * a, h * (L - a)
        far = [(ra, g, rb), (rb, g.T, ra)] if geometric.any() else []
        far_d = [(ha * ra, g, rb), (ra, g_mu, rb), (ra, g, hb * rb), (hb * rb, g.T, ra),
                 (rb, g_mu.T, ra), (rb, g.T, ha * ra)] if far else []
        if band.any():
            ones = np.ones(L)
            far.append((ones, band[np.abs(lag)].astype(float), ones))

        def operator(blocks, terms):
            # a term (left, matrix, right) adds left[a] (matrix @ (V @ right))[I]
            near = np.concatenate([blocks[0], *blocks[1:].transpose(0, 2, 1), *blocks[1:]])
            T = len(terms)
            left, mats, right = np.zeros((T, L)), np.zeros((T, nb, nb)), np.zeros((T, L))
            for t, term in enumerate(terms):
                left[t], mats[t], right[t] = term
            sums, carries = np.empty((T, nb)), np.empty((T, nb, 1))
            return (near, right, sums, mats, sums[:, :, None], carries, carries[:, :, 0].T,
                    left, np.empty((nb, L)))

        k = np.exp(s * rho)
        self.ops = (operator(k, far), operator(rho * k, far_d))

    def vector(self) -> tuple[tuple, np.ndarray]:
        """A zero vector: the handle ``apply`` takes, and the view of its n entries."""
        buffer = np.zeros(self.shape)
        # the near field's input: the gathered blocks, or the buffer when no D > 0
        rows = self.gathered.reshape(len(self.index), -1) if self.pad else buffer
        handle = (buffer if self.pad else None, rows, rows[:, : self.shape[1]].T)
        return handle, buffer[self.pad:].reshape(-1)[: self.n]

    def apply(self, handle: tuple, derivative: bool = False) -> np.ndarray:
        """K v, or K_d v when ``derivative``, in ``self.out`` until the next product."""
        near, right, sums, mats, sums3, carries, carries_t, left, far = self.ops[derivative]
        buffer, rows, own = handle
        if buffer is not None:
            np.take(buffer, self.index, axis=0, out=self.gathered, mode="clip")
        np.matmul(rows, near, out=self.blocks)
        np.matmul(right, own, out=sums)
        np.matmul(mats, sums3, out=carries)
        np.matmul(carries_t, left, out=far)
        np.add(self.blocks, far, out=self.blocks)
        return self.out


def ba_iterate(problem: BAProblem, tol: float = 1e-10, max_iter: int = 200_000) -> BAResult:
    """Run the fixed point from uniform q until a certified stall or max_iter.

    Each pass evaluates, at the current iterate, z = K q, the objective, the
    update's product w = K (p / z) and Blahut's gap log max w, then updates
    q.  The iterate has stalled once sup|q' - q| < tol, and the solve stops,
    converged, at the first stall once the smallest gap so far is at most
    1e-4 nats, so ``tol = math.inf``, where every step stalls, stops on that
    certificate alone.  The iterate with that gap is returned, converged or
    not.  The vectors live in the kernel's buffers, and the loop allocates nothing.
    """
    if not (tol > 0.0):
        raise ValueError("tol must be positive")
    max_iter = max(int(max_iter), 1)
    n = problem.x_grid.size
    kernel = _EpsKernel(n, problem.spacing, problem.s, problem.loss.epsilon)
    p = problem.p_mass
    (q_at, q), (next_at, q_next), (u_at, u), (best_at, best) = (
        kernel.vector() for _ in range(4))
    q[:] = 1.0 / n
    log_z, step, tiny = np.empty(n), np.empty(n), np.empty(n, dtype=bool)
    previous, lower, best_gap = math.inf, -math.inf, math.inf
    violations, max_rise, stalled = 0, 0.0, False
    for iterations in range(max_iter + 1):
        z = kernel.apply(q_at)
        np.maximum(z, _TINY, out=z)
        objective = -float(np.dot(p, np.log(z, out=log_z)))
        if objective > previous + 1e-12:
            violations += 1
            max_rise = max(max_rise, objective - previous)
        previous = objective
        np.divide(p, z, out=u)
        w = kernel.apply(u_at)
        gap = math.log(float(w.max()))
        lower = max(lower, objective - gap)
        if gap < best_gap:
            best_gap, best_objective = gap, objective
            np.copyto(best, q)
        converged = stalled and best_gap <= _CERTIFIED_GAP
        if converged or iterations == max_iter:
            break
        np.multiply(q, w, out=q_next)
        np.copyto(q_next, 0.0, where=np.less(q_next, _TINY, out=tiny))
        total = float(q_next.sum())
        if not 0.0 < total < math.inf:
            raise ArithmeticError("Blahut-Arimoto iterate became non-finite")
        np.divide(q_next, total, out=q_next)
        stalled = float(np.abs(np.subtract(q_next, q, out=step), out=step).max()) < tol
        (q_at, q), (next_at, q_next) = (next_at, q_next), (q_at, q)

    z = np.maximum(kernel.apply(best_at), _TINY)
    distortion = float(np.dot(p, kernel.apply(best_at, derivative=True) / z))
    return BAResult(q_mass=best.copy(), distortion=distortion,
                    rate=max(0.0, problem.s * distortion + best_objective),
                    iterations=iterations, converged=converged,
                    objective_violations=violations, max_objective_rise=max_rise,
                    gap=best_gap, certified_gap=min(best_objective - lower, best_gap))
