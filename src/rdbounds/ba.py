"""Discretized Blahut-Arimoto fixed-point solver for rate-distortion points.

The solver sweeps the slope parameter: for each s < 0 it iterates the
reproduction-marginal fixed point

    q[j] <- q[j] * sum_i p[i] K[i, j] / (K q)[i],      K[i, j] = exp(s * rho(x_i - y_j))

starting from the uniform distribution.  Identical uniform source and
reproduction grids make K symmetric Toeplitz, so both matrix products per
iteration are circular convolutions through numpy's FFT at a power-of-two
length (O(N log N), O(N) kernel storage).

The variational objective F(q) = -sum_i p[i] log (K q)[i] is evaluated at
every iterate; the update never increases it, which is checked against the
previous iterate with 1e-12 slack, and any violation is counted in the result
instead of aborting the sweep.
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
    It is reported only; neither the iterates nor the stop rule read it.
    """

    q_mass: np.ndarray
    distortion: float
    rate: float
    iterations: int
    converged: bool
    objective_violations: int = 0
    max_objective_rise: float = 0.0
    gap: float = math.nan


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


class _ToeplitzKernel:
    """FFT circular-convolution application of the symmetric Toeplitz kernel."""

    def __init__(self, values: np.ndarray):
        n = values.size
        self.n = n
        # the smallest power of two >= 2n - 1 holds the linear convolution unwrapped
        self.size = 1 << (2 * n - 2).bit_length()
        col = np.zeros(self.size)
        col[:n] = values
        col[self.size - n + 1 :] = values[1:][::-1]
        self.f_col = np.fft.rfft(col)

    def apply(self, v: np.ndarray) -> np.ndarray:
        fv = np.fft.rfft(v, self.size)
        return np.fft.irfft(self.f_col * fv, self.size)[: self.n]


def ba_iterate(problem: BAProblem, tol: float = 1e-10, max_iter: int = 200_000) -> BAResult:
    """Run the fixed point from uniform q until sup|q' - q| < tol or max_iter.

    Non-convergence is reported through the ``converged`` flag; the last
    iterate is still returned.
    """
    if not (tol > 0.0):
        raise ValueError("tol must be positive")
    max_iter = max(int(max_iter), 1)
    n = problem.x_grid.size
    offsets = problem.spacing * np.arange(n)
    rho = problem.loss(offsets)
    kernel = _ToeplitzKernel(np.exp(problem.s * rho))
    kernel_d = _ToeplitzKernel(np.exp(problem.s * rho) * rho)
    p = problem.p_mass
    p_idx = p > 0.0

    q = np.full(n, 1.0 / n)
    previous = math.inf
    violations = 0
    max_rise = 0.0
    converged = False
    # each pass evaluates z and F at the current q (after `iterations` updates),
    # then stops or updates q
    for iterations in range(max_iter + 1):
        z = np.maximum(kernel.apply(q), _TINY)
        objective = -float(np.dot(p[p_idx], np.log(z[p_idx])))
        if objective > previous + 1e-12:
            violations += 1
            max_rise = max(max_rise, objective - previous)
        previous = objective
        if converged or iterations == max_iter:
            break
        q_next = q * kernel.apply(p / z)
        q_next[q_next < _TINY] = 0.0
        q_next /= q_next.sum()
        if not np.all(np.isfinite(q_next)):
            raise ArithmeticError("Blahut-Arimoto iterate became non-finite")
        converged = float(np.max(np.abs(q_next - q))) < tol
        q = q_next

    distortion = float(np.dot(p[p_idx], kernel_d.apply(q)[p_idx] / z[p_idx]))
    rate = max(0.0, problem.s * distortion + objective)
    gap = math.log(float(np.max(kernel.apply(p / z))))
    return BAResult(
        q_mass=q,
        distortion=distortion,
        rate=rate,
        iterations=iterations,
        converged=converged,
        objective_violations=violations,
        max_objective_rise=max_rise,
        gap=gap,
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
