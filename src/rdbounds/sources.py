"""Source models: Laplacian, Gaussian, and tabulated piecewise-constant densities.

Each source exposes the four quantities every bound needs: the density, its
differential entropy h(p) in nats, its variance, and the zero-rate distortion
d_max(loss) = inf_y E[loss(X - y)].  The Gaussian's tails come from the
standard library's erfc and normal quantile, so no source loads scipy.  Its
d_max is a difference that cancels as eps / sigma grows, so from eps = 2
sigma on it is written through the continued fraction of the Mills ratio.
"""

from __future__ import annotations

import bisect
import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .tilted import EpsilonLoss, _positive

__all__ = [
    "Source",
    "Laplacian",
    "Gaussian",
    "Tabulated",
    "load_tabulated_csv",
]


def _check_grid(grid, masses, grid_name: str, mass_name: str):
    """Read-only copies of a uniform grid and its masses, the masses renormalized.

    The grid must be 1-d with finite values, steps and span, strictly increasing
    and uniform to 1e-8; the masses finite, nonnegative, summing to 1 within 1e-9.
    """
    grid = np.asarray(grid, dtype=float).copy()
    masses = np.asarray(masses, dtype=float).copy()
    if grid.ndim != 1 or grid.size < 2 or masses.shape != grid.shape:
        raise ValueError(f"{grid_name} and {mass_name} must be 1-d arrays of equal length >= 2")
    with np.errstate(over="ignore", invalid="ignore"):
        steps = np.diff(grid)
        span = grid[-1] - grid[0]
    # NaN fails every comparison below, and an overflowing span makes the mean step inf
    if not (np.all(np.isfinite(steps)) and np.isfinite(span)):
        raise ValueError(f"{grid_name} values, steps and span must be finite")
    if np.any(steps <= 0):
        raise ValueError(f"{grid_name} must be strictly increasing")
    h = float(steps.mean())
    if np.max(np.abs(steps - h)) > 1e-8 * max(h, 1.0):
        raise ValueError(f"{grid_name} must be uniformly spaced")
    if np.any(masses < 0) or np.any(~np.isfinite(masses)):
        raise ValueError(f"{mass_name} must be finite and nonnegative")
    total = float(masses.sum())
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"{mass_name} must sum to 1 within 1e-9, got {total!r}")
    masses /= total
    grid.setflags(write=False)
    masses.setflags(write=False)
    return grid, masses


class Source(ABC):
    """Immutable source density with the summaries the bounds consume."""

    @abstractmethod
    def pdf(self, x):
        """Density evaluated at x (vectorized)."""

    @abstractmethod
    def differential_entropy(self) -> float:
        """h(p) in nats."""

    @abstractmethod
    def variance(self) -> float: ...

    @abstractmethod
    def d_max(self, loss: EpsilonLoss) -> float:
        """Smallest distortion achievable at zero rate: inf_y E[loss(X - y)]."""

    @abstractmethod
    def tail_mass(self, t: float) -> float:
        """P(|X| > t)."""

    @abstractmethod
    def tail_span(self, mass: float) -> float:
        """Half-width T with tail_mass(T) <= mass."""


@dataclass(frozen=True)
class Laplacian(Source):
    """Two-sided exponential density (alpha/2) exp(-alpha |x|)."""

    alpha: float

    def __post_init__(self):
        object.__setattr__(self, "alpha", _positive(self.alpha, "alpha"))

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        out = 0.5 * self.alpha * np.exp(-self.alpha * np.abs(x))
        return out if out.ndim else float(out)

    def differential_entropy(self) -> float:
        return 1.0 - math.log(self.alpha / 2.0)

    def variance(self) -> float:
        return 2.0 / self.alpha**2

    def d_max(self, loss: EpsilonLoss) -> float:
        return math.exp(-self.alpha * loss.epsilon) / self.alpha

    def tail_mass(self, t: float) -> float:
        return math.exp(-self.alpha * max(t, 0.0))

    def tail_span(self, mass: float) -> float:
        return -math.log(mass) / self.alpha


@dataclass(frozen=True)
class Gaussian(Source):
    """Zero-mean normal density with variance sigma2."""

    sigma2: float

    def __post_init__(self):
        object.__setattr__(self, "sigma2", _positive(self.sigma2, "sigma2"))

    @property
    def sigma(self) -> float:
        return math.sqrt(self.sigma2)

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        out = np.exp(-0.5 * x * x / self.sigma2) / math.sqrt(2.0 * math.pi * self.sigma2)
        return out if out.ndim else float(out)

    def differential_entropy(self) -> float:
        return 0.5 * (1.0 + math.log(2.0 * math.pi * self.sigma2))

    def variance(self) -> float:
        return self.sigma2

    def d_max(self, loss: EpsilonLoss) -> float:
        eps = loss.epsilon
        t = eps / self.sigma
        if t < 2.0:
            return 2.0 * self.sigma2 * self.pdf(eps) - eps * self.tail_mass(eps)
        # 2 sigma (phi(t) - t Q(t)) cancels as t grows; with the Mills ratio
        # Q(t) / phi(t) = 1 / (t + E) it is 2 sigma phi(t) E / (t + E), where
        # E = 1 / (t + 2 / (t + 3 / (t + ...))) is summed from the bottom; the
        # term count reaches round-off at every t >= 2 (162 terms at t = 2)
        tail = 0.0
        for k in range(12 + int(600.0 / (t * t)), 1, -1):
            tail = k / (t + tail)
        e = 1.0 / (t + tail)
        phi = math.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi)
        return 2.0 * self.sigma * phi * e / (t + e)

    def tail_mass(self, t: float) -> float:
        return math.erfc(max(t, 0.0) / (self.sigma * math.sqrt(2.0)))

    def tail_span(self, mass: float) -> float:
        return -self.sigma * NormalDist().inv_cdf(mass / 2.0)


@dataclass(frozen=True)
class Tabulated(Source):
    """Piecewise-constant density: mass m_i spread over the cell around grid point x_i.

    The grid must be uniform and strictly increasing; masses must be
    nonnegative and sum to 1 within 1e-9 (they are renormalized exactly).
    """

    grid: np.ndarray
    masses: np.ndarray

    def __post_init__(self):
        grid, masses = _check_grid(self.grid, self.masses, "grid", "masses")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "masses", masses)

    @property
    def spacing(self) -> float:
        return float(self.grid[1] - self.grid[0])

    @property
    def edges(self) -> np.ndarray:
        """The grid.size + 1 cell edges, grid -+ h/2."""
        h = self.spacing
        return np.concatenate([self.grid - 0.5 * h, [self.grid[-1] + 0.5 * h]])

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        h = self.spacing
        idx = np.floor((x - (self.grid[0] - 0.5 * h)) / h).astype(int)
        inside = (idx >= 0) & (idx < self.grid.size)
        out = np.where(inside, self.masses[np.clip(idx, 0, self.grid.size - 1)] / h, 0.0)
        return out if out.ndim else float(out)

    def differential_entropy(self) -> float:
        m = self.masses[self.masses > 0]
        return float(-np.sum(m * np.log(m / self.spacing)))

    def variance(self) -> float:
        # each cell spreads its mass uniformly, which adds h^2 / 12
        mu = self.mean()
        return float(np.dot(self.masses, self.grid**2) - mu * mu + self.spacing**2 / 12.0)

    def mean(self) -> float:
        return float(np.dot(self.masses, self.grid))

    def d_max(self, loss: EpsilonLoss) -> float:
        # E[loss(X - y)] is convex in y with derivative F(y - eps) + F(y + eps) - 1,
        # linear between the breaks (cell edge) -+ eps; its zero is interpolated
        eps = loss.epsilon
        edges = self.edges
        cdf = np.concatenate([[0.0], np.cumsum(self.masses)])
        ys = np.sort(np.concatenate([edges - eps, edges + eps]))
        both = np.interp(ys - eps, edges, cdf) + np.interp(ys + eps, edges, cdf)
        k = int(np.searchsorted(both, 1.0))
        y_star = ys[k] - (both[k] - 1.0) * (ys[k] - ys[k - 1]) / (both[k] - both[k - 1])
        # sign(t) max(|t| - eps, 0)^2 / 2 is the antiderivative of the loss
        t = edges - y_star
        antider = np.sign(t) * 0.5 * np.maximum(np.abs(t) - eps, 0.0) ** 2
        return float(np.dot(self.masses, np.diff(antider)) / self.spacing)

    def tail_mass(self, t: float) -> float:
        return float(self.masses[np.abs(self.grid) > t].sum())

    def tail_span(self, mass: float) -> float:
        """Outer edge |x| + h/2 of the smallest grid |x| with tail_mass(|x|) <= mass.

        A grid cut at this span holds every kept cell whole.
        """
        spans = np.unique(np.abs(self.grid))
        # over the sorted spans the test is False, then True from some span on
        first = bisect.bisect_left(spans, True, key=lambda t: self.tail_mass(t) <= mass)
        return float(spans[min(first, spans.size - 1)]) + 0.5 * self.spacing


def _row_error(line: str) -> str:
    """What is wrong with a line of a CSV source: '' for an (x, mass) row."""
    parts = line.split(",")
    if len(parts) != 2:
        return "expected two comma-separated columns"
    try:
        float(parts[0]), float(parts[1])
    except ValueError:
        return "non-numeric row"
    return ""


def load_tabulated_csv(path) -> Tabulated:
    """Load a tabulated source from a two-column CSV of (x, mass) rows.

    An optional single header line is skipped, and so is a UTF-8 byte-order
    mark, which would otherwise make a first data row look like a header;
    blank lines are skipped.  One np.loadtxt call parses the rows; a file it
    rejects is read again line by line, to name the first bad line.  Masses
    must sum to 1 within 1e-6 and are renormalized; anything further off is
    rejected.
    """
    with open(path, "r", encoding="utf-8-sig") as handle:
        lines = handle.read().split("\n")
    header = _row_error(lines[0]) == "non-numeric row"
    rows = [line for line in lines[header:] if line.strip()]
    if not rows:
        raise ValueError(f"{path}: needs at least two data rows")
    try:
        table = np.loadtxt(rows, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        table = np.empty((0, 0))
    if table.shape[1] != 2:
        for lineno, line in enumerate(lines[header:], start=header + 1):
            if line.strip() and _row_error(line):
                raise ValueError(f"{path}: line {lineno}: {_row_error(line)}")
        raise ValueError(f"{path}: a row that is not two numbers")
    if table.shape[0] < 2:
        raise ValueError(f"{path}: needs at least two data rows")
    masses = table[:, 1]
    total = float(masses.sum())
    if abs(total - 1.0) > 1e-6:
        raise ValueError(f"{path}: masses sum to {total!r}, outside 1 +/- 1e-6")
    return Tabulated(grid=table[:, 0], masses=masses / total)
