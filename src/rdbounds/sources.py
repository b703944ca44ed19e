"""Source models: Laplacian, Gaussian, and tabulated piecewise-constant densities.

Each source exposes the four quantities every bound needs: the density, its
differential entropy h(p) in nats, its variance, and the zero-rate distortion
d_max(loss) = inf_y E[loss(X - y)].  The Gaussian's methods import
scipy.special where they call it, so that no other source loads scipy.
"""

from __future__ import annotations

import bisect
import math
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from .tilted import EpsilonLoss

__all__ = [
    "Source",
    "Laplacian",
    "Gaussian",
    "Tabulated",
    "erfc_tail",
    "load_tabulated_csv",
]

def erfc_tail(x):
    """Upper-tail standard normal probability P(Z > x), accurate to ~1e-16."""
    from scipy import special

    x = np.asarray(x, dtype=float)
    out = 0.5 * special.erfc(x / math.sqrt(2.0))
    return out if out.ndim else float(out)


def _check_grid(grid, masses, grid_name: str, mass_name: str):
    """Read-only copies of a uniform grid and its masses, the masses renormalized.

    The grid must be 1-d, strictly increasing and uniform to 1e-8; the masses
    must be finite, nonnegative and sum to 1 within 1e-9.
    """
    grid = np.asarray(grid, dtype=float).copy()
    masses = np.asarray(masses, dtype=float).copy()
    if grid.ndim != 1 or grid.size < 2 or masses.shape != grid.shape:
        raise ValueError(f"{grid_name} and {mass_name} must be 1-d arrays of equal length >= 2")
    steps = np.diff(grid)
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

    def mean(self) -> float:
        return 0.0

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
        a = float(self.alpha)
        if not math.isfinite(a) or a <= 0.0:
            raise ValueError(f"alpha must be a finite positive real, got {self.alpha!r}")
        object.__setattr__(self, "alpha", a)

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
        v = float(self.sigma2)
        if not math.isfinite(v) or v <= 0.0:
            raise ValueError(f"sigma2 must be a finite positive real, got {self.sigma2!r}")
        object.__setattr__(self, "sigma2", v)

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
        return 2.0 * (self.sigma2 * self.pdf(eps) - eps * erfc_tail(eps / self.sigma))

    def tail_mass(self, t: float) -> float:
        from scipy import special

        return float(special.erfc(max(t, 0.0) / (self.sigma * math.sqrt(2.0))))

    def tail_span(self, mass: float) -> float:
        from scipy import special

        return self.sigma * math.sqrt(2.0) * float(special.erfcinv(mass))


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


def load_tabulated_csv(path) -> Tabulated:
    """Load a tabulated source from a two-column CSV of (x, mass) rows.

    An optional single header line is skipped, and so is a UTF-8 byte-order
    mark, which would otherwise make a first data row look like a header.
    Masses must sum to 1 within 1e-6 and are renormalized; anything further
    off is rejected.
    """
    xs: list[float] = []
    ms: list[float] = []
    with open(path, "r", encoding="utf-8-sig") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            parts = [p.strip() for p in line.split(",")]
            if len(parts) != 2:
                raise ValueError(f"{path}: line {lineno}: expected two comma-separated columns")
            try:
                x, m = float(parts[0]), float(parts[1])
            except ValueError:
                if lineno == 1 and not xs:
                    continue  # header
                raise ValueError(f"{path}: line {lineno}: non-numeric row") from None
            xs.append(x)
            ms.append(m)
    if len(xs) < 2:
        raise ValueError(f"{path}: needs at least two data rows")
    masses = np.asarray(ms, dtype=float)
    total = float(masses.sum())
    if abs(total - 1.0) > 1e-6:
        raise ValueError(f"{path}: masses sum to {total!r}, outside 1 +/- 1e-6")
    return Tabulated(grid=np.asarray(xs, dtype=float), masses=masses / total)
