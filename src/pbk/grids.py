"""Uniform grids, sampled functions, and central-difference operators.

Differential operators in this package act on sampled functions by
second-order central differences. Each application drops the two boundary
samples, so the output of an operator is simply a shorter GridFunction
starting one step in. A trimmed grid keeps its parent's origin and counts
its start as an offset, so its points are the parent's points bit for bit
(origin + dx * i for the parent's index i) and tables kept for the parent
grid serve every trim as a column slice.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

MIN_SAMPLES = 9


@dataclass(frozen=True)
class GridSpec:
    """A uniform grid: n points origin + dx * i for i = offset .. offset + n - 1."""

    origin: float
    dx: float
    n: int
    offset: int = 0

    def __post_init__(self) -> None:
        if self.dx <= 0.0:
            raise ValueError(f"grid step must be positive, got {self.dx}")
        if self.n < MIN_SAMPLES:
            raise ValueError(f"grid needs at least {MIN_SAMPLES} points, got {self.n}")

    @classmethod
    def over(cls, lo: float, hi: float, n: int) -> "GridSpec":
        """Grid with n points spanning [lo, hi] inclusive."""
        if hi <= lo:
            raise ValueError(f"empty interval [{lo}, {hi}]")
        return cls(lo, (hi - lo) / (n - 1), n)

    @property
    def x0(self) -> float:
        """The first point."""
        return self.origin + self.dx * self.offset

    @property
    def points(self) -> np.ndarray:
        return self.origin + self.dx * np.arange(self.offset, self.offset + self.n)

    def sample(self, fn) -> "GridFunction":
        return GridFunction(self.origin, self.dx, np.asarray(fn(self.points)), self.offset)

    def interior(self, k: int) -> "GridSpec":
        """The grid with k points trimmed from each end."""
        return GridSpec(self.origin, self.dx, self.n - 2 * k, self.offset + k)


@dataclass(frozen=True)
class GridFunction:
    """Complex samples of a function on a uniform grid (see GridSpec)."""

    origin: float
    dx: float
    samples: np.ndarray = field(repr=False)
    offset: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "samples", np.asarray(self.samples))
        if self.dx <= 0.0:
            raise ValueError(f"grid step must be positive, got {self.dx}")
        if self.samples.ndim != 1:
            raise ValueError("samples must be one-dimensional")
        if self.samples.size < MIN_SAMPLES:
            raise ValueError(
                f"grid function needs at least {MIN_SAMPLES} samples, got {self.samples.size}"
            )

    @property
    def n(self) -> int:
        return self.samples.size

    @property
    def x0(self) -> float:
        return self.spec.x0

    @property
    def x(self) -> np.ndarray:
        return self.spec.points

    @property
    def spec(self) -> GridSpec:
        return GridSpec(self.origin, self.dx, self.n, self.offset)

    def interior(self, k: int) -> "GridFunction":
        if k <= 0:
            return self
        return GridFunction(self.origin, self.dx, self.samples[k:-k], self.offset + k)

    def with_samples(self, samples: np.ndarray) -> "GridFunction":
        return GridFunction(self.origin, self.dx, samples, self.offset)


def derivative(f: GridFunction) -> GridFunction:
    """Second-order central first derivative; output is 2 samples shorter."""
    d = (f.samples[2:] - f.samples[:-2]) / (2.0 * f.dx)
    return GridFunction(f.origin, f.dx, d, f.offset + 1)


def second_derivative(f: GridFunction) -> GridFunction:
    """Second-order central second derivative; output is 2 samples shorter."""
    d = (f.samples[2:] - 2.0 * f.samples[1:-1] + f.samples[:-2]) / (f.dx * f.dx)
    return GridFunction(f.origin, f.dx, d, f.offset + 1)


def grid_norm(f: GridFunction) -> float:
    """Discrete L2 norm sqrt(dx * sum |f_i|^2)."""
    return float(np.sqrt(f.dx * np.sum(np.abs(f.samples) ** 2)))


def same_grid(f: GridFunction, g: GridFunction, tol: float = 1e-9) -> bool:
    return (
        f.n == g.n
        and abs(f.dx - g.dx) <= tol * f.dx
        and abs(f.x0 - g.x0) <= tol * max(1.0, abs(f.x0))
    )


def multiply_exponential(f, rate: float):
    """e^{rate x} f for a GridFunction or a callable."""
    if isinstance(f, GridFunction):
        return f.with_samples(np.exp(rate * f.x) * f.samples)
    if callable(f):
        return lambda x: np.exp(rate * np.asarray(x, dtype=float)) * f(x)
    raise TypeError(f"cannot multiply object of type {type(f).__name__}")
