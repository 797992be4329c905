"""Uniform grids, sampled functions, and central-difference operators.

Differential operators in this package act on sampled functions by
second-order central differences. Each application drops the two boundary
samples, so a GridFunction remembers its own origin and step and the output
of an operator is simply a shorter GridFunction starting one step in.

A GridFunction holds one function (1-D samples) or a block of functions on
the same grid (2-D samples, one function per row). Operators and norms act
along the last axis, so each row of a block comes out as it would alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

MIN_SAMPLES = 9


@dataclass(frozen=True)
class GridSpec:
    """A uniform grid: n points starting at x0 with step dx."""

    x0: float
    dx: float
    n: int

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
    def points(self) -> np.ndarray:
        return self.x0 + self.dx * np.arange(self.n)

    def sample(self, fn) -> "GridFunction":
        return GridFunction(self.x0, self.dx, np.asarray(fn(self.points)))

    def interior(self, k: int) -> "GridSpec":
        """The grid with k points trimmed from each end."""
        return GridSpec(self.x0 + k * self.dx, self.dx, self.n - 2 * k)


@dataclass(frozen=True)
class GridFunction:
    """Complex samples of a function, or of a block of them, on a uniform grid."""

    x0: float
    dx: float
    samples: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "samples", np.asarray(self.samples))
        if self.dx <= 0.0:
            raise ValueError(f"grid step must be positive, got {self.dx}")
        if self.samples.ndim not in (1, 2):
            raise ValueError("samples must be one- or two-dimensional")
        if self.n < MIN_SAMPLES:
            raise ValueError(
                f"grid function needs at least {MIN_SAMPLES} samples, got {self.n}"
            )

    @property
    def n(self) -> int:
        return self.samples.shape[-1]

    @property
    def x(self) -> np.ndarray:
        return self.x0 + self.dx * np.arange(self.n)

    @property
    def spec(self) -> GridSpec:
        return GridSpec(self.x0, self.dx, self.n)

    def interior(self, k: int) -> "GridFunction":
        if k <= 0:
            return self
        return GridFunction(self.x0 + k * self.dx, self.dx, self.samples[..., k:-k])

    def with_samples(self, samples: np.ndarray) -> "GridFunction":
        return GridFunction(self.x0, self.dx, samples)


def derivative(f: GridFunction) -> GridFunction:
    """Second-order central first derivative; output is 2 samples shorter."""
    d = f.samples[..., 2:] - f.samples[..., :-2]
    d /= 2.0 * f.dx
    return GridFunction(f.x0 + f.dx, f.dx, d)


def second_derivative(f: GridFunction) -> GridFunction:
    """Second-order central second derivative; output is 2 samples shorter."""
    d = f.samples[..., 2:] - 2.0 * f.samples[..., 1:-1]
    d += f.samples[..., :-2]
    d /= f.dx * f.dx
    return GridFunction(f.x0 + f.dx, f.dx, d)


def grid_norm(f: GridFunction):
    """Discrete L2 norm sqrt(dx * sum |f_i|^2); one per row for a block."""
    squares = np.abs(f.samples)
    np.square(squares, out=squares)  # in place: a block can be megabytes
    norms = np.sqrt(f.dx * np.sum(squares, axis=-1))
    return float(norms) if norms.ndim == 0 else norms


def multiply_exponential(f, rate: float):
    """e^{rate x} f for a GridFunction or a callable."""
    if isinstance(f, GridFunction):
        return f.with_samples(np.exp(rate * f.x) * f.samples)
    if callable(f):
        return lambda x: np.exp(rate * np.asarray(x, dtype=float)) * f(x)
    raise TypeError(f"cannot multiply object of type {type(f).__name__}")
