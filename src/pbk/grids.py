"""Uniform grids, sampled functions, and central-difference operators.

Differential operators in this package act on sampled functions by
second-order central differences. Each application drops the two boundary
samples, so a GridFunction remembers its own origin and step and the output
of an operator is simply a shorter GridFunction starting one step in.

A GridFunction holds one function (1-D samples) or a block of functions on
the same grid (2-D samples, one function per row). Operators and norms act
along the last axis, so each row of a block comes out as it would alone.
Those that would copy a whole block into a temporary work through it one
row at a time.
"""

from __future__ import annotations

import mmap
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

MIN_SAMPLES = 9
ON_GRID = 1e-9  # a point this many steps from a grid point is on it, up to rounding


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

    def interior(self, k: int) -> "GridFunction":
        if k <= 0:
            return self
        return GridFunction(self.x0 + k * self.dx, self.dx, self.samples[..., k:-k])

    def with_samples(self, samples: np.ndarray) -> "GridFunction":
        return GridFunction(self.x0, self.dx, samples)

    def rows(self) -> np.ndarray:
        """The samples as a 2-D view, one row per function."""
        return self.samples.reshape(-1, self.n)


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
    rows = f.rows()
    sums = np.empty(len(rows))
    for i, row in enumerate(rows):
        squares = np.abs(row)
        np.square(squares, out=squares)
        sums[i] = np.sum(squares)
    norms = np.sqrt(f.dx * sums).reshape(f.samples.shape[:-1])
    return float(norms) if norms.ndim == 0 else norms


def multiply_exponential(f, rate: float):
    """e^{rate x} f for a GridFunction or a callable."""
    if isinstance(f, GridFunction):
        return f.with_samples(np.exp(rate * f.x) * f.samples)
    if callable(f):
        return lambda x: np.exp(rate * np.asarray(x, dtype=float)) * f(x)
    raise TypeError(f"cannot multiply object of type {type(f).__name__}")


def _mapped(table: np.ndarray) -> np.ndarray:
    """A read-only copy of table in a memory mapping of its own.

    A shared table outlives the blocks computed from it. On the heap it would
    sit among them and keep their freed space from being reused or returned
    to the system; its own mapping is returned whole when it is dropped.
    """
    copy = np.frombuffer(mmap.mmap(-1, max(table.nbytes, 1)), dtype=table.dtype,
                         count=table.size).reshape(table.shape)
    copy[...] = table
    copy.flags.writeable = False
    return copy


def shared_mode_tables(mode_table: Callable, params, n_max: int,
                       grid: Optional[GridSpec] = None) -> Callable:
    """tables(n, x): the rows 0..n of mode_table(params, ., x), one table per node set.

    A node set, keyed by its contents, gets one read-only table of rows
    0..max(n_max, n) the first time it is asked for. A request for more rows
    replaces it, dropping the smaller table first; fewer rows are a row
    slice. Rows act point by point, so a slice equals the smaller table bit
    for bit. The tables live as long as the returned callable.

    Points that lie on a run of grid's points to within rounding, as an
    operator output's do, read a column slice of grid's table: they are
    served at grid's own points.
    """
    held = {}
    points = None if grid is None else grid.points

    def tables(n: int, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        run = None
        if points is not None and x.ndim == 1 and 0 < x.size < points.size:
            k = round((x[0] - grid.x0) / grid.dx)
            if 0 <= k <= points.size - x.size and np.allclose(
                    x, points[k : k + x.size], rtol=0.0, atol=ON_GRID * grid.dx):
                x, run = points, slice(k, k + x.size)
        key = (x.shape, x.tobytes())
        if key not in held or len(held[key]) <= n:
            held.pop(key, None)
            held[key] = _mapped(mode_table(params, max(n, n_max), x))
        table = held[key][: n + 1]
        return table if run is None else table[:, run]

    return tables
