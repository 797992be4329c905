"""Uniform grids, sampled functions, and central-difference operators.

Differential operators in this package act on sampled functions by central
differences: nine points and eighth order for the first derivative, three
points and second order for the second. A GridFunction remembers its own
origin and step, so the output of an operator is simply a shorter
GridFunction starting four or one steps in.

A GridFunction holds one function (1-D samples) or a block of functions on
the same grid (2-D samples, one function per row). Operators and norms act
along the last axis, so each row of a block comes out as it would alone.
Those that would copy a whole block into a temporary work through it one
row at a time.

The tilted mode layer both models share lives here too. Each model has an
orthonormal mode table Phi_0..Phi_n and two biorthogonal families
varphi_n = e^{beta x} Phi_n and psi_n = e^{-beta x} Phi_n. mode_sum
evaluates every e^{tilt x} sum_k c_k Phi_k of either model, inner and gram
take inner products of such expansions from their coefficients and the
model's moment matrix, and the metric Theta = e^{-2 beta x} (apply_Theta,
apply_Theta_inv) maps varphi_n to psi_n in both.
"""

from __future__ import annotations

import mmap
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Any, Callable, Optional, Sequence, Tuple

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
    """Eighth-order central first derivative
    (672 (f_1 - f_{-1}) - 168 (f_2 - f_{-2}) + 32 (f_3 - f_{-3}) - 3 (f_4 - f_{-4})) / (840 h)
    (Fornberg 1988); output is 8 samples shorter."""
    s = f.samples
    # (((f_1 - f_{-1}) 4 - (f_2 - f_{-2})) 21/4 + (f_3 - f_{-3})) 32/3 - (f_4 - f_{-4}),
    # over 280 h, in place in one array
    d = s[..., 5:-3] - s[..., 3:-5]
    d *= 4.0
    d -= s[..., 6:-2]
    d += s[..., 2:-6]
    d *= 5.25
    d += s[..., 7:-1]
    d -= s[..., 1:-7]
    d *= 32.0 / 3.0
    d -= s[..., 8:]
    d += s[..., :-8]
    d /= 280.0 * f.dx
    return GridFunction(f.x0 + 4.0 * f.dx, f.dx, d)


def second_derivative(f: GridFunction) -> GridFunction:
    """Second-order central second derivative; output is 2 samples shorter."""
    d = f.samples[..., 2:] - 2.0 * f.samples[..., 1:-1]
    d += f.samples[..., :-2]
    d /= f.dx * f.dx
    return GridFunction(f.x0 + f.dx, f.dx, d)


def row_norm(row: np.ndarray, dx: float) -> float:
    """Discrete L2 norm sqrt(dx * sum |row_i|^2) of one row of samples with step dx."""
    squares = np.abs(row)
    np.square(squares, out=squares)
    return np.sqrt(dx * np.sum(squares))


def multiply_exponential(f, rate: float):
    """e^{rate x} f for a GridFunction, an Expansion or a callable. An
    Expansion takes the rate into its own tilt."""
    if isinstance(f, GridFunction):
        return f.with_samples(np.exp(rate * f.x) * f.samples)
    if isinstance(f, Expansion):
        return f.tilted(rate)
    if callable(f):
        return lambda x: np.exp(rate * np.asarray(x, dtype=float)) * f(x)
    raise TypeError(f"cannot multiply object of type {type(f).__name__}")


def apply_Theta(params, f):
    """Multiply by the metric Theta = e^{-2 beta x} of params' beta; maps
    varphi_n to psi_n in either model."""
    return multiply_exponential(f, -2.0 * params.beta)


def apply_Theta_inv(params, f):
    """Multiply by Theta^{-1} = e^{2 beta x}; maps psi_n back to varphi_n."""
    return multiply_exponential(f, 2.0 * params.beta)


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


def shared_mode_tables(mode_table: Callable, params,
                       grid: Optional[GridSpec] = None) -> Callable:
    """tables(n, x): the rows 0..n of mode_table(params, ., x), one table per node set.

    A node set, keyed by its contents, gets one read-only table of rows 0..n
    the first time it is asked for. A request for more rows replaces it,
    dropping the smaller table first; fewer rows are a row slice. Rows act
    point by point, so a slice equals the smaller table bit for bit. The
    tables live as long as the returned callable.

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
            held[key] = _mapped(mode_table(params, n, x))
        table = held[key][: n + 1]
        return table if run is None else table[:, run]

    return tables


def shared_moments(moments: Callable, params, n_min: int) -> Callable:
    """matrices(s, n): the n x n matrix moments(params, s, n), one per tilt s.

    The first request builds the tilts a battery pairs, 0, +-beta and
    +-2 beta of params' beta, in one stacked call of size max(n_min, n);
    any other tilt gets one matrix of size max(n_min, n) the first time it is
    asked for. A larger n replaces a tilt's matrix with a build of its own; a
    smaller n reads its leading n x n block. Each model builds its stack
    elementwise, entry by entry or row by row from a first row that is a
    cumulative product, so a slice and a block equal a fresh single build bit
    for bit. The read-only matrices live as long as the returned callable.
    """
    held = {}

    def build(tilts, n):
        stack = moments(params, tilts, max(n, n_min))
        stack.flags.writeable = False
        return stack

    def matrices(s: float, n: int) -> np.ndarray:
        if not held:
            beta = params.beta
            # keyed by float.hex: -0.0 gets its own matrix, as its zeros may carry a sign
            tilts = {t.hex(): t for t in (0.0, beta, -beta, 2.0 * beta, -2.0 * beta)}
            held.update(zip(tilts, build(np.array(list(tilts.values())), n)))
        key = float(s).hex()
        if key not in held or len(held[key]) < n:
            held[key] = build(s, n)
        return held[key][:n, :n]

    return matrices


def unit_coefficients(n: int, cap: int) -> np.ndarray:
    """The coefficients of mode n alone, n in 0..cap: a 1 after n zeros."""
    if not 0 <= n <= cap:
        raise ValueError(f"mode index must be in 0..{cap}, got {n}")
    coeffs = np.zeros(n + 1)
    coeffs[n] = 1.0
    return coeffs


@dataclass(frozen=True)
class Expansion:
    """e^{tilt * x} * sum_k coeffs[..., k] Phi_k(x) over one model's modes.

    A coefficient matrix is a block of functions, one per row; the identity
    is a family block. A model's subclass evaluates through mode_sum and gives
    moments(s, n), the n x n matrix (Phi_m, e^{s x} Phi_j) that inner and gram
    read. tables, a shared_mode_tables callable or None, and matrices, a
    shared_moments callable or None, are passed on.
    """

    params: Any
    tilt: float
    coeffs: np.ndarray = field(repr=False)
    tables: Optional[Callable] = field(default=None, repr=False, compare=False)
    matrices: Optional[Callable] = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeffs", np.atleast_1d(np.asarray(self.coeffs)))

    def with_coeffs(self, coeffs: np.ndarray):
        """Same params, tilt, tables and matrices, new coefficients."""
        return replace(self, coeffs=coeffs)

    def tilted(self, extra_tilt: float):
        """Multiply by e^{extra_tilt * x}."""
        return replace(self, tilt=self.tilt + extra_tilt)


def pad(c: np.ndarray, n: int) -> np.ndarray:
    """c with its last axis zero-padded to length n."""
    if c.shape[-1] >= n:
        return c
    out = np.zeros(c.shape[:-1] + (n,), dtype=c.dtype)
    out[..., : c.shape[-1]] = c
    return out


def _moment_pair(f: Expansion, g: Expansion):
    """conj(c_f) G(t_f + t_g) and c_g, padded to one length."""
    n = max(f.coeffs.shape[-1], g.coeffs.shape[-1])
    return np.conj(pad(f.coeffs, n)) @ f.moments(f.tilt + g.tilt, n), pad(g.coeffs, n)


def inner(f: Expansion, g: Expansion):
    """<f, g> = integral of conj(f) g over the model's domain, from coefficients.

    Row i of a block pairs with row i of a block in the other slot, and a
    single expansion pairs with every row of the other. Two single
    expansions give a complex, anything else the array of products.
    """
    left, right = _moment_pair(f, g)
    total = np.sum(left * right, axis=-1)
    return total if total.ndim else complex(total)


def gram(fs: Sequence[Expansion], gs: Sequence[Expansion]) -> np.ndarray:
    """The matrix of <f_i, g_j> over every row of the expansions fs and gs:
    conj(C_f) G(t_f + t_g) C_g^T, block by block."""
    return np.block([[np.atleast_2d(left) @ np.atleast_2d(right).T
                      for left, right in (_moment_pair(f, g) for g in gs)] for f in fs])


def mode_sum(mode_table: Callable, params, tables: Optional[Callable], coeffs: np.ndarray,
             tilt: float, x, support: Optional[Tuple[float, float]] = None):
    """e^{tilt x} sum_k coeffs[..., k] Phi_k(x), zero outside the closed
    interval support if one is given.

    Phi_k is row k of tables(n, x), a shared_mode_tables callable for params,
    or else of a fresh mode_table(params, n, x), which is freed as soon as the
    sum is formed. A coefficient matrix gives one row per function; the
    identity matrix is a family block, whose rows are the table's own times
    e^{tilt x}, with no matrix product. A scalar x gives a float (a complex
    for complex coefficients), or one value per row of a block.
    """
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    rows = coeffs.shape[-1]
    table = (tables or partial(mode_table, params))(rows - 1, x_arr)
    if coeffs.shape == (rows, rows) and np.array_equal(coeffs, np.eye(rows)):
        vals = table * np.exp(tilt * x_arr)
    else:
        vals = coeffs @ table.reshape(rows, -1)
        vals = vals.reshape(coeffs.shape[:-1] + x_arr.shape)
        vals *= np.exp(tilt * x_arr)
    del table  # an unshared table is freed before the support mask copies vals
    if support is not None:
        vals = np.where((x_arr >= support[0]) & (x_arr <= support[1]), vals, 0.0)
    if np.ndim(x):
        return vals
    vals = vals[..., 0]
    if vals.ndim:
        return vals
    return complex(vals) if np.iscomplexobj(vals) else float(vals)
