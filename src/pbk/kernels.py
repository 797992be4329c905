"""Pricing kernels p1 and p2 for both models, by spectral sum and closed form.

Both kernels share one implementation with a tilt t = s beta on the
prefactor e^{t (x - x')}: s = +1 gives p1, s = -1 gives p2, so the "replace
beta by -beta" duality holds bit-for-bit by construction.

_model(params) is the one place that reads the type of the params: it gives
the model's record (name, modes, cap, energies, mode table, spectral, closed
and payoff-coefficient functions, open interval) or refuses other params with
a TypeError. Both models share one spectral sum, e^{t (x - x')} sum_n
e^{-tau E_n} Phi_n(x) Phi_n(x') over x and x' broadcast against each other.
kernel_values is the one array-in, array-out entry point; kernel_rows checks
the same requests and reads one mode table per call through the same sum.

The spectral sum stops where its decay bound says: one rule keeps mode n
while e^{-tau (E_n - E_0)} >= 1e-16, the theta3 cutoff, reading the model's
eigenvalue before any table is built. That is N = floor(36.84 / tau) for the
oscillator and N = floor(sqrt(1 + 36.84 / (tau k^2)) - 1) between the
barriers. A tau whose N is above the model's mode cap is refused.

The closed forms are a Mehler-type Gaussian for the whole-line model and a
Jacobi theta-3 combination for the interval model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple, Optional, Tuple, Union

import numpy as np

from . import barrier as bar, harmonic as har
from .barrier import MAX_SINE_MODES, BarrierParams
from .harmonic import HarmonicParams
# not called here: perfbench/tracing.py patches this name in this module
from .specialfn import hermite_function_sequence  # noqa: F401
from .specialfn import KEPT_DECAY, MAX_DEGREE, THETA_TERM_CUTOFF, theta3

ModelParams = Union[HarmonicParams, BarrierParams]

_SIGNS = {"p1": 1.0, "p2": -1.0}
_METHODS = ("spectral", "closed")


class _Model(NamedTuple):
    """What the kernels and prices read of one model."""

    name: str
    modes: str  # the word for its modes in a refusal
    mode_cap: int  # the highest mode a spectral sum may keep
    eigenvalue: Callable  # (params, n) -> E_n
    mode_table: Callable  # (params, n_max, y) -> rows Phi_0..Phi_{n_max} at y
    spectral_values: Callable  # (params, x, x', tau, tilts[, table]) -> [(value, tail)]
    closed_value: Callable  # (params, x, x', tau, tilts) -> [value], one per tilt
    # (params, payoff, tilt, x, rows Phi_0..Phi_N at the log-strike) -> c_0..c_N
    payoff_coefficients: Callable
    interval: Tuple[float, float]  # the open interval points must lie in


def _model(params: ModelParams) -> _Model:
    """The record of the params' model, built from module attributes on every
    call so that a wrapper installed over one of them sees every evaluation; a
    TypeError refuses params of neither model."""
    if isinstance(params, HarmonicParams):
        return _Model("harmonic", "oscillator", MAX_DEGREE, har.eigenvalue, har.mode_table,
                      harmonic_spectral_values, harmonic_closed_value,
                      har.payoff_coefficients, (-math.inf, math.inf))
    if isinstance(params, BarrierParams):
        return _Model("barrier", "sine", MAX_SINE_MODES, bar.eigenvalue, bar.mode_table,
                      barrier_spectral_values, barrier_closed_value,
                      bar.payoff_coefficients, (params.a, params.b))
    raise TypeError(f"params must be HarmonicParams or BarrierParams, "
                    f"got {type(params).__name__}")


# ---------------------------------------------------------------------------
# spectral sums


def _spectral_sum(table: np.ndarray, energies: np.ndarray, x, x_prime, tau: float,
                  tilts):
    """One (value, tail) pair per tilt: e^{tilt (x - x')} sum_n e^{-tau E_n}
    Phi_n(x) Phi_n(x') with x and x' broadcast against each other, and the
    magnitude of the last included term, both of the points' broadcast shape.

    table holds the rows Phi_n, one per energy E_n, at the points of x and
    then of x', raveled; the tilt-free sum is formed once for every tilt."""
    x, xp = np.asarray(x, dtype=float), np.asarray(x_prime, dtype=float)
    shape = np.broadcast_shapes(x.shape, xp.shape)
    nd = max(x.ndim, xp.ndim, 1)
    x, xp = (y.reshape((1,) * (nd - y.ndim) + y.shape) for y in (x, xp))
    table_x, table_xp = np.split(table, [x.size], axis=1)
    terms = ((np.exp(-tau * energies).reshape((-1,) + (1,) * nd)
              * table_x.reshape((-1,) + x.shape)) * table_xp.reshape((-1,) + xp.shape))
    total, last = np.sum(terms, axis=0), terms[-1]
    pairs = []
    for tilt in tilts:
        prefactor = np.exp(tilt * (x - xp))
        pairs.append(((prefactor * total).reshape(shape),
                      np.abs(prefactor * last).reshape(shape)))
    return pairs


@lru_cache(maxsize=16)
def _energies(eigenvalue: Callable, params: ModelParams, cap: int) -> np.ndarray:
    """eigenvalue(params, 0..cap + 1), computed once per params; read-only."""
    energies = eigenvalue(params, np.arange(cap + 2))
    energies.flags.writeable = False
    return energies


def _kept_energies(params: ModelParams, tau: float) -> np.ndarray:
    """E_0..E_N, the modes with tau (E_n - E_0) <= KEPT_DECAY; a ValueError
    refuses a tau that needs more than the model's cap. Only energies are
    compared, so no tau and no k^2 can overflow or divide by zero here."""
    model = _model(params)
    cap = model.mode_cap
    energies = _energies(model.eigenvalue, params, cap)
    with np.errstate(over="ignore"):  # an overflowing decay is a dropped mode
        top = int(np.count_nonzero(tau * (energies[1:] - energies[0]) <= KEPT_DECAY))
    if top > cap:
        raise ValueError(f"the spectral sum at tau = {tau} needs more than the {cap + 1} "
                         f"{model.modes} modes 0..{cap} before e^(-tau (E_n - E_0)) falls "
                         f"below {THETA_TERM_CUTOFF:g}")
    return energies[:top + 1]


def top_mode(params: ModelParams, tau: float) -> int:
    """The top mode N the spectral sum of the params' model keeps at tau."""
    return _kept_energies(params, tau).size - 1


def _spectral_values(params: ModelParams, x, x_prime, tau: float, tilts,
                     table: Optional[np.ndarray] = None):
    """(value, tail) per tilt of the params' model's spectral sum over modes
    0..top_mode, from one mode table on the points of x and x' together. A
    given table may have more rows: tables act point by point and build row
    n from the rows below it, so its first top_mode + 1 rows are that table."""
    energies = _kept_energies(params, tau)
    if table is None:
        points = np.concatenate((np.ravel(x), np.ravel(x_prime))).astype(float)
        table = _model(params).mode_table(params, energies.size - 1, points)
    return _spectral_sum(table[:energies.size], energies, x, x_prime, tau, tilts)


# each model's name for the one sum: perfbench/tracing.py wraps it at these names
harmonic_spectral_values = barrier_spectral_values = _spectral_values


# ---------------------------------------------------------------------------
# closed forms


def harmonic_closed_value(params: HarmonicParams, x, x_prime, tau: float, tilts):
    """Gaussian closed form of the damped-oscillator propagator, one value
    per tilt.

    The bilinear Hermite sum with weight z^n collapses to
    (1-z^2)^{-1/2} exp[(2uvz - z^2(u^2+v^2))/(1-z^2)] times the ground
    Gaussians; everything is assembled in one exponent for stability.
    """
    xp = np.asarray(x_prime, dtype=float)
    z = math.exp(-tau)
    one_minus = -math.expm1(-2.0 * tau)  # 1 - z^2, accurate for small tau
    u = params.scaled_argument(x)
    v = params.scaled_argument(xp)
    norm = 1.0 / (params.sigma * math.sqrt(math.pi * one_minus))
    return [norm * np.exp(-tau * params.delta
                          + tilt * (x - xp)
                          - 0.5 * (u * u + v * v)
                          + (2.0 * u * v * z - z * z * (u * u + v * v)) / one_minus)
            for tilt in tilts]


def barrier_closed_value(params: BarrierParams, x, x_prime, tau: float, tilts):
    """Theta-3 closed form, one value per tilt: the damped sine sum via
    sin(mA)sin(mB) = [cos(m(A-B)) - cos(m(A+B))]/2. The theta-3 pair does
    not depend on the tilt, so it is formed once."""
    xp = np.asarray(x_prime, dtype=float)
    lam1 = params.wavenumber(1)
    rate = tau * params.k_squared
    if not rate > 0.0:  # theta3 needs a positive rate
        raise ValueError(f"tau * k^2 underflows to 0 at tau = {tau} and "
                         f"k^2 = {params.k_squared}: the closed form needs it positive")
    # k1 - k2 for k_i = (theta3(u_i) - 1) / 2, without the 1 that swamps a
    # small theta3 on the transformed side
    gap = 0.5 * (theta3(0.5 * lam1 * (x - xp), rate)
                 - theta3(0.5 * lam1 * (x + xp - 2.0 * params.a), rate))
    return [(2.0 / params.width) * np.exp(-tau * params.gamma + tilt * (x - xp)) * 0.5 * gap
            for tilt in tilts]


# ---------------------------------------------------------------------------
# the one entry point


def _check_points(model: _Model, **points) -> None:
    """Points must lie inside the model's open interval, so they are finite; a
    ValueError names the first point that does not."""
    lo, hi = model.interval
    for name, values in points.items():
        values = np.asarray(values, dtype=float)
        inside = (lo < values) & (values < hi)
        if not inside.all():
            where = "barrier " if model.name == "barrier" else ""
            raise ValueError(f"{name} = {values[~inside].flat[0]} lies outside the "
                             f"open {where}interval ({lo}, {hi})")


def _request(params: ModelParams, whichs, methods, taus, beta: Optional[float],
             **points) -> Tuple[_Model, list]:
    """The params' model and the tilt s beta of each which, s = +1 for p1 and
    -1 for p2, with beta the override when one is given. A ValueError refuses
    an unknown which or method, a tau that is not positive and finite, a beta
    override that is not finite, or a point outside the model's open interval;
    a TypeError refuses params of neither model."""
    for which in whichs:
        if which not in _SIGNS:
            raise ValueError(f"which must be one of {tuple(_SIGNS)}, got {which!r}")
    for method in methods:
        if method not in _METHODS:
            raise ValueError(f"method must be one of {_METHODS}, got {method!r}")
    for tau in taus:
        if not 0.0 < tau < math.inf:
            raise ValueError(f"tau must be positive and finite, got {tau}")
    if beta is not None and not math.isfinite(beta):
        raise ValueError(f"beta must be finite, got {beta}")
    model = _model(params)
    _check_points(model, **points)
    beta = params.beta if beta is None else float(beta)
    return model, [_SIGNS[which] * beta for which in whichs]


def kernel_values(params: ModelParams, which: str, method: str, x, x_prime,
                  tau: float, beta: Optional[float] = None):
    """(value, tail) of kernel `which` by `method`, with x and x' broadcast
    against each other; closed forms carry a zero tail.

    beta, when given, replaces the params' beta and must be finite. Points
    must be finite, and barrier points must lie inside (a, b); a ValueError
    names the first point that does not.
    """
    model, [tilt] = _request(params, (which,), (method,), (tau,), beta,
                             x=x, x_prime=x_prime)
    if method == "spectral":
        [(value, tail)] = model.spectral_values(params, x, x_prime, tau, (tilt,))
    else:
        [value] = model.closed_value(params, x, x_prime, tau, (tilt,))
        tail = np.zeros(np.shape(value))
    # a scalar point gives Python floats
    return (float(value), float(tail)) if np.ndim(value) == 0 else (value, tail)


# ---------------------------------------------------------------------------
# batch evaluation for the CLI kernel table


@dataclass(frozen=True)
class KernelTable:
    """A kernel table as columns in row order (by tau, x, x', which, method);
    len() is the number of rows. rel_disagreement, |spectral - closed| /
    max(|closed|, tiny) on both rows of the pair, is None unless both methods
    were tabulated."""

    x: np.ndarray
    x_prime: np.ndarray
    tau: np.ndarray
    which: np.ndarray
    method: np.ndarray
    value: np.ndarray
    tail_estimate: np.ndarray
    rel_disagreement: Optional[np.ndarray]

    def __len__(self) -> int:
        return self.value.size


def kernel_rows(params: ModelParams, xs, x_primes, taus,
                whichs=("p1", "p2"), methods=("spectral", "closed"),
                beta: Optional[float] = None) -> KernelTable:
    """The table of every (tau, x, x', which, method) combination, each value
    bit for bit kernel_values' over the whole x by x' grid. Every tau reads
    row slices of one mode table on xs and x_primes, and forms its spectral
    sum and its closed form's tilt-free part once for all whichs.
    """
    xs = np.asarray(xs, dtype=float)
    x_primes = np.asarray(x_primes, dtype=float)
    taus = np.asarray(taus, dtype=float)
    whichs, methods = tuple(whichs), tuple(methods)
    model, tilts = _request(params, whichs, methods, taus.tolist(), beta,
                            x=xs, x_prime=x_primes)
    table = None
    if "spectral" in methods and taus.size:
        n_top = max(top_mode(params, tau) for tau in taus.tolist())
        table = model.mode_table(params, n_top, np.concatenate((xs, x_primes)))
    value = np.empty((taus.size, xs.size, x_primes.size, len(whichs), len(methods)))
    tail = np.empty_like(value)
    x, xp = xs[:, None], x_primes[None, :]
    for t, tau in enumerate(taus.tolist()):
        for m, method in enumerate(methods):
            pairs = (model.spectral_values(params, x, xp, tau, tilts, table)
                     if method == "spectral" else
                     [(v, 0.0) for v in model.closed_value(params, x, xp, tau, tilts)])
            for w, (v, tl) in enumerate(pairs):
                value[t, :, :, w, m], tail[t, :, :, w, m] = v, tl
    disagreement = None
    if "spectral" in methods and "closed" in methods:
        spectral = value[..., methods.index("spectral")]
        closed = value[..., methods.index("closed")]
        gap = np.abs(spectral - closed) / np.maximum(np.abs(closed), 1e-300)
        disagreement = np.repeat(gap[..., None], len(methods), axis=-1).ravel()
    grid = np.meshgrid(taus, xs, x_primes, whichs, methods, indexing="ij")
    tau_col, x_col, xp_col, which_col, method_col = (c.ravel() for c in grid)
    return KernelTable(x_col, xp_col, tau_col, which_col, method_col, value.ravel(),
                       tail.ravel(), disagreement)
