"""Pricing kernels p1 and p2 for both models, by spectral sum and closed form.

Both kernels share one implementation with a sign s on the exponential
prefactor e^{s beta (x - x')}: s = +1 gives p1, s = -1 gives p2, so the
"replace beta by -beta" duality holds bit-for-bit by construction.

Both models share one spectral sum over x and x' broadcast against each
other, e^{s beta (x - x')} sum_n e^{-tau E_n} Phi_n(x) Phi_n(x'); each model
module supplies its mode table Phi_n and its energies E_n. kernel_values
is the one array-in, array-out entry point: it validates the request, picks
the model's functions by the type of the params and maps which kernel to its
sign. kernel_rows and the spectral price both go through it.

The spectral sum stops where its decay bound says: one rule keeps mode n
while e^{-tau (E_n - E_0)} >= 1e-16, the theta3 cutoff, reading the model's
eigenvalue before any table is built. That is N = floor(36.84 / tau) for the
oscillator and N = floor(sqrt(1 + 36.84 / (tau k^2)) - 1) between the
barriers. A tau whose N is above the model's mode cap is refused.

The closed forms are a Mehler-type Gaussian for the whole-line model and a
Jacobi theta-3 combination for the interval model. An independent
method-of-images oracle for the barrier kernel (killed drifted Brownian
motion, discounted) is included for cross-validation; it never touches the
eigenfunction machinery.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable, Optional, Tuple, Union

import numpy as np

from . import barrier as bar, harmonic as har
from .barrier import MAX_SINE_MODES, BarrierParams
from .harmonic import HarmonicParams
# not called here: perfbench/tracing.py patches this name in this module
from .specialfn import hermite_function_sequence  # noqa: F401
from .specialfn import MAX_DEGREE, THETA_TERM_CUTOFF, theta3

# mode n is kept while tau (E_n - E_0) <= this: e^{-tau (E_n - E_0)} >= 1e-16
KEPT_DECAY = -math.log(THETA_TERM_CUTOFF)
IMAGE_TERM_CUTOFF = 1e-14
IMAGE_MAX_WRAPS = 64

ModelParams = Union[HarmonicParams, BarrierParams]

_SIGNS = {"p1": 1.0, "p2": -1.0}
_METHODS = ("spectral", "closed")


def _check_request(which: str, method: str, tau: float) -> None:
    if which not in _SIGNS:
        raise ValueError(f"which must be one of {tuple(_SIGNS)}, got {which!r}")
    if method not in _METHODS:
        raise ValueError(f"method must be one of {_METHODS}, got {method!r}")
    if not 0.0 < tau < math.inf:
        raise ValueError(f"tau must be positive and finite, got {tau}")


# ---------------------------------------------------------------------------
# spectral sums


def _spectral_sum(table: Callable, energies: np.ndarray, x, x_prime, tau: float,
                  s: float, beta: float):
    """e^{s beta (x - x')} sum_n e^{-tau E_n} Phi_n(x) Phi_n(x') with x and x'
    broadcast against each other, returned together with the magnitude of the
    last included term, both of the points' broadcast shape.

    table(y) gives the rows Phi_n(y), one per energy E_n. It is called once,
    on the points of x and x' together; it acts point by point, so each half
    of its table is the table of x or x' alone."""
    x, xp = np.asarray(x, dtype=float), np.asarray(x_prime, dtype=float)
    shape = np.broadcast_shapes(x.shape, xp.shape)
    nd = max(x.ndim, xp.ndim, 1)
    x, xp = (y.reshape((1,) * (nd - y.ndim) + y.shape) for y in (x, xp))
    table_x, table_xp = np.split(table(np.concatenate((x.ravel(), xp.ravel()))),
                                 [x.size], axis=1)
    terms = ((np.exp(-tau * energies).reshape((-1,) + (1,) * nd)
              * table_x.reshape((-1,) + x.shape)) * table_xp.reshape((-1,) + xp.shape))
    prefactor = np.exp(s * beta * (x - xp))
    value = prefactor * np.sum(terms, axis=0)
    tail = np.abs(prefactor * terms[-1])
    return value.reshape(shape), tail.reshape(shape)


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
    if isinstance(params, BarrierParams):
        eigenvalue, cap, modes = bar.eigenvalue, MAX_SINE_MODES, "sine"
    else:
        eigenvalue, cap, modes = har.eigenvalue, MAX_DEGREE, "oscillator"
    energies = _energies(eigenvalue, params, cap)
    with np.errstate(over="ignore"):  # an overflowing decay is a dropped mode
        top = int(np.count_nonzero(tau * (energies[1:] - energies[0]) <= KEPT_DECAY))
    if top > cap:
        raise ValueError(f"the spectral sum at tau = {tau} needs more than the "
                         f"{cap + 1} {modes} modes 0..{cap} before e^(-tau (E_n - E_0)) "
                         f"falls below {THETA_TERM_CUTOFF:g}")
    return energies[:top + 1]


def top_mode(params: ModelParams, tau: float) -> int:
    """The top mode N the spectral sum of the params' model keeps at tau."""
    return _kept_energies(params, tau).size - 1


def harmonic_spectral_values(params: HarmonicParams, x, x_prime, tau: float,
                             s: float, beta: float):
    """The spectral sum over the oscillator modes 0..top_mode, E_n = n + delta."""
    energies = _kept_energies(params, tau)
    return _spectral_sum(partial(har.mode_table, params, energies.size - 1), energies,
                         x, x_prime, tau, s, beta)


def barrier_spectral_values(params: BarrierParams, x, x_prime, tau: float,
                            s: float, beta: float):
    """The spectral sum over the sine modes 0..top_mode, E_n = barrier.eigenvalue."""
    energies = _kept_energies(params, tau)
    return _spectral_sum(partial(bar.mode_table, params, energies.size - 1), energies,
                         x, x_prime, tau, s, beta)


# ---------------------------------------------------------------------------
# closed forms


def harmonic_closed_value(params: HarmonicParams, x, x_prime, tau: float,
                          s: float, beta: float):
    """Gaussian closed form of the damped-oscillator propagator.

    The bilinear Hermite sum with weight z^n collapses to
    (1-z^2)^{-1/2} exp[(2uvz - z^2(u^2+v^2))/(1-z^2)] times the ground
    Gaussians; everything is assembled in one exponent for stability.
    """
    xp = np.asarray(x_prime, dtype=float)
    z = math.exp(-tau)
    one_minus = -math.expm1(-2.0 * tau)  # 1 - z^2, accurate for small tau
    u = params.scaled_argument(x)
    v = params.scaled_argument(xp)
    exponent = (
        -tau * params.delta
        + s * beta * (x - xp)
        - 0.5 * (u * u + v * v)
        + (2.0 * u * v * z - z * z * (u * u + v * v)) / one_minus
    )
    norm = 1.0 / (params.sigma * math.sqrt(math.pi * one_minus))
    return norm * np.exp(exponent)


def barrier_closed_value(params: BarrierParams, x, x_prime, tau: float,
                         s: float, beta: float):
    """Theta-3 closed form: the damped sine sum via
    sin(mA)sin(mB) = [cos(m(A-B)) - cos(m(A+B))]/2."""
    xp = np.asarray(x_prime, dtype=float)
    lam1 = params.wavenumber(1)
    q = math.exp(-tau * params.k_squared)
    k1 = 0.5 * (theta3(0.5 * lam1 * (x - xp), q) - 1.0)
    k2 = 0.5 * (theta3(0.5 * lam1 * (x + xp - 2.0 * params.a), q) - 1.0)
    prefactor = (2.0 / params.width) * np.exp(-tau * params.gamma + s * beta * (x - xp))
    return prefactor * 0.5 * (k1 - k2)


# ---------------------------------------------------------------------------
# the one entry point, by the type of the params


def _model_functions(params: ModelParams) -> Tuple[Callable, Callable]:
    """(spectral values, closed value) of the params' model.

    The functions are read from this module's globals on every call, so a
    wrapper installed over one of them sees every evaluation.
    """
    if isinstance(params, HarmonicParams):
        return harmonic_spectral_values, harmonic_closed_value
    if isinstance(params, BarrierParams):
        return barrier_spectral_values, barrier_closed_value
    raise TypeError(f"params must be HarmonicParams or BarrierParams, "
                    f"got {type(params).__name__}")


def _check_points(params: ModelParams, **points) -> None:
    """Points must be finite, and barrier points must lie inside (a, b); a
    ValueError names the first point that does not."""
    barrier = isinstance(params, BarrierParams)
    lo, hi = (params.a, params.b) if barrier else (-math.inf, math.inf)
    for name, values in points.items():
        values = np.asarray(values, dtype=float)
        inside = (lo < values) & (values < hi)
        if not inside.all():
            raise ValueError(f"{name} = {values[~inside].flat[0]} lies outside the "
                             f"open {'barrier ' if barrier else ''}interval ({lo}, {hi})")


def kernel_values(params: ModelParams, which: str, method: str, x, x_prime,
                  tau: float, beta: Optional[float] = None):
    """(value, tail) of kernel `which` by `method`, with x and x' broadcast
    against each other; closed forms carry a zero tail.

    beta, when given, replaces the params' beta. Points must be finite, and
    barrier points must lie inside (a, b); a ValueError names the first point
    that does not.
    """
    _check_request(which, method, tau)
    spectral, closed = _model_functions(params)
    _check_points(params, x=x, x_prime=x_prime)
    s = _SIGNS[which]
    b = params.beta if beta is None else float(beta)
    if method == "spectral":
        value, tail = spectral(params, x, x_prime, tau, s, b)
    else:
        value = closed(params, x, x_prime, tau, s, b)
        tail = np.zeros(np.shape(value))
    # a scalar point gives Python floats
    return (float(value), float(tail)) if np.ndim(value) == 0 else (value, tail)


# ---------------------------------------------------------------------------
# independent oracle: killed drifted Brownian motion by the method of images


def kernel_oracle_image_series(params: BarrierParams, x: float, x_prime: float,
                               tau: float) -> float:
    """Discounted transition density of GBM log-price killed at the barriers.

    e^{-r tau} e^{mu (x'-x)/sigma^2 - mu^2 tau/(2 sigma^2)} times the
    image-series density of Brownian motion absorbed at both ends, with
    mu = r - sigma^2/2. Wraps are added until a full image pair falls below
    1e-14. No eigenfunctions involved.
    """
    if not 0.0 < tau < math.inf:
        raise ValueError(f"tau must be positive and finite, got {tau}")
    sigma, r = params.sigma, params.r
    mu = r - 0.5 * sigma * sigma
    width = params.width
    var = sigma * sigma * tau

    def gauss(d: float) -> float:
        return math.exp(-d * d / (2.0 * var)) / math.sqrt(2.0 * math.pi * var)

    direct = x_prime - x
    reflected = x_prime + x - 2.0 * params.a
    total = 0.0
    for n in range(IMAGE_MAX_WRAPS + 1):
        wraps = [n] if n == 0 else [n, -n]
        largest = 0.0
        for m in wraps:
            shift = 2.0 * m * width
            plus = gauss(direct + shift)
            minus = gauss(reflected + shift)
            total += plus - minus
            largest = max(largest, plus, minus)
        if n > 0 and largest < IMAGE_TERM_CUTOFF:
            break
    weight = math.exp(-r * tau + mu * (x_prime - x) / sigma**2
                      - mu * mu * tau / (2.0 * sigma**2))
    return weight * total


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
    """The table of every (tau, x, x', which, method) combination.

    Each (tau, which, method) is one call of the model's function over the
    whole x by x' grid.
    """
    xs = np.asarray(xs, dtype=float)
    x_primes = np.asarray(x_primes, dtype=float)
    taus = np.asarray(taus, dtype=float)
    whichs, methods = tuple(whichs), tuple(methods)
    value = np.empty((taus.size, xs.size, x_primes.size, len(whichs), len(methods)))
    tail = np.empty_like(value)
    for t, tau in enumerate(taus.tolist()):
        for w, which in enumerate(whichs):
            for m, method in enumerate(methods):
                value[t, :, :, w, m], tail[t, :, :, w, m] = kernel_values(
                    params, which, method, xs[:, None], x_primes[None, :], tau, beta)
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
