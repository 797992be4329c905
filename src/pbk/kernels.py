"""Pricing kernels p1 and p2 for both models, by spectral sum and closed form.

Both kernels share one implementation with a sign s on the exponential
prefactor e^{s beta (x - x')}: s = +1 gives p1, s = -1 gives p2, so the
"replace beta by -beta" duality holds bit-for-bit by construction.

Both models share one spectral sum over x and x' broadcast against each
other; each supplies only its mode table, decay and prefactor. kernel_value
and kernel_rows pick the model's functions by the type of the params.

The closed forms are a Mehler-type Gaussian for the whole-line model and a
Jacobi theta-3 combination for the interval model. An independent
method-of-images oracle for the barrier kernel (killed drifted Brownian
motion, discounted) is included for cross-validation; it never touches the
eigenfunction machinery.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple, Union

import numpy as np

from .barrier import BarrierParams
from .harmonic import HarmonicParams
from .specialfn import hermite_function_sequence, theta3

TAIL_WARN_THRESHOLD = 1e-10
N_TRUNC_CAP = 200
DEFAULT_N_TRUNC = 128
IMAGE_TERM_CUTOFF = 1e-14
IMAGE_MAX_WRAPS = 64

ModelParams = Union[HarmonicParams, BarrierParams]

_MODELS = ("harmonic", "barrier")
_SIGNS = {"p1": 1.0, "p2": -1.0}
_METHODS = ("spectral", "closed")


def _check_request(which: str, method: str, tau: float, n_trunc: int) -> None:
    if which not in _SIGNS:
        raise ValueError(f"which must be one of {tuple(_SIGNS)}, got {which!r}")
    if method not in _METHODS:
        raise ValueError(f"method must be one of {_METHODS}, got {method!r}")
    if not tau > 0.0:
        raise ValueError(f"tau must be positive, got {tau}")
    if not 0 <= n_trunc <= N_TRUNC_CAP:
        raise ValueError(f"n_trunc must be in 0..{N_TRUNC_CAP}, got {n_trunc}")


@dataclass(frozen=True)
class KernelRequest:
    """One kernel evaluation: which kernel, where, how."""

    model: str
    which: str
    x: float
    x_prime: float
    tau: float
    method: str
    n_trunc: int = DEFAULT_N_TRUNC

    def __post_init__(self) -> None:
        if self.model not in _MODELS:
            raise ValueError(f"model must be one of {_MODELS}, got {self.model!r}")
        _check_request(self.which, self.method, self.tau, self.n_trunc)

    @property
    def beta_sign(self) -> float:
        return _SIGNS[self.which]


@dataclass(frozen=True)
class KernelValue:
    """Kernel value with the magnitude of the last spectral term kept.

    tail_warning flags a truncation tail above 1e-10; closed forms carry a
    zero tail.
    """

    value: float
    tail_estimate: float = 0.0

    def __post_init__(self) -> None:
        if self.tail_estimate < 0.0:
            raise ValueError("tail_estimate must be non-negative")

    @property
    def tail_warning(self) -> bool:
        return self.tail_estimate > TAIL_WARN_THRESHOLD


# ---------------------------------------------------------------------------
# spectral sums


def _spectral_sum(modes: Callable, decay: np.ndarray, scale: float, shift: float,
                  x, x_prime, tau: float, s: float, beta: float):
    """scale e^{-tau shift + s beta (x - x')} sum_n decay_n modes(x)_n modes(x')_n
    with x and x' broadcast against each other, returned together with the
    magnitude of the last included term; floats when both points are scalars."""
    x, xp = np.asarray(x, dtype=float), np.asarray(x_prime, dtype=float)
    scalar = x.ndim == xp.ndim == 0
    nd = max(x.ndim, xp.ndim, 1)
    x, xp = (y.reshape((1,) * (nd - y.ndim) + y.shape) for y in (x, xp))
    terms = (decay.reshape((-1,) + (1,) * nd) * modes(x)) * modes(xp)
    prefactor = scale * np.exp(-tau * shift + s * beta * (x - xp))
    value = prefactor * np.sum(terms, axis=0)
    tail = np.abs(prefactor * terms[-1])
    if scalar:
        return float(value[0]), float(tail[0])
    return value, tail


def harmonic_spectral_values(params: HarmonicParams, x, x_prime, tau: float,
                             s: float, beta: float, n_trunc: int):
    """e^{-tau delta + s beta (x - x')} sum_n e^{-tau n} Phi_n(x) Phi_n(x'),
    returned together with the magnitude of the last included term."""

    def modes(y):
        u = params.scaled_argument(y)
        return hermite_function_sequence(n_trunc, u) / math.sqrt(params.sigma)

    decay = np.exp(-tau * np.arange(n_trunc + 1))
    return _spectral_sum(modes, decay, 1.0, params.delta, x, x_prime, tau, s, beta)


def barrier_spectral_values(params: BarrierParams, x, x_prime, tau: float,
                            s: float, beta: float, n_trunc: int):
    """(2/(b-a)) e^{-tau gamma + s beta (x - x')} sum of damped sine products."""
    lam1 = params.wavenumber(1)
    orders = np.arange(1, n_trunc + 2)

    def modes(y):
        return np.sin(np.multiply.outer(orders, lam1 * (y - params.a)))

    decay = np.exp(-tau * params.k_squared * orders**2)
    return _spectral_sum(modes, decay, 2.0 / params.width, params.gamma,
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


def _model_functions(params: ModelParams) -> Tuple[str, Callable, Callable]:
    """(model, spectral values, closed value) of the params' model.

    The functions are read from this module's globals on every call, so a
    wrapper installed over one of them sees every evaluation.
    """
    if isinstance(params, HarmonicParams):
        return "harmonic", harmonic_spectral_values, harmonic_closed_value
    if isinstance(params, BarrierParams):
        return "barrier", barrier_spectral_values, barrier_closed_value
    raise TypeError(f"params must be HarmonicParams or BarrierParams, "
                    f"got {type(params).__name__}")


def _evaluate(params: ModelParams, method: str, x, x_prime, tau: float, s: float,
              beta: float, n_trunc: int):
    """(value, tail) by one method; closed forms carry a zero tail. Barrier
    points outside (a, b) raise ValueError."""
    _, spectral, closed = _model_functions(params)
    if isinstance(params, BarrierParams):
        for name, points in (("x", x), ("x_prime", x_prime)):
            for point in np.ravel(points).tolist():
                if not params.a < point < params.b:
                    raise ValueError(f"{name} = {point} lies outside the open "
                                     f"barrier interval ({params.a}, {params.b})")
    if method == "spectral":
        return spectral(params, x, x_prime, tau, s, beta, n_trunc)
    value = closed(params, x, x_prime, tau, s, beta)
    return value, np.zeros(np.shape(value))


def kernel_value(req: KernelRequest, params: ModelParams,
                 beta: Optional[float] = None) -> KernelValue:
    """The requested kernel at one point; rejects params of the other model
    with TypeError and barrier points outside (a, b) with ValueError."""
    if req.model != _model_functions(params)[0]:
        raise TypeError(f"{req.model} kernel requires {req.model.capitalize()}Params, "
                        f"got {type(params).__name__}")
    b = params.beta if beta is None else float(beta)
    value, tail = _evaluate(params, req.method, req.x, req.x_prime, req.tau,
                            req.beta_sign, b, req.n_trunc)
    return KernelValue(float(value), float(tail))


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
    if not tau > 0.0:
        raise ValueError(f"tau must be positive, got {tau}")
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


def kernel_rows(params: ModelParams, xs, x_primes, taus,
                whichs=("p1", "p2"), methods=("spectral", "closed"),
                n_trunc: int = DEFAULT_N_TRUNC,
                beta: Optional[float] = None) -> list:
    """Row dicts (x, x_prime, tau, which, method, value, tail_estimate,
    rel_disagreement) for every grid combination, ordered by tau, x, x',
    which and method.

    Each (tau, which, method) is one call of the model's function over the
    whole x by x' grid. rel_disagreement is |spectral - closed| /
    max(|closed|, tiny) when both methods are requested, repeated on each row
    of the pair; empty otherwise.
    """
    xs = np.asarray(xs, dtype=float)
    x_primes = np.asarray(x_primes, dtype=float)
    b = params.beta if beta is None else float(beta)
    both = "spectral" in methods and "closed" in methods
    rows = []
    for tau in map(float, taus):
        tables = {}
        for which in whichs:
            for method in methods:
                _check_request(which, method, tau, n_trunc)
                tables[which, method] = _evaluate(params, method, xs[:, None],
                                                  x_primes[None, :], tau,
                                                  _SIGNS[which], b, n_trunc)
        for i, x in enumerate(xs.tolist()):
            for j, xp in enumerate(x_primes.tolist()):
                for which in whichs:
                    disagreement = None
                    if both:
                        spectral = float(tables[which, "spectral"][0][i, j])
                        closed = float(tables[which, "closed"][0][i, j])
                        disagreement = abs(spectral - closed) / max(abs(closed), 1e-300)
                    for method in methods:
                        value, tail = tables[which, method]
                        rows.append({
                            "x": x,
                            "x_prime": xp,
                            "tau": tau,
                            "which": which,
                            "method": method,
                            "value": float(value[i, j]),
                            "tail_estimate": float(tail[i, j]),
                            "rel_disagreement": disagreement,
                        })
    return rows
