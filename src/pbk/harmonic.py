"""Whole-line model: tilted oscillator eigenfamilies and their operators.

Adding a quadratic potential V(x) = (sigma^2/2) W(x)^2 - 1/2 with
W(x) = x/sigma^2 + w to the pricing generator H_BS produces a non-self-adjoint
Hamiltonian H_eff that the exponential tilt rho = e^{-beta x} conjugates to a
shifted harmonic oscillator h_eff. The oscillator's orthonormal eigenfunctions
Phi_n give two biorthogonal families

    varphi_n = e^{+beta x} Phi_n,    psi_n = e^{-beta x} Phi_n,

eigenfunctions of H_eff and of its adjoint with the common spectrum n + delta.

Operators come in two interchangeable realizations:

* on a ``GridFunction``, d/dx is the sixth-order seven-point central
  difference, so the ladder maps are sixth order and the generators, which
  add a three-point d^2/dx^2, second order (outputs six samples shorter);
  the realization is independent of the eigenbasis, so eigen-equation
  residuals genuinely measure the operators;
* on a ``HermiteExpansion`` (a finite combination e^{t x} sum c_k Phi_k),
  d/dx and multiplication by x are exact coefficient recurrences, so ladder
  and eigen identities can be checked to rounding error.

Both realizations act on blocks as well: a GridFunction with 2-D samples or
a HermiteExpansion with a coefficient matrix holds one function per row, so
a map applies to a whole eigenfamily at once.

Inner products of HermiteExpansions are taken in coefficient space:
(Phi_m, e^{s x} Phi_j) is a displaced-oscillator moment (``moments``), so
grids.inner and grids.gram need no quadrature rule on either route.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Union

import math

import numpy as np

from .grids import (Expansion, GridFunction, GridSpec, derivative, mode_sum,
                    multiply_exponential, pad, second_derivative, unit_coefficients)
from .market import MarketParams, MarketView
from .specialfn import MAX_DEGREE, hermite_function_sequence, laguerre_sequence

OPERATOR_GRID_POINTS = 2001
OPERATOR_GRID_HALF_WIDTH = 10.0  # in units of sigma


@dataclass(frozen=True)
class HarmonicParams(MarketView):
    """Market parameters plus the free shift constant w of the potential."""

    market: MarketParams
    w: float = 0.0

    def __post_init__(self) -> None:
        if not math.isfinite(self.w):
            raise ValueError(f"w must be finite, got {self.w}")

    @property
    def delta(self) -> float:
        """Ground-state energy sigma^2 beta^2 / 2 + r; equals gamma identically."""
        return self.sigma**2 * self.beta**2 / 2.0 + self.r

    @property
    def center(self) -> float:
        """Center -sigma^2 w of the oscillator eigenfunctions."""
        return -self.sigma**2 * self.w

    def scaled_argument(self, x):
        """The oscillator variable u = x/sigma + sigma w."""
        return np.asarray(x, dtype=float) / self.sigma + self.sigma * self.w


def eigenvalue(params: HarmonicParams, n):
    """Energy n + delta of mode n; n is an int or an integer array."""
    if np.any(np.asarray(n) < 0):
        raise ValueError(f"mode index must be nonnegative, got {n}")
    return n + params.delta


def mode_table(params: HarmonicParams, n_max: int, x) -> np.ndarray:
    """Rows Phi_0..Phi_{n_max} at x in one array of shape (n_max + 1,) + x.shape."""
    table = hermite_function_sequence(n_max, params.scaled_argument(x))
    table /= math.sqrt(params.sigma)  # in place: operator-grid tables are megabytes
    return table


def payoff_coefficients(params: HarmonicParams, payoff, tilt: float, x: float,
                        strike_rows: np.ndarray) -> np.ndarray:
    """c_n = integral of e^{tilt (x - x')} Phi_n(x') payoff(e^{x'}) dx',
    n = 0..N, given strike_rows = Phi_0..Phi_N at the log-strike k.

    In u = x'/sigma + sigma w, a term sign e^{log_weight + c (x' - x)} of
    payoff.exponential_terms adds sign sqrt(sigma) e^{log_weight - gamma u_x} I_n,
    gamma = c sigma, I_n = integral of e^{gamma u} h_n(u) over u > u_k (s = 1)
    or u < u_k (s = -1). Parts and h_n' = sqrt(n/2) h_{n-1} - sqrt((n+1)/2) h_{n+1}
    give sqrt((n+1)/2) I_{n+1} = sqrt(n/2) I_{n-1} + gamma I_n + s e^{gamma u_k} h_n(u_k)
    from I_0 = pi^{-1/4} e^{gamma^2/2} sqrt(pi/2) erfc(s (u_k - gamma) / sqrt 2).
    The start and each boundary term, with their e^{log_weight - gamma u_x}, are
    formed in one exponent, so a far strike or spot gives 0, not inf * 0.
    """
    above, terms = payoff.exponential_terms(tilt, x)
    side = 1.0 if above else -1.0
    sigma = params.sigma
    u_x = float(params.scaled_argument(x))
    u_k = float(params.scaled_argument(math.log(payoff.strike)))
    roots = np.sqrt(np.arange(strike_rows.shape[0]) / 2.0).tolist()  # sqrt(n/2)
    with np.errstate(divide="ignore"):  # a value that underflowed to 0 gives e^-inf = 0
        log_h = np.log(np.abs(strike_rows)) + 0.5 * math.log(sigma)  # log |h_n(u_k)|
        coefficients = np.zeros(strike_rows.shape[0])
        for sign, log_weight, rate in terms:
            gamma = rate * sigma
            shift = log_weight - gamma * u_x
            tail = np.log(math.erfc(side * (u_k - gamma) / math.sqrt(2.0)))
            integral = math.pi**-0.25 * math.sqrt(0.5 * math.pi) * float(
                np.exp(shift + 0.5 * gamma * gamma + tail))
            edges = (side * np.sign(strike_rows) * np.exp(shift + gamma * u_k + log_h)).tolist()
            integrals, previous = [integral], 0.0
            for n in range(len(roots) - 1):
                previous, integral = integral, (roots[n] * previous + gamma * integral
                                                + edges[n]) / roots[n + 1]
                integrals.append(integral)
            coefficients += sign * math.sqrt(sigma) * np.array(integrals)
    return coefficients


def superpotential(params: HarmonicParams, x):
    """The linear factor W(x) = x/sigma^2 + w shared by all factorized operators."""
    return np.asarray(x, dtype=float) / params.sigma**2 + params.w


def quadratic_potential(params: HarmonicParams, x):
    """V(x) = (sigma^2/2) W(x)^2 - 1/2."""
    w_val = superpotential(params, x)
    return params.sigma**2 / 2.0 * w_val**2 - 0.5


def operator_grid(params: HarmonicParams) -> GridSpec:
    """The grid route's grid, center +- 10 sigma: its finite differences run
    and its residuals are measured on it; the sixth-order first derivative
    keeps ladder residuals to mode 20 below 1e-8."""
    half = OPERATOR_GRID_HALF_WIDTH * params.sigma
    return GridSpec.over(params.center - half, params.center + half,
                         OPERATOR_GRID_POINTS)


# ---------------------------------------------------------------------------
# Exact function representation


def _times_u(c: np.ndarray, sign: float = 1.0) -> np.ndarray:
    """Coefficients of u * sum c_k psi_k (psi normalized Hermite), on the last axis.

    u = (a + a^dag)/sqrt 2 and d/du = (a - a^dag)/sqrt 2, so sign = -1 gives
    the coefficients of d/du instead.
    """
    n = c.shape[-1]
    out = np.zeros(c.shape[:-1] + (n + 1,), dtype=np.result_type(c, float))
    j = np.arange(n - 1)
    out[..., : n - 1] += np.sqrt((j + 1) / 2.0) * c[..., 1:]
    j = np.arange(1, n + 1)
    out[..., 1 : n + 1] += sign * np.sqrt(j / 2.0) * c
    return out


class HermiteExpansion(Expansion):
    """Exact representation e^{tilt * x} * sum_k coeffs[..., k] Phi_k(x).

    Phi_k is the orthonormal oscillator eigenfunction for the params' sigma
    and w. The class is closed under d/dx, multiplication by x, and
    multiplication by exponentials, each implemented as an exact coefficient
    recurrence, which is what makes operator identities checkable to rounding
    error rather than finite-difference error.

    A coefficient matrix is a block of functions (grids.Expansion); every map
    acts on the last axis and passes the tables on to the expansion it
    returns.
    """

    def __call__(self, x):
        return mode_sum(mode_table, self.params, self.tables, self.coeffs, self.tilt, x)

    def deriv_coeffs(self) -> np.ndarray:
        """Coefficients of d/dx, same tilt: tilt * c + (1/sigma) * d/du c."""
        base = pad(self.coeffs, self.coeffs.shape[-1] + 1)
        return self.tilt * base + _times_u(self.coeffs, -1.0) / self.params.sigma

    def deriv(self) -> "HermiteExpansion":
        return self.with_coeffs(self.deriv_coeffs())

    def moments(self, s: float, n: int) -> np.ndarray:
        return (self.matrices or partial(moments, self.params))(s, n)


def _unit_expansion(params: HarmonicParams, n: int, tilt: float) -> HermiteExpansion:
    return HermiteExpansion(params, tilt, unit_coefficients(n, MAX_DEGREE))


def phi_n(params: HarmonicParams, n: int) -> HermiteExpansion:
    """Orthonormal oscillator eigenfunction Phi_n (callable, exactly represented)."""
    return _unit_expansion(params, n, 0.0)


def varphi_n(params: HarmonicParams, n: int) -> HermiteExpansion:
    """Eigenfunction e^{beta x} Phi_n of the non-self-adjoint Hamiltonian."""
    return _unit_expansion(params, n, params.beta)


def psi_n(params: HarmonicParams, n: int) -> HermiteExpansion:
    """Adjoint-family member e^{-beta x} Phi_n; varphi_n with beta negated."""
    return _unit_expansion(params, n, -params.beta)


# ---------------------------------------------------------------------------
# The moment matrix of inner products in coefficient space


def moments(params: HarmonicParams, s: float, n: int) -> np.ndarray:
    """The n x n matrix of (Phi_m, e^{s x} Phi_j) = e^{-s sigma^2 w} M(s sigma)_mj.

    M(alpha)_mj = (h_m, e^{alpha u} h_j) is a displaced-oscillator moment: its
    row 0 is e^{alpha^2/4} (alpha/sqrt 2)^j / sqrt(j!), and a e^{alpha u} =
    e^{alpha u} (a + alpha/sqrt 2) gives sqrt(m+1) M_{m+1,j} = sqrt(j) M_{m,j-1}
    + (alpha/sqrt 2) M_{m,j}. Both terms carry the sign of alpha^{m+j}, so
    nothing cancels; M(0) is the identity exactly. Entries overflow to inf
    once e^{alpha^2/4} does.
    """
    alpha = s * params.sigma
    half = alpha / math.sqrt(2.0)
    roots = np.sqrt(np.arange(n))
    out = np.empty((n, n))
    first = np.empty(n)
    first[0] = np.exp(alpha * alpha / 4.0 - s * params.sigma**2 * params.w)
    first[1:] = half / roots[1:]
    out[0] = np.cumprod(first)
    for m in range(n - 1):
        out[m + 1, 0] = half * out[m, 0] / roots[m + 1]
        out[m + 1, 1:] = (roots[1:] * out[m, :-1] + half * out[m, 1:]) / roots[m + 1]
    return out


# ---------------------------------------------------------------------------
# Operators

Applicable = Union[GridFunction, HermiteExpansion]

_MIN_OPERATOR_SAMPLES = 15  # the output, 6 samples shorter, must itself be a valid GridFunction


def _require_operator_grid(f: GridFunction) -> None:
    if f.n < _MIN_OPERATOR_SAMPLES:
        raise ValueError(
            f"grid too short for a central difference: need >= {_MIN_OPERATOR_SAMPLES} "
            f"samples, got {f.n}"
        )


def _first_order(params: HarmonicParams, f: Applicable, d_sign: float, beta_steps: float):
    """(sigma/sqrt 2) * (d_sign * d/dx + W(x) + beta_steps * beta) applied to f."""
    s = params.sigma
    shift = beta_steps * params.beta
    if isinstance(f, HermiteExpansion):
        n = f.coeffs.shape[-1] + 1
        coeffs = (s / math.sqrt(2.0)) * (
            d_sign * f.deriv_coeffs()
            + _times_u(f.coeffs) / s
            + shift * pad(f.coeffs, n)
        )
        return f.with_coeffs(coeffs)
    _require_operator_grid(f)
    d = derivative(f)
    factor = superpotential(params, d.x) + shift
    # written into d's own array, one row at a time: a block on the operator
    # grid holds megabytes per copy
    for row, mid in zip(d.rows(), f.interior(3).rows()):
        if d_sign > 0:
            row += factor * mid
        else:
            np.subtract(factor * mid, row, out=row)
        row *= s / math.sqrt(2.0)
    return d


def apply_A(params: HarmonicParams, f: Applicable):
    """Lowering operator A = (sigma/sqrt 2)(d/dx + W(x) - beta)."""
    return _first_order(params, f, +1.0, -1.0)


def apply_B(params: HarmonicParams, f: Applicable):
    """Raising operator B = (sigma/sqrt 2)(-d/dx + W(x) + beta)."""
    return _first_order(params, f, -1.0, +1.0)


def apply_A_dag(params: HarmonicParams, f: Applicable):
    """Adjoint of A: (sigma/sqrt 2)(-d/dx + W(x) - beta); raises the psi family."""
    return _first_order(params, f, -1.0, -1.0)


def apply_B_dag(params: HarmonicParams, f: Applicable):
    """Adjoint of B: (sigma/sqrt 2)(d/dx + W(x) + beta); lowers the psi family."""
    return _first_order(params, f, +1.0, +1.0)


def apply_c(params: HarmonicParams, f: Applicable):
    """Self-adjoint-pair lowering operator c = (sigma/sqrt 2)(d/dx + W(x))."""
    return _first_order(params, f, +1.0, 0.0)


def apply_c_dag(params: HarmonicParams, f: Applicable):
    """Raising operator c^dag = (sigma/sqrt 2)(-d/dx + W(x))."""
    return _first_order(params, f, -1.0, 0.0)


def _second_order(
    params: HarmonicParams,
    f: Applicable,
    drift: float,
    with_potential: bool,
    constant: float,
):
    """-(sigma^2/2) f'' + drift f' + (V(x) if requested) f + constant f."""
    s = params.sigma
    if isinstance(f, HermiteExpansion):
        d1 = f.deriv()
        d2 = d1.deriv()
        n = d2.coeffs.shape[-1]
        coeffs = -(s**2 / 2.0) * d2.coeffs + drift * pad(d1.coeffs, n)
        if with_potential:
            # V f = (sigma^2/2) W^2 f - f/2 with W f = (1/sigma) u f
            uuf = _times_u(_times_u(f.coeffs))
            coeffs = coeffs + 0.5 * pad(uuf, n) - 0.5 * pad(f.coeffs, n)
        coeffs = coeffs + constant * pad(f.coeffs, n)
        return f.with_coeffs(coeffs)
    _require_operator_grid(f)
    d1 = derivative(f)
    # three-point, trimmed to d1's points: a five-point second derivative is
    # already at its rounding floor on the step that measures these generators
    d2 = second_derivative(f).interior(2)
    mid = f.interior(3)
    vals = -(s**2 / 2.0) * d2.samples + drift * d1.samples + constant * mid.samples
    if with_potential:
        vals = vals + quadratic_potential(params, d1.x) * mid.samples
    return d1.with_samples(vals)


def apply_H_BS(params: HarmonicParams, f: Applicable):
    """Pricing generator -(sigma^2/2) d^2/dx^2 + (sigma^2/2 - r) d/dx + r."""
    return _second_order(params, f, params.sigma**2 / 2.0 - params.r, False, params.r)


def apply_H_eff(params: HarmonicParams, f: Applicable):
    """H_BS plus the quadratic potential V(x)."""
    return _second_order(params, f, params.sigma**2 / 2.0 - params.r, True, params.r)


def apply_H_eff_dag(params: HarmonicParams, f: Applicable):
    """Adjoint of H_eff: the drift term changes sign, everything else is even."""
    return _second_order(params, f, -(params.sigma**2 / 2.0 - params.r), True, params.r)


def apply_h_eff(params: HarmonicParams, f: Applicable):
    """Self-adjoint conjugate rho H_eff rho^{-1}: oscillator plus gamma."""
    return _second_order(params, f, 0.0, True, params.gamma)


def apply_h_BS(params: HarmonicParams, f: Applicable):
    """Self-adjoint conjugate of H_BS: free Laplacian plus gamma."""
    return _second_order(params, f, 0.0, False, params.gamma)


def apply_rho(params: HarmonicParams, f):
    """Multiply by rho = e^{-beta x}; its square is the metric grids.apply_Theta."""
    return multiply_exponential(f, -params.beta)


def apply_rho_inv(params: HarmonicParams, f):
    """Multiply by rho^{-1} = e^{beta x}."""
    return multiply_exponential(f, params.beta)


def norm_squared_law(params: HarmonicParams, n, family: str = "varphi"):
    """Closed form for ||varphi_n||^2 or ||psi_n||^2; n is an int, or an
    integer array read from one Laguerre recurrence.

    ||varphi_n||^2 = e^{beta^2 sigma^2 - 2 beta w sigma^2} L_n(-2 beta^2 sigma^2)
    and psi_n carries the opposite sign of the w term. The product
    ||varphi_n|| ||psi_n|| therefore grows like e^{beta^2 sigma^2} L_n, which
    diverges with n whenever beta != 0.
    """
    b, s, w = params.beta, params.sigma, params.w
    if family == "varphi":
        sign = -1.0
    elif family == "psi":
        sign = 1.0
    else:
        raise ValueError(f"family must be 'varphi' or 'psi', got {family!r}")
    n = np.asarray(n)
    if np.any(n < 0):
        raise ValueError(f"mode index must be nonnegative, got {n}")
    law = (math.exp(b * b * s * s + sign * 2.0 * b * w * s * s)
           * laguerre_sequence(int(np.max(n)), -2.0 * b * b * s * s)[n])
    return law if law.ndim else float(law)
