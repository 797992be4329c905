"""Double-knock-out model on (a, b): sine eigenfamilies and spectral ladders.

Between two absorbing log-barriers the tilted generator has the classic
Dirichlet sine eigenfunctions Phi_n = sqrt(2/L) sin(lambda_{n+1}(x-a)) with
lambda_n = n pi / L, and the tilt produces biorthogonal families varphi_n =
e^{beta x} Phi_n, psi_n = e^{-beta x} Phi_n exactly as on the whole line.

Two ladder constructions meet here:

* the naive differential factorization built from the cotangent
  superpotential. Its product reproduces the Hamiltonian, and A annihilates
  the ground state, but B does NOT map varphi_0 to varphi_1; it produces a
  tilted cosine instead. Only its failed_factorization_residual lives here,
  in closed form: how far from a ladder it is, 0.52867 at beta = 0 and more
  at any other beta;
* the spectral ladder (apply_A_hat / apply_B_hat), defined directly on
  expansion coefficients with the strictly increasing sequence
  rho_n = lambda_{n+1}^2 - lambda_1^2. These are exact coefficient shifts
  of a SineExpansion, returned at its tilt, and do satisfy every ladder
  identity; raising adds one coefficient, so nothing is dropped. On
  psi-expansions the same two maps serve as B_hat^dag and A_hat^dag.

A SineExpansion e^{t x} sum c_n Phi_n is paired in inner products through
the closed-form matrix (Phi_m, e^{s x} Phi_j) (moments), with no quadrature
rule. Analysis into a family is a contract check: it returns an expansion
at the family's tilt as it is and refuses one at any other tilt.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .grids import Expansion, mode_sum, pad, unit_coefficients
from .market import MarketParams, MarketView
# not called here: perfbench/tracing.py patches this name in this module
from .quadrature import legendre_rule  # noqa: F401

MAX_SINE_MODES = 4096  # caps a spectral sum's sine table


@dataclass(frozen=True)
class BarrierParams(MarketView):
    """Market parameters plus the log-price barriers a < b."""

    market: MarketParams
    a: float
    b: float

    def __post_init__(self) -> None:
        if not -math.inf < self.a < self.b < math.inf:
            raise ValueError(f"barriers must be finite with a < b, got ({self.a}, {self.b})")
        if not 0.0 < self.width * self.width < math.inf:  # k_squared divides by it
            raise ValueError(f"barrier width b - a = {self.width} is out of range: "
                             f"its square must be a positive finite float")
        if self.k_squared == math.inf:  # every sqrt(rho_n) and energy would be inf
            raise ValueError(f"barrier width b - a = {self.width} is out of range: "
                             f"k^2 = sigma^2 pi^2 / (2 L^2) overflows at sigma = {self.sigma}")

    @property
    def width(self) -> float:
        return self.b - self.a

    @property
    def k_squared(self) -> float:
        """Decay constant sigma^2 pi^2 / (2 L^2) of the kernel's sine series."""
        return self.sigma**2 * math.pi**2 / (2.0 * self.width**2)

    def wavenumber(self, n):
        """lambda_n = n pi / L (n an int or array); mode n carries lambda_{n+1}."""
        return n * math.pi / self.width


def eigenvalue(params: BarrierParams, n):
    """Energy sigma^2 lambda_{n+1}^2 / 2 + gamma of mode n (an int or array)."""
    if np.any(np.asarray(n) < 0):
        raise ValueError(f"mode index must be nonnegative, got {n}")
    return params.sigma**2 * params.wavenumber(n + 1) ** 2 / 2.0 + params.gamma


def rho_coefficient(params: BarrierParams, n):
    """Ladder eigenvalue rho_n = lambda_{n+1}^2 - lambda_1^2 = pi^2 n (n+2) / L^2
    of mode n (an int or array).

    Strictly increasing with rho_0 = 0; the product form avoids cancellation.
    """
    if np.any(np.asarray(n) < 0):
        raise ValueError(f"mode index must be nonnegative, got {n}")
    return math.pi**2 * n * (n + 2.0) / params.width**2


def mode_table(params: BarrierParams, n_max: int, x) -> np.ndarray:
    """Rows Phi_0..Phi_{n_max} at x in one array of shape (n_max + 1,) + x.shape,
    not zeroed outside (a, b)."""
    return _sine_rows(params, np.arange(1, n_max + 2), x)


def _sine_rows(params: BarrierParams, k: np.ndarray, x) -> np.ndarray:
    """sqrt(2/L) sin(k (lambda_1 (x - a))) for each integer in k, one row each:
    row j is Phi_{k[j] - 1}."""
    x = np.asarray(x, dtype=float)
    table = np.multiply.outer(k, params.wavenumber(1) * (x - params.a))
    np.sin(table, out=table)
    table *= math.sqrt(2.0 / params.width)
    return table


def payoff_coefficients(params: BarrierParams, payoff, tilt: float, x: float,
                        strike_rows: np.ndarray) -> np.ndarray:
    """c_n = integral over (a, b) of e^{tilt (x - x')} Phi_n(x') payoff(e^{x'}) dx',
    n = 0..N, given strike_rows = Phi_0..Phi_N at the log-strike k.

    Each term sign e^{log_weight + c (x' - x)} of payoff.exponential_terms is
    integrated over the part of (a, b) on its side of k with
    e^{c y} (c sin(lambda (y - a)) - lambda cos(lambda (y - a))) / (c^2 + lambda^2).
    The sine is 0 at a and b, where the cosine is 1 and (-1)^{n+1}.
    """
    above, terms = payoff.exponential_terms(tilt, x)
    k = math.log(payoff.strike)
    a, b = params.a, params.b  # an empty side integrates from b to b or a to a: 0
    lo, hi = (min(max(k, a), b), b) if above else (a, max(min(k, b), a))
    n = np.arange(1, strike_rows.shape[0] + 1)  # mode n - 1 carries lambda_n
    coefficients = np.zeros(n.size)
    lam, amp = params.wavenumber(n), math.sqrt(2.0 / params.width)

    def end(y):  # y, amp sin(lambda (y - a)) and amp cos(lambda (y - a))
        if y == a:
            return y, 0.0, amp
        if y == b:
            return y, 0.0, amp * (1.0 - 2.0 * (n % 2))
        return y, strike_rows, amp * np.cos(n * (params.wavenumber(1) * (k - a)))

    ends = [end(hi), end(lo)]
    for sign, log_weight, rate in terms:
        top, bottom = (np.exp(log_weight + rate * (y - x)) * (rate * sin - lam * cos)
                       for y, sin, cos in ends)
        coefficients += sign * (top - bottom) / (rate * rate + lam * lam)
    return coefficients


def _unit_mode(params: BarrierParams, n: int, rate: float) -> Callable:
    """e^{rate x} Phi_n, zero outside [a, b]: a sum over a table of row n alone."""
    one = unit_coefficients(n, MAX_SINE_MODES)[n:]  # [1.0], once n is checked

    def row_n(params, _, x):
        return _sine_rows(params, np.array([n + 1]), x)

    return partial(mode_sum, row_n, params, None, one, rate, support=(params.a, params.b))


def Phi_n(params: BarrierParams, n: int) -> Callable:
    """Orthonormal sine mode sqrt(2/L) sin(lambda_{n+1}(x-a)), zero outside [a, b]:
    row n of mode_table, bit for bit.

    Each call on x forms row n alone, one sine per point; a loop over members
    still reads one mode_table or shared_mode_tables faster.
    """
    return _unit_mode(params, n, 0.0)


def varphi_n(params: BarrierParams, n: int) -> Callable:
    """e^{beta x} Phi_n, at the cost of Phi_n."""
    return _unit_mode(params, n, params.beta)


def psi_n(params: BarrierParams, n: int) -> Callable:
    """e^{-beta x} Phi_n, at the cost of Phi_n."""
    return _unit_mode(params, n, -params.beta)


# ---------------------------------------------------------------------------
# The naive differential factorization (the one that fails to ladder)


def failed_factorization_residual(params: BarrierParams) -> float:
    """min over c of ||B varphi_0 - c varphi_1|| / ||B varphi_0||, in closed form,
    for the cotangent factorization B = -d/dx - lambda_1 cot(lambda_1 (x-a)) + beta.

    This is the quantitative form of the no-go observation: B factorizes the
    Hamiltonian, but it is not a raising operator, and were it one the
    residual would vanish. The cotangent cancels the sine's derivative, so
    B varphi_0 = -2 lambda_1 sqrt(2/L) e^{beta x} cos(lambda_1 (x - a)) exactly.
    With y = x - a, omega = lambda_1 = pi / L and c = 2 beta, the residual is
    sqrt(1 - I_cs^2 / (I_cc I_ss)) for I_cs, I_cc and I_ss the integrals over
    (0, L) of e^{c y} times cos(omega y) sin(2 omega y), cos^2(omega y) and
    sin^2(2 omega y): halves of S_1 + S_3, C_0 + C_2 and C_0 - C_4, where
    C_k = c ((-1)^k e^{c L} - 1) / (c^2 + (k omega)^2) and
    S_k = k omega (1 - (-1)^k e^{c L}) / (c^2 + (k omega)^2) integrate
    e^{c y} cos(k omega y) and e^{c y} sin(k omega y) (Gradshteyn & Ryzhik
    2.663). With t = c / omega, u = t^2 and M = omega C_0 = expm1(pi t) / t
    (pi at t = 0) they are one fraction each, with no term that cancels:
    omega I_cs = (1 + e^{pi t}) (1 / (u + 1) + 3 / (u + 9)) / 2,
    omega I_cc = M (u + 2) / (u + 4) and omega I_ss = 8 M / (u + 16).

    The figure depends on beta L alone. Reflecting x -> a + b - x flips the
    sign of c and leaves the ratio as it is, so c = -2 |beta| is exact, and
    no exponential overflows. At beta = 0 the residual is
    sqrt(1 - (8/(3 pi))^2) = 0.52867; it rises toward sqrt(1/2) as |beta| L
    grows. A figure that is not finite (u = t^2 overflows) raises ValueError.
    """
    t = -2.0 * abs(params.beta) / params.wavenumber(1)
    u = t * t
    inv_mass = t / math.expm1(math.pi * t) if t else 1.0 / math.pi  # 1 / M
    cross = (1.0 + math.exp(math.pi * t)) / 2.0 * (1.0 / (u + 1.0) + 3.0 / (u + 9.0))
    ratio = (cross * inv_mass) ** 2 * (u + 4.0) / (u + 2.0) * (u + 16.0) / 8.0
    residual = math.sqrt(1.0 - ratio)
    if not math.isfinite(residual):
        raise ValueError(f"the factorization residual at beta = {params.beta} on "
                         f"({params.a}, {params.b}) is not finite")
    return residual


# ---------------------------------------------------------------------------
# The spectral ladder (the one that works)


class SineExpansion(Expansion):
    """Exact representation e^{tilt * x} * sum_k coeffs[..., k] Phi_k(x) on
    [a, b], zero outside; a coefficient matrix is a block (grids.Expansion)."""

    def __call__(self, x):
        return mode_sum(mode_table, self.params, self.tables, self.coeffs, self.tilt, x,
                        (self.params.a, self.params.b))

    def moments(self, s: float, n: int) -> np.ndarray:
        return (self.matrices or partial(moments, self.params))(s, n)


def moments(params: BarrierParams, s, n: int) -> np.ndarray:
    """The n x n matrix G(s)_mj = (Phi_m, e^{s x} Phi_j) on (a, b), in closed form;
    for an array of tilts s, a stack of them, one per tilt, each equal bit for
    bit to its own build.

    With y = x - a, Phi_m Phi_j = (cos(p omega y) - cos(q omega y)) / L for
    p = |m - j|, q = m + j + 2 and omega = pi / L, and e^{s y} cos(k omega y)
    integrates over (0, L) to s ((-1)^k e^{s L} - 1) / (s^2 + (k omega)^2)
    (Gradshteyn & Ryzhik 2.663). p and q share a parity, so the two integrals
    are one fraction, (e^{s a} / L) s omega^2 (q - p)(q + p) E /
    ((s^2 + (p omega)^2)(s^2 + (q omega)^2)), with E = expm1(s L) for even p
    and -(e^{s L} + 1) for odd p. Nothing cancels, and G(0) is the identity
    exactly. Entries overflow to inf once e^{s L} does.
    """
    s = np.asarray(s, dtype=float)
    out = np.empty(s.shape + (n, n))
    k = np.arange(n)
    p = np.abs(np.subtract.outer(k, k))
    q = np.add.outer(k, k) + 2
    even, weights = p % 2 == 0, (q - p) * (q + p)
    omega = params.wavenumber(1)
    p_omega, q_omega = (p * omega) ** 2, (q * omega) ** 2
    # one tilt at a time into the stack: whole-stack temporaries ran slower
    for matrix, t in zip(out.reshape(-1, n, n), s.flat):
        if t == 0.0:
            matrix[...] = np.eye(n)
            continue
        growth = t * params.width
        ends = np.where(even, np.expm1(growth), -(np.exp(growth) + 1.0))
        # s / (s^2 + (p omega)^2) as 1 / (s + (p omega)^2 / s): 1 / s on the diagonal
        matrix[...] = (np.exp(t * params.a) / params.width * omega**2 * weights * ends
                       / (t + p_omega / t) / (t * t + q_omega))
    return out


def _analyze(params: BarrierParams, f: SineExpansion, tilt: float) -> SineExpansion:
    """f itself, which must sit at tilt: any other is refused, not re-expanded."""
    if f.tilt != tilt:
        raise ValueError(f"expansion at tilt {f.tilt} given to a family at tilt {tilt}")
    return f


def analyze_phi(params: BarrierParams, f: SineExpansion) -> SineExpansion:
    """f as a varphi-expansion: f itself, which must sit at tilt beta."""
    return _analyze(params, f, params.beta)


def analyze_psi(params: BarrierParams, f: SineExpansion) -> SineExpansion:
    """f as a psi-expansion: f itself, which must sit at tilt -beta."""
    return _analyze(params, f, -params.beta)


def synthesize_phi(params: BarrierParams, coeffs: np.ndarray) -> SineExpansion:
    """The function sum_n c_n varphi_n, zero outside (a, b).

    barrier_system builds its expansions itself: perfbench's tracer replaces
    what this returns with a plain function.
    """
    return SineExpansion(params, params.beta, coeffs)


def synthesize_psi(params: BarrierParams, coeffs: np.ndarray) -> SineExpansion:
    """The function sum_n d_n psi_n, zero outside (a, b)."""
    return SineExpansion(params, -params.beta, coeffs)


def apply_A_hat(params: BarrierParams, f: SineExpansion) -> SineExpansion:
    """Lowering: out_n = sqrt(rho_{n+1}) c_{n+1}, at f's tilt and length, the
    top coefficient 0; B_hat^dag on a psi-expansion."""
    n = f.coeffs.shape[-1]
    return f.with_coeffs(pad(np.sqrt(rho_coefficient(params, np.arange(1, n)))
                             * f.coeffs[..., 1:], n))


def apply_B_hat(params: BarrierParams, f: SineExpansion) -> SineExpansion:
    """Raising: out_n = sqrt(rho_n) c_{n-1}, at f's tilt and one coefficient
    longer, so nothing is dropped; A_hat^dag on a psi-expansion."""
    n = f.coeffs.shape[-1]
    out = np.zeros(f.coeffs.shape[:-1] + (n + 1,), dtype=np.result_type(f.coeffs, float))
    out[..., 1:] = np.sqrt(rho_coefficient(params, np.arange(1, n + 1))) * f.coeffs
    return f.with_coeffs(out)
