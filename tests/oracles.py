"""Independent references the tests check pbk against.

Each barrier sine mode comes from its own wavenumber, not from a table;
the method-of-images density of the barrier kernel never touches the
eigenfunctions; the quadrature price integrates the spectral kernel against
the payoff on Gauss-Legendre panels, where pbk prices in coefficient space;
the Black-Scholes price is the wide-barrier limit; quadrature of sampled
expansions, Gauss-Hermite on the line and Gauss-Legendre on (a, b), checks
the Gram matrices that pbk takes from moment matrices in coefficient space.
The naive cotangent factorization of the barrier Hamiltonian acts on grid
samples here, and its failed-ladder residual is integrated with mpmath,
where pbk takes the residual in closed form.
"""

import math
from functools import lru_cache
from typing import Callable, Sequence, Tuple

import mpmath
import numpy as np

import pbk.quadrature
from pbk.barrier import BarrierParams
from pbk.grids import GridFunction, derivative
from pbk.kernels import kernel_values
from pbk.pricing import PAYOFF_KINDS
from pbk.quadrature import QuadratureRule, _adaptive, _samples


# ---------------------------------------------------------------------------
# the barrier's sine modes, one at a time


def sine_mode(params: BarrierParams, n: int, x):
    """Phi_n = sqrt(2/L) sin(lambda_{n+1}(x - a)) on its own, not zeroed
    outside (a, b); pbk reads it as row n of a table built by a recurrence
    in n."""
    return math.sqrt(2.0 / params.width) * np.sin(params.wavenumber(n + 1) * (x - params.a))


# ---------------------------------------------------------------------------
# the naive differential factorization, on grid samples


def _require_interior_grid(params: BarrierParams, f: GridFunction) -> None:
    slack = 1e-9 * f.dx
    lo = f.x0
    hi = f.x0 + f.dx * (f.n - 1)
    if lo < params.a + 2.0 * f.dx - slack or hi > params.b - 2.0 * f.dx + slack:
        raise ValueError(
            "grid must stay at least 2 steps clear of the cotangent singularities "
            f"at the barriers: got [{lo}, {hi}] inside ({params.a}, {params.b}) "
            f"with step {f.dx}"
        )


def _naive_first_order(params: BarrierParams, f: GridFunction, d_sign: float, beta_sign: float):
    _require_interior_grid(params, f)
    lam1 = params.wavenumber(1)
    d = derivative(f)
    mid = f.interior(4)
    cot = lam1 / np.tan(lam1 * (d.x - params.a))
    vals = d_sign * d.samples - cot * mid.samples + beta_sign * params.beta * mid.samples
    return d.with_samples(vals)


def apply_A_naive(params: BarrierParams, f: GridFunction) -> GridFunction:
    """A = d/dx - lambda_1 cot(lambda_1 (x-a)) - beta; annihilates varphi_0."""
    return _naive_first_order(params, f, +1.0, -1.0)


def apply_B_naive(params: BarrierParams, f: GridFunction) -> GridFunction:
    """B = -d/dx - lambda_1 cot(lambda_1 (x-a)) + beta.

    Together with A it factorizes the Hamiltonian, but it is not a raising
    operator: B varphi_0 is a tilted cosine, not varphi_1.
    """
    return _naive_first_order(params, f, -1.0, +1.0)


def factorization_residual(params: BarrierParams):
    """sqrt(1 - <f, g>^2 / (<f, f> <g, g>)) for f = e^{beta x} cos(lambda_1 (x - a))
    and g = varphi_1, each integral by mpmath at 30 digits on 8 equal panels
    of (a, b).

    The weight is taken relative to the end where it peaks, which scales the
    three integrals alike and keeps mpmath's tolerance relative.
    """
    with mpmath.workdps(30):
        a, b, beta = (mpmath.mpf(v) for v in (params.a, params.b, params.beta))
        lam = mpmath.pi / (b - a)
        peak = b if beta > 0 else a
        f = lambda x: mpmath.exp(beta * (x - peak)) * mpmath.cos(lam * (x - a))
        g = lambda x: mpmath.exp(beta * (x - peak)) * mpmath.sin(2 * lam * (x - a))
        panels = mpmath.linspace(a, b, 9)
        fg, ff, gg = (mpmath.quad(h, panels) for h in
                      (lambda x: f(x) * g(x), lambda x: f(x) ** 2, lambda x: g(x) ** 2))
        return mpmath.sqrt(1 - fg**2 / (ff * gg))


# ---------------------------------------------------------------------------
# Gram matrices of sampled functions, on one rule or by node doubling


def gram_matrix(fs: Sequence[Callable], gs: Sequence[Callable],
                rule: QuadratureRule) -> np.ndarray:
    """The matrix of <f_i, g_j> on one rule: conj(F) diag(w) G^T.

    Every function is sampled once. A function gives one row of F (or G),
    a block (values of shape (k, nodes)) its k rows, in order. Raises
    pbk.quadrature.QuadratureEvaluationError like its inner_product.
    """
    f_rows = _rows(fs, "f", rule.nodes)
    g_rows = _rows(gs, "g", rule.nodes)
    return (np.conj(f_rows) * rule.weights) @ g_rows.T


def _rows(fns: Sequence[Callable], name: str, nodes: np.ndarray) -> np.ndarray:
    """Each function's samples as one row, each block's as its rows, stacked."""
    return np.concatenate([np.atleast_2d(_samples(fn, f"{name}[{i}]", nodes))
                           for i, fn in enumerate(fns)])


def adaptive_gram(fs: Sequence[Callable], gs: Sequence[Callable],
                  rules: Callable) -> np.ndarray:
    """The matrix of <f_i, g_j> by the node doubling of
    pbk.quadrature.adaptive_inner_product: every entry must settle by the
    same test, the rule of the last doubling serves the whole block, and each
    function is sampled once per rule. Raises QuadratureConvergenceError, with
    the worst entry's last two estimates, if the cap is reached first."""
    return _adaptive(lambda rule: gram_matrix(fs, gs, rule), rules)


# ---------------------------------------------------------------------------
# Gauss-Hermite rules, for whole-line inner products by quadrature
#
# Built by Newton's method on the normalized Hermite recurrence and stored with
# the weight function factored out: the stored weights are w_i e^{x_i^2} =
# 1 / (n psi_{n-1}(x_i)^2), formed directly so that large rules do not
# underflow. A weighted dot product against integrand samples then
# approximates int f(x) dx for an integrand that decays like a Gaussian.


def _hermite_pair(n: int, u: np.ndarray):
    """psi_{n-1}(u) and psi_n(u), with psi_{-1} = 0, for any degree n >= 0: the
    normalized Hermite recurrence, keeping only two rows."""
    prev = np.zeros_like(u)
    cur = math.pi ** -0.25 * np.exp(-0.5 * u * u)
    if n >= 1:
        prev, cur = cur, math.sqrt(2.0) * u * cur
    for k in range(1, n):
        prev, cur = cur, math.sqrt(2.0 / (k + 1)) * u * cur - math.sqrt(k / (k + 1.0)) * prev
    return prev, cur


# Raw Gauss-Hermite weights are below sqrt(pi) e^{-x^2}, so no node with
# x^2 beyond this bound keeps a normal raw weight; its guess is not refined.
_HERMITE_X2_LIMIT = 720.0
_HERMITE_NEWTON_CAP = 16


def _tricomi_guesses(n: int) -> np.ndarray:
    """Tricomi's estimates of the positive zeros of H_n, ascending.

    With nu = 2n + 1 and m = n // 2, the k-th zero is close to
    sqrt(nu t - (5 / (4 (1 - t)^2) - 1 / (1 - t) - 1/4) / (3 nu)), where
    t = cos(T / 2)^2 and T - sin T = (4m - 4k + 3) pi / nu (Gatteschi 2002,
    eq. 2.1; Townsend, Trogdon & Olver 2015).
    """
    m = n // 2
    nu = 2.0 * n + 1.0
    rhs = (4.0 * m - 4.0 * np.arange(1, m + 1) + 3.0) * math.pi / nu
    theta = np.full(m, 0.5 * math.pi)
    for _ in range(10):
        theta = theta - (theta - np.sin(theta) - rhs) / (1.0 - np.cos(theta))
    t = np.cos(0.5 * theta) ** 2
    return np.sqrt(nu * t - (1.25 / (1.0 - t) ** 2 - 1.0 / (1.0 - t) - 0.25) / (3.0 * nu))


@lru_cache(maxsize=32)
def _hermite_nodes(n: int) -> Tuple[np.ndarray, np.ndarray]:
    """Gauss-Hermite nodes and compensated weights w e^{x^2}, ascending.

    Newton's method on psi_n, with psi_n' = sqrt(2n) psi_{n-1} - x psi_n,
    runs on the nonnegative nodes at once until no step moves a node by more
    than a few ulps. The compensated weight 1 / (n psi_{n-1}^2) is taken as
    2 / psi_n'^2 from the last step's slope: psi_n'' = (x^2 - 2n - 1) psi_n
    vanishes at a zero, so the weight does not inherit the node's rounding.
    Nodes whose raw weight w is not a normal double are dropped. O(n) memory.
    """
    if n < 1:
        raise ValueError(f"a Gauss-Hermite rule needs n >= 1 nodes, got {n}")
    x = _tricomi_guesses(n)
    if n % 2:
        x = np.concatenate(([0.0], x))
    x = x[x * x < _HERMITE_X2_LIMIT]
    for _ in range(_HERMITE_NEWTON_CAP):
        prev, cur = _hermite_pair(n, x)
        slope = math.sqrt(2.0 * n) * prev - x * cur
        step = cur / slope
        x = x - step
        if np.all(np.abs(step) <= 4.0 * np.finfo(float).eps * np.maximum(x, 1.0)):
            break
    else:
        raise ArithmeticError(f"Gauss-Hermite nodes for n={n} did not settle "
                              f"in {_HERMITE_NEWTON_CAP} Newton steps")
    w = 2.0 / (slope * slope)
    keep = w * np.exp(-x * x) >= np.finfo(float).tiny
    x, w = x[keep], w[keep]
    first = n % 2  # the zero node of an odd rule is not mirrored
    return (np.concatenate((-x[first:][::-1], x)),
            np.concatenate((w[first:][::-1], w)))


@lru_cache(maxsize=128)
def hermite_rule(n: int, center: float = 0.0, scale: float = 1.0) -> QuadratureRule:
    """Gauss-Hermite rule with the e^{-x^2} weight compensated away (cached).

    Parameters
    ----------
    n : int
        Number of nodes requested.
    center, scale : float
        Affine map x = scale * u + center applied to the raw nodes; the
        weights pick up a factor `scale`.

    Notes
    -----
    The compensated weight w_i e^{u_i^2} is formed directly as
    1 / (n psi_{n-1}(u_i)^2), never from the raw weight w_i. Nodes whose raw
    weight is not a normal double (|u| beyond about 26.5, from n = 371 on)
    are dropped; integrands admissible for this rule are far below double
    precision there.
    """
    if scale <= 0.0:
        raise ValueError(f"scale must be positive, got {scale}")
    u, w = _hermite_nodes(n)
    return QuadratureRule(scale * u + center, scale * w)


# ---------------------------------------------------------------------------
# the barrier kernel: killed drifted Brownian motion by the method of images

IMAGE_TERM_CUTOFF = 1e-14
IMAGE_MAX_WRAPS = 64


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
# the price: the spectral kernel integrated against the payoff by quadrature

ORACLE_SIGMAS = 14.0


def _panels(lo, hi, kink):
    """(lo, hi), split at the kink when it lies inside."""
    if lo < kink < hi:
        return ((lo, kink), (kink, hi))
    return ((lo, hi),)


def oracle_rules(params, payoff, x, tau, nodes, pieces):
    """Gauss-Legendre rules of `nodes` nodes on `pieces` equal panels on each
    side of the strike kink. They cover the part of the model domain that
    holds the kernel: within ORACLE_SIGMAS sigma sqrt(tau) of the spot
    between the barriers, and within ORACLE_SIGMAS sigma sqrt(max(1, tau))
    of the spot and the oscillator's center on the whole line."""
    if isinstance(params, BarrierParams):
        spread = ORACLE_SIGMAS * params.sigma * math.sqrt(tau)
        lo, hi = max(params.a, x - spread), min(params.b, x + spread)
    else:
        spread = ORACLE_SIGMAS * params.sigma * math.sqrt(max(1.0, tau))
        lo, hi = min(x, params.center) - spread, max(x, params.center) + spread
    rules = []
    for side_lo, side_hi in _panels(lo, hi, math.log(payoff.strike)):
        cuts = np.linspace(side_lo, side_hi, pieces + 1)
        rules += [pbk.quadrature.legendre_rule(nodes, c0, c1)
                  for c0, c1 in zip(cuts[:-1], cuts[1:])]
    return rules


def quadrature_price(params, which, payoff, x, tau, beta=None, nodes=32, pieces=40):
    """The spectral kernel integrated against the payoff on oracle_rules, the
    kernel evaluated once, on the nodes of every panel together."""
    rules = oracle_rules(params, payoff, x, tau, nodes, pieces)
    values, _ = kernel_values(params, which, "spectral", x,
                              np.concatenate([rule.nodes for rule in rules]), tau, beta)
    total = 0.0
    for rule, panel in zip(rules, np.split(values, len(rules))):
        total += float(np.dot(rule.weights, panel * payoff.as_log(rule.nodes)))
    return total


# ---------------------------------------------------------------------------
# the Black-Scholes price


def _norm_cdf(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def bs_closed_form(kind: str, s0: float, strike: float, sigma: float, r: float,
                   tau: float) -> float:
    """Vanilla Black-Scholes price via the erf-based normal CDF."""
    if kind not in PAYOFF_KINDS:
        raise ValueError(f"kind must be one of {PAYOFF_KINDS}, got {kind!r}")
    if not (sigma > 0.0 and tau > 0.0):
        raise ValueError("sigma and tau must be positive")
    if not (s0 > 0.0 and strike > 0.0):
        raise ValueError("spot and strike must be positive")
    sqrt_tau = math.sqrt(tau)
    d1 = (math.log(s0 / strike) + (r + 0.5 * sigma * sigma) * tau) / (sigma * sqrt_tau)
    d2 = d1 - sigma * sqrt_tau
    if kind == "call":
        return s0 * _norm_cdf(d1) - strike * math.exp(-r * tau) * _norm_cdf(d2)
    if kind == "put":
        return strike * math.exp(-r * tau) * _norm_cdf(-d2) - s0 * _norm_cdf(-d1)
    return math.exp(-r * tau) * _norm_cdf(d2)
