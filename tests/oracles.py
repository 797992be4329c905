"""Independent references the tests check pbk against.

The method-of-images density of the barrier kernel never touches the
eigenfunctions; the quadrature price integrates the spectral kernel against
the payoff on Gauss-Legendre panels, where pbk prices in coefficient space;
the Black-Scholes price is the wide-barrier limit.
"""

import math

import numpy as np

import pbk.quadrature
from pbk.barrier import BarrierParams
from pbk.kernels import kernel_values
from pbk.pricing import PAYOFF_KINDS


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
