"""Reference values for the benchmark, computed without pbk.

Everything here is built from numpy and scipy alone so that a fault in pbk
cannot leak into the numbers its outputs are checked against:

* the image-series (method of images) density of log-price Brownian motion
  with drift, killed at two barriers and discounted, and its payoff integral;
* Mehler's closed form of the oscillator propagator for the whole-line model;
* vanilla Black-Scholes prices;
* Gauss-Legendre rules from the Golub-Welsch eigenvalue problem.

Conventions follow the pbk command line: log-prices x, volatility sigma,
rate r, tilt beta = 1/2 - r/sigma^2. The kernel p2 is p1 with beta negated,
which multiplies p1 by e^{-2 beta (x - x')}.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.special import ndtr

PANEL_NODES = 32
# composite panels are at most this many diffusion widths sigma*sqrt(tau) wide
PANEL_WIDTH_SIGMAS = 0.5
# the whole-line payoff integral runs over x +- this many diffusion widths
WINDOW_SIGMAS = 16.0
IMAGE_TERM_CUTOFF = 1e-18


def beta_of(sigma: float, r: float) -> float:
    return 0.5 - r / sigma**2


@lru_cache(maxsize=8)
def _gauss_legendre_unit(n: int):
    """Golub-Welsch: nodes are the eigenvalues of the Jacobi matrix of the
    Legendre recurrence, weights twice the squared first eigenvector entries."""
    k = np.arange(1, n)
    off = k / np.sqrt(4.0 * k * k - 1.0)
    nodes, vectors = eigh_tridiagonal(np.zeros(n), off)
    return nodes, 2.0 * vectors[0] ** 2


def composite_rule(lo: float, hi: float, max_panel: float, breaks=()):
    """Nodes and weights of a composite Gauss-Legendre rule on [lo, hi].

    Panels end at every point of `breaks` inside (lo, hi), so a payoff kink
    never falls inside a panel, and no panel is wider than max_panel.
    """
    edges = [lo] + sorted(b for b in breaks if lo < b < hi) + [hi]
    unit_x, unit_w = _gauss_legendre_unit(PANEL_NODES)
    xs, ws = [], []
    for left, right in zip(edges[:-1], edges[1:]):
        count = max(1, math.ceil((right - left) / max_panel))
        cuts = np.linspace(left, right, count + 1)
        half = 0.5 * np.diff(cuts)
        mid = 0.5 * (cuts[:-1] + cuts[1:])
        xs.append((mid[:, None] + half[:, None] * unit_x).ravel())
        ws.append((half[:, None] * unit_w).ravel())
    return np.concatenate(xs), np.concatenate(ws)


def payoff(kind: str, strike: float, log_price):
    s = np.exp(log_price)
    if kind == "call":
        return np.maximum(s - strike, 0.0)
    if kind == "put":
        return np.maximum(strike - s, 0.0)
    if kind == "digital_call":
        return (s > strike).astype(float)
    raise ValueError(f"unknown payoff {kind!r}")


def black_scholes(kind: str, s0: float, strike: float, sigma: float, r: float,
                  tau: float) -> float:
    """Vanilla European price on geometric Brownian motion."""
    vol = sigma * math.sqrt(tau)
    d1 = (math.log(s0 / strike) + (r + 0.5 * sigma * sigma) * tau) / vol
    d2 = d1 - vol
    disc = math.exp(-r * tau)
    if kind == "call":
        return float(s0 * ndtr(d1) - strike * disc * ndtr(d2))
    if kind == "put":
        return float(strike * disc * ndtr(-d2) - s0 * ndtr(-d1))
    if kind == "digital_call":
        return float(disc * ndtr(d2))
    raise ValueError(f"unknown payoff {kind!r}")


# ---------------------------------------------------------------------------
# double-barrier model: image series


def killed_density(x: float, xp, tau: float, sigma: float, r: float, a: float,
                   b: float, sign: float = 1.0):
    """Discounted density of the log-price at x' after tau, killed at a and b.

    Brownian motion with drift mu = r - sigma^2/2 started at x; images of the
    free Gaussian at x' + 2nL (direct) and x' + x - 2a + 2nL (reflected) are
    summed until a whole pair of wraps falls below 1e-18 relative to the
    free peak. sign = -1 gives the p2 kernel.
    """
    xp = np.asarray(xp, dtype=float)
    var = sigma * sigma * tau
    width = b - a
    mu = r - 0.5 * sigma * sigma

    def free(d):
        return np.exp(-d * d / (2.0 * var))

    direct = xp - x
    mirrored = xp + x - 2.0 * a
    total = free(direct) - free(mirrored)
    n = 1
    while True:
        shift = 2.0 * n * width
        pair = (free(direct + shift) + free(direct - shift)
                - free(mirrored + shift) - free(mirrored - shift))
        total = total + pair
        # every image of the next wrap lies at least 2nL from x'
        if math.exp(-(2 * n * width) ** 2 / (2.0 * var)) < IMAGE_TERM_CUTOFF:
            break
        n += 1
    gauss_norm = 1.0 / math.sqrt(2.0 * math.pi * var)
    log_weight = -r * tau + mu * (xp - x) / sigma**2 - mu * mu * tau / (2.0 * sigma**2)
    out = gauss_norm * total * np.exp(log_weight)
    if sign < 0.0:
        out = out * np.exp(-2.0 * beta_of(sigma, r) * (x - xp))
    return out


def barrier_price(kind: str, strike: float, s0: float, lower: float, upper: float,
                  sigma: float, r: float, tau: float, sign: float = 1.0) -> float:
    """Double-knock-out price: the killed density integrated against the payoff."""
    a, b = math.log(lower), math.log(upper)
    x = math.log(s0)
    nodes, weights = composite_rule(a, b, PANEL_WIDTH_SIGMAS * sigma * math.sqrt(tau),
                                    breaks=(math.log(strike), x))
    dens = killed_density(x, nodes, tau, sigma, r, a, b, sign)
    return float(np.dot(weights, dens * payoff(kind, strike, nodes)))


# ---------------------------------------------------------------------------
# whole-line model: Mehler kernel


def mehler_kernel(x: float, xp, tau: float, sigma: float, r: float,
                  sign: float = 1.0):
    """Oscillator propagator with the exponential tilt, for shift w = 0.

    p(x, x') = e^{-tau delta + s beta (x - x')} / sigma * M(u, v; e^{-tau}),
    u = x/sigma, v = x'/sigma, delta = sigma^2 beta^2/2 + r, where
    M(u, v; z) = sum_n z^n h_n(u) h_n(v) over normalized Hermite functions
    = exp(-[(1 + z^2)(u^2 + v^2) - 4 z u v] / (2 (1 - z^2))) / sqrt(pi (1 - z^2))
    (Mehler's formula).
    """
    xp = np.asarray(xp, dtype=float)
    beta = beta_of(sigma, r)
    delta = 0.5 * sigma * sigma * beta * beta + r
    z = math.exp(-tau)
    one_minus = -math.expm1(-2.0 * tau)
    u = x / sigma
    v = xp / sigma
    exponent = (-((1.0 + z * z) * (u * u + v * v) - 4.0 * z * u * v) / (2.0 * one_minus)
                - tau * delta + sign * beta * (x - xp))
    return np.exp(exponent) / (sigma * math.sqrt(math.pi * one_minus))


def harmonic_price(kind: str, strike: float, x: float, sigma: float, r: float,
                   tau: float, sign: float = 1.0) -> float:
    """Whole-line model price: the Mehler kernel integrated against the payoff.

    The window covers +-16 diffusion widths around both the spot and the
    oscillator center 0, which the kernel relaxes to at long tau.
    """
    spread = sigma * max(1.0, math.sqrt(tau))
    lo = min(x, 0.0) - WINDOW_SIGMAS * spread
    hi = max(x, 0.0) + WINDOW_SIGMAS * spread
    nodes, weights = composite_rule(lo, hi, PANEL_WIDTH_SIGMAS * sigma * math.sqrt(tau),
                                    breaks=(math.log(strike), x))
    dens = mehler_kernel(x, nodes, tau, sigma, r, sign)
    return float(np.dot(weights, dens * payoff(kind, strike, nodes)))
