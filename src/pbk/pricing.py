"""Option prices from the kernels, plus Monte Carlo and Black-Scholes oracles.

The kernel price is a Gauss-Legendre integral of kernel times payoff over the
model domain, split at the strike kink. The Monte Carlo oracle simulates GBM
log-paths with exact Gaussian increments, knocks out on the barriers (with a
Brownian-bridge crossing correction for what happens between monitoring
dates), and reduces path blocks in a fixed order so a given seed produces
bit-identical results no matter how many worker threads run.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from .barrier import DEFAULT_TRUNCATION, BarrierParams
from .kernels import ModelParams, _check_points, _check_request, kernel_values
# not called here: perfbench/tracing.py patches these two names in this module
from .kernels import barrier_spectral_values, harmonic_spectral_values  # noqa: F401
from .quadrature import legendre_rule

PAYOFF_KINDS = ("call", "put", "digital_call")
DEFAULT_NODES = 240
MC_BLOCK_PATHS = 8192
MC_CHUNK_PATHS = 1024
# bridge steps with d0 d1 >= 18.5 sigma^2 dt cross with p < e^-37 and are dropped
BRIDGE_NEAR = 18.5
PRICE_WINDOW_SIGMAS = 10.0


@dataclass(frozen=True)
class Payoff:
    """A payoff on the terminal price, evaluated in log-price coordinates."""

    kind: str
    strike: float

    def __post_init__(self) -> None:
        if self.kind not in PAYOFF_KINDS:
            raise ValueError(f"kind must be one of {PAYOFF_KINDS}, got {self.kind!r}")
        if not 0.0 < self.strike < math.inf:
            raise ValueError(f"strike must be positive and finite, got {self.strike}")

    @classmethod
    def call(cls, strike: float) -> "Payoff":
        return cls("call", strike)

    @classmethod
    def put(cls, strike: float) -> "Payoff":
        return cls("put", strike)

    @classmethod
    def digital_call(cls, strike: float) -> "Payoff":
        return cls("digital_call", strike)

    def as_log(self, x):
        """payoff(e^x), vectorized over log-prices x."""
        s = np.exp(np.asarray(x, dtype=float))
        if self.kind == "call":
            return np.maximum(s - self.strike, 0.0)
        if self.kind == "put":
            return np.maximum(self.strike - s, 0.0)
        return np.where(s > self.strike, 1.0, 0.0)


@dataclass(frozen=True)
class MCConfig:
    """Monte Carlo knobs. Standard errors are only meaningful for paths
    of 1e4 and up; this is documented, not enforced."""

    paths: int = 200_000
    steps: int = 512
    seed: int = 20240901
    bridge_correction: bool = True

    def __post_init__(self) -> None:
        if self.paths < 1:
            raise ValueError(f"paths must be >= 1, got {self.paths}")
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")


@dataclass(frozen=True)
class PricingResult:
    value: float
    method: str
    stderr: Optional[float] = None
    config_echo: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.stderr is not None and not self.stderr > 0.0:
            raise ValueError(f"stderr must be positive when present, got {self.stderr}")

    def to_dict(self) -> dict:
        out = {"value": self.value, "method": self.method,
               "config_echo": self.config_echo}
        if self.stderr is not None:
            out["stderr"] = self.stderr
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


# ---------------------------------------------------------------------------
# kernel-integral price


def _panels(lo: float, hi: float, kink: float) -> Tuple[Tuple[float, float], ...]:
    if lo < kink < hi:
        return ((lo, kink), (kink, hi))
    return ((lo, hi),)


def price_spectral(params: ModelParams, which: str, payoff: Payoff, x: float,
                   tau: float, n_trunc: int = DEFAULT_TRUNCATION,
                   nodes: int = DEFAULT_NODES,
                   beta: Optional[float] = None) -> PricingResult:
    """C(x; tau) = integral of the spectral kernel times payoff(e^{x'}).

    Integration runs over (a, b) for the barrier model and over a
    10-standard-deviation window for the whole-line model, with a panel
    break at the strike kink either way. The kernel is evaluated once, on the
    nodes of every panel together.
    """
    _check_request(which, "spectral", tau, n_trunc)
    _check_points(params, x=x)
    if isinstance(params, BarrierParams):
        lo, hi = params.a, params.b
    else:
        half = PRICE_WINDOW_SIGMAS * params.sigma * math.sqrt(max(1.0, tau))
        lo = min(x, params.center) - half
        hi = max(x, params.center) + half
    rules = [legendre_rule(nodes, panel_lo, panel_hi)
             for panel_lo, panel_hi in _panels(lo, hi, math.log(payoff.strike))]
    values, _ = kernel_values(params, which, "spectral", x,
                              np.concatenate([rule.nodes for rule in rules]), tau,
                              n_trunc, beta)
    total = 0.0
    for rule, panel in zip(rules, np.split(values, len(rules))):
        total += float(np.dot(rule.weights, panel * payoff.as_log(rule.nodes)))
    echo = {"model": "barrier" if isinstance(params, BarrierParams) else "harmonic",
            "which": which, "payoff": payoff.kind, "strike": payoff.strike,
            "x": x, "tau": tau, "n_trunc": n_trunc, "nodes": nodes}
    if beta is not None:
        echo["beta_override"] = float(beta)
    return PricingResult(total, f"spectral-{which}", config_echo=echo)


# ---------------------------------------------------------------------------
# Monte Carlo oracle


def _worker_count() -> int:
    raw = os.environ.get("PBK_THREADS", "")
    if not raw:
        return 1
    count = int(raw)
    if count < 1:
        raise ValueError(f"PBK_THREADS must be a positive integer, got {raw!r}")
    return count


def _block_sizes(paths: int) -> list:
    full, rem = divmod(paths, MC_BLOCK_PATHS)
    return [MC_BLOCK_PATHS] * full + ([rem] if rem else [])


def _bridge_log_survival(x: np.ndarray, x0: float, log_lo: float,
                         log_hi: float, var_dt: float) -> np.ndarray:
    """Per-path sum of log(1 - crossing probability) over the steps where a
    barrier is near; x holds surviving paths after x0, one row each."""
    paths, steps = x.shape
    log_survival = np.zeros(paths)
    for d_start, d in ((x0 - log_lo, x - log_lo), (log_hi - x0, log_hi - x)):
        d0_d1 = np.empty_like(d)
        np.multiply(d_start, d[:, 0], out=d0_d1[:, 0])
        np.multiply(d[:, :-1], d[:, 1:], out=d0_d1[:, 1:])
        near = np.flatnonzero(d0_d1 < BRIDGE_NEAR * var_dt)
        crossing = np.exp(-2.0 * d0_d1.ravel()[near] / var_dt)
        log_survival += np.bincount(near // steps, minlength=paths,
                                    weights=np.log1p(-np.minimum(crossing, 1.0)))
    return log_survival


def _simulate_block(block_index: int, size: int, x0: float, log_lo: float,
                    log_hi: float, sigma: float, r: float, tau: float,
                    cfg: MCConfig, payoff: Payoff) -> Tuple[float, float]:
    """Sum and sum-of-squares of surviving weighted payoffs for one block.

    The per-block generator is keyed by (seed, block_index), so the stream
    is independent of how blocks are scheduled across workers. Paths are
    drawn and built in chunks of MC_CHUNK_PATHS rows from that one stream,
    which bounds memory without changing a single normal.

    A path is knocked out when its minimum over the monitoring dates is at
    or below the lower barrier or its maximum is at or above the upper one.
    The bridge weight of a survivor is the product over steps of
    1 - exp(-2 d0 d1 / (sigma^2 dt)), d0 and d1 being the distances to a
    barrier at the two ends of the step. It is evaluated only where
    d0 d1 < BRIDGE_NEAR sigma^2 dt: elsewhere the crossing probability p is
    below e^-37 = 8.5e-17, under the unit roundoff 2^-53 = 1.1e-16, so each
    omitted term log(1 - p) = -p moves the weight by less than one rounding,
    and all 2 * steps of them together by less than 2 * 512 * 8.5e-17 < 1e-13
    relative at 512 steps. Since d0 d1 >= min(d0, d1)^2, a survivor whose
    smallest gap to either barrier, over its path and the start x0, has
    gap^2 >= BRIDGE_NEAR sigma^2 dt has no such step and keeps weight 1; the
    comparison carries a relative margin of 1e-12 so that no row with a step
    the product test would count as near is skipped.
    """
    key = np.array([cfg.seed % 2**64, block_index], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    dt = tau / cfg.steps
    var_dt = sigma * sigma * dt
    scale = sigma * math.sqrt(dt)
    drift = (r - 0.5 * sigma * sigma) * dt
    values = np.zeros(size)
    for start in range(0, size, MC_CHUNK_PATHS):
        x = rng.standard_normal((min(MC_CHUNK_PATHS, size - start), cfg.steps))
        x *= scale
        x += drift
        np.cumsum(x, axis=1, out=x)
        x += x0
        lows, highs = x.min(axis=1), x.max(axis=1)
        alive = (lows > log_lo) & (highs < log_hi)
        x = x[alive]
        weights = 1.0
        if cfg.bridge_correction:
            gap = np.minimum(np.minimum(lows[alive] - log_lo, log_hi - highs[alive]),
                             min(x0 - log_lo, log_hi - x0))
            near = gap * gap < BRIDGE_NEAR * var_dt * (1.0 + 1e-12)
            weights = np.ones(x.shape[0])
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                weights[near] = np.exp(_bridge_log_survival(x[near], x0, log_lo,
                                                            log_hi, var_dt))
        values[start:start + alive.size][alive] = weights * payoff.as_log(x[:, -1])
    return float(np.sum(values)), float(np.sum(values * values))


def price_mc_barrier(payoff: Payoff, s0: float, barriers: Tuple[float, float],
                     sigma: float, r: float, tau: float,
                     cfg: MCConfig) -> PricingResult:
    """Double-knock-out Monte Carlo price with standard error.

    Barriers are quoted in price units; the spot must start strictly inside.
    """
    lo, hi = barriers
    if not lo < hi:
        raise ValueError(f"degenerate barriers: need lower < upper, got {barriers}")
    if not lo < s0 < hi:
        raise ValueError(f"spot {s0} must start strictly inside {barriers}")
    if not (lo > 0.0 and sigma > 0.0 and tau > 0.0):
        raise ValueError("barriers, sigma and tau must all be positive")
    x0, log_lo, log_hi = math.log(s0), math.log(lo), math.log(hi)
    sizes = _block_sizes(cfg.paths)

    def run(i: int) -> Tuple[float, float]:
        return _simulate_block(i, sizes[i], x0, log_lo, log_hi, sigma, r, tau,
                               cfg, payoff)

    workers = _worker_count()
    if workers == 1:
        partials = [run(i) for i in range(len(sizes))]
    else:
        from concurrent.futures import ThreadPoolExecutor  # only threaded runs import it

        with ThreadPoolExecutor(max_workers=workers) as pool:
            partials = list(pool.map(run, range(len(sizes))))
    total = 0.0
    total_sq = 0.0
    for s1, s2 in partials:  # ascending block order: deterministic reduction
        total += s1
        total_sq += s2
    n = cfg.paths
    discount = math.exp(-r * tau)
    mean = total / n
    variance = max(total_sq / n - mean * mean, 0.0)
    if n > 1:
        variance *= n / (n - 1)
    stderr = discount * math.sqrt(variance / n)
    echo = {"s0": s0, "barriers": list(barriers), "sigma": sigma, "r": r,
            "tau": tau, "payoff": payoff.kind, "strike": payoff.strike,
            "paths": cfg.paths, "steps": cfg.steps, "seed": cfg.seed,
            "bridge_correction": cfg.bridge_correction, "rng": "philox4x64",
            "block_paths": MC_BLOCK_PATHS}
    return PricingResult(discount * mean, "mc-brownian-bridge",
                         stderr=stderr if stderr > 0.0 else None,
                         config_echo=echo)


# ---------------------------------------------------------------------------
# Black-Scholes reference


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
