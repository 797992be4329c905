"""Option prices from the kernels, plus the Monte Carlo oracle.

The kernel price is taken in coefficient space, with no quadrature: the
spectral kernel e^{t (x - x')} sum_n e^{-tau E_n} Phi_n(x) Phi_n(x')
integrated against the payoff is sum_n e^{-tau E_n} Phi_n(x) c_n, and the
payoff's coefficients c_n, tilt included, have closed forms (the model
record's payoff_coefficients). The Monte Carlo oracle simulates GBM
log-paths with exact Gaussian increments, each draw giving an antithetic pair
of paths (z and -z) mirrored about their drift line, knocks out on the
barriers (with a Brownian-bridge crossing correction for what happens between
monitoring dates), and reduces path blocks in a fixed order so a given seed
produces bit-identical results no matter how many worker threads run.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from .kernels import (_SIGNS, ModelParams, _check_points, _check_request, _kept_energies,
                      _model)
# not called here: perfbench/tracing.py patches these three names in this module
from .kernels import barrier_spectral_values, harmonic_spectral_values  # noqa: F401
from .quadrature import legendre_rule  # noqa: F401

PAYOFF_KINDS = ("call", "put", "digital_call")
MC_BLOCK_PATHS = 8192
MC_CHUNK_PATHS = 1024
# bridge steps with d0 d1 >= 18.5 sigma^2 dt cross with p < e^-37 and are dropped
BRIDGE_NEAR = 18.5


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

    def exponential_terms(self, tilt: float, x: float):
        """payoff(e^{x'}) e^{tilt (x - x')} as (above, terms): the sum over
        terms (sign, log_weight, rate) of sign e^{log_weight + rate (x' - x)},
        on x' above the log-strike when above is true and below it otherwise."""
        k = math.log(self.strike)
        if self.kind == "call":
            return True, ((1.0, x, 1.0 - tilt), (-1.0, k, -tilt))
        if self.kind == "put":
            return False, ((1.0, k, -tilt), (-1.0, x, 1.0 - tilt))
        return True, ((1.0, 0.0, -tilt),)


@dataclass(frozen=True)
class MCConfig:
    """Monte Carlo knobs. Paths come in antithetic pairs, so their count is
    even. Standard errors are only meaningful for paths of 1e4 and up; this
    is documented, not enforced."""

    paths: int = 200_000
    steps: int = 512
    seed: int = 20240901
    bridge_correction: bool = True

    def __post_init__(self) -> None:
        if self.paths < 2 or self.paths % 2:
            raise ValueError(f"paths must be even and >= 2, got {self.paths}")
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
        return json.dumps(self.to_dict(), indent=2, allow_nan=False)


# ---------------------------------------------------------------------------
# kernel-integral price


def price_spectral(params: ModelParams, which: str, payoff: Payoff, x: float,
                   tau: float, beta: Optional[float] = None) -> PricingResult:
    """C(x; tau) = sum_n e^{-tau E_n} Phi_n(x) c_n over modes 0..top_mode, the
    spectral kernel integrated against payoff(e^{x'}), with the closed-form
    c_n = integral of e^{t (x - x')} Phi_n(x') payoff(e^{x'}) dx'. One mode
    table on the spot and the log-strike serves both; a tau beyond the
    model's mode cap is refused before it is built.
    """
    _check_request(which, "spectral", tau)
    model = _model(params)
    _check_points(model, x=x)
    energies = _kept_energies(params, tau)
    tilt = _SIGNS[which] * (params.beta if beta is None else float(beta))
    rows = model.mode_table(params, energies.size - 1, np.array([x, math.log(payoff.strike)]))
    coefficients = model.payoff_coefficients(params, payoff, tilt, x, rows[:, 1])
    value = float(np.dot(np.exp(-tau * energies) * rows[:, 0], coefficients))
    echo = {"model": model.name, "which": which, "payoff": payoff.kind,
            "strike": payoff.strike, "x": x, "tau": tau, "n_trunc": energies.size - 1}
    if beta is not None:
        echo["beta_override"] = float(beta)
    return PricingResult(value, f"spectral-{which}", config_echo=echo)


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


def _bridge_log_survival(x: np.ndarray, near_lo: np.ndarray, near_hi: np.ndarray,
                         x0: float, log_lo: float, log_hi: float,
                         var_dt: float) -> np.ndarray:
    """Per-row sum of log(1 - crossing probability) over the steps where a
    barrier is near; x holds paths after x0, one row each, and each barrier's
    terms run only on the surviving rows it lists (near_lo, near_hi)."""
    paths, steps = x.shape
    log_survival = np.zeros(paths)
    for rows, d_start, d in ((near_lo, x0 - log_lo, x[near_lo] - log_lo),
                             (near_hi, log_hi - x0, log_hi - x[near_hi])):
        d0_d1 = np.empty_like(d)
        np.multiply(d_start, d[:, 0], out=d0_d1[:, 0])
        np.multiply(d[:, :-1], d[:, 1:], out=d0_d1[:, 1:])
        near = np.flatnonzero(d0_d1 < BRIDGE_NEAR * var_dt)
        crossing = np.exp(-2.0 * d0_d1.ravel()[near] / var_dt)
        log_survival += np.bincount(rows[near // steps], minlength=paths,
                                    weights=np.log1p(-np.minimum(crossing, 1.0)))
    return log_survival


def _simulate_block(block_index: int, size: int, x0: float, log_lo: float,
                    log_hi: float, sigma: float, r: float, tau: float,
                    cfg: MCConfig, payoff: Payoff) -> Tuple[float, float]:
    """Sum and sum-of-squares of the antithetic pair means for one block.

    The per-block generator is SFC64 seeded by SeedSequence((seed,
    block_index)), so the stream is independent of how blocks are scheduled
    across workers. Paths are built in chunks of MC_CHUNK_PATHS rows (an even
    m) in one reused buffer. The first m/2 rows draw normals z from the
    block's stream; W = sigma sqrt(dt) cumsum(z) and the drift line
    mean_path = x0 + mu (1..steps) dt give path i = mean_path + W_i and its
    pair, path i + m/2 = mean_path - W_i, so each normal and each cumulative
    sum serves two paths. The block's samples are the size/2 pair means of
    the weighted payoffs.

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
    smallest gap to a barrier, over its path and the start x0, has
    gap^2 >= BRIDGE_NEAR sigma^2 dt has no such step, and that barrier skips
    it; the comparison carries a relative margin of 1e-12 so that no row
    with a step the product test would count as near is skipped.
    """
    rng = np.random.Generator(np.random.SFC64(
        np.random.SeedSequence((cfg.seed % 2**64, block_index))))
    dt = tau / cfg.steps
    var_dt = sigma * sigma * dt
    scale = sigma * math.sqrt(dt)
    mean_path = x0 + (r - 0.5 * sigma * sigma) * dt * np.arange(1, cfg.steps + 1)
    limit = BRIDGE_NEAR * var_dt * (1.0 + 1e-12)
    pair_means = np.empty(size // 2)
    chunk = np.empty((min(MC_CHUNK_PATHS, size), cfg.steps))
    for start in range(0, size, MC_CHUNK_PATHS):
        x = chunk[:min(MC_CHUNK_PATHS, size - start)]
        half = x.shape[0] // 2
        w = x[:half]
        rng.standard_normal(out=w)
        np.cumsum(w, axis=1, out=w)
        w *= scale
        np.subtract(mean_path, w, out=x[half:])
        w += mean_path
        lows, highs = x.min(axis=1), x.max(axis=1)
        alive = np.flatnonzero((lows > log_lo) & (highs < log_hi))
        values = np.zeros(x.shape[0])
        values[alive] = payoff.as_log(x[alive, -1])
        if cfg.bridge_correction:
            gap_lo = np.minimum(lows[alive] - log_lo, x0 - log_lo)
            gap_hi = np.minimum(log_hi - highs[alive], log_hi - x0)
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                values *= np.exp(_bridge_log_survival(
                    x, alive[gap_lo * gap_lo < limit], alive[gap_hi * gap_hi < limit],
                    x0, log_lo, log_hi, var_dt))
        pair_means[start // 2:start // 2 + half] = 0.5 * (values[:half] + values[half:])
    return float(np.sum(pair_means)), float(np.sum(pair_means * pair_means))


def price_mc_barrier(payoff: Payoff, s0: float, barriers: Tuple[float, float],
                     sigma: float, r: float, tau: float,
                     cfg: MCConfig) -> PricingResult:
    """Double-knock-out Monte Carlo price with standard error.

    Barriers are quoted in price units; the spot must start strictly inside.
    The samples are the paths / 2 antithetic pair means, so the mean and the
    standard error are taken over pairs.
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
    n = cfg.paths // 2
    discount = math.exp(-r * tau)
    mean = total / n
    variance = max(total_sq / n - mean * mean, 0.0)
    if n > 1:
        variance *= n / (n - 1)
    stderr = discount * math.sqrt(variance / n)
    echo = {"s0": s0, "barriers": list(barriers), "sigma": sigma, "r": r,
            "tau": tau, "payoff": payoff.kind, "strike": payoff.strike,
            "paths": cfg.paths, "steps": cfg.steps, "seed": cfg.seed,
            "bridge_correction": cfg.bridge_correction, "rng": "sfc64",
            "pairs": n, "block_paths": MC_BLOCK_PATHS}
    return PricingResult(discount * mean, "mc-brownian-bridge",
                         stderr=stderr if stderr > 0.0 else None,
                         config_echo=echo)
