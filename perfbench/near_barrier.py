"""Share of Monte Carlo steps near a barrier, for the price-mc barrier widths.

    python3 perfbench/near_barrier.py

The Brownian-bridge crossing probability of one step, exp(-2 d0 d1 / (sigma^2
dt)), is below 1e-16 unless d0 d1 < 18.5 sigma^2 dt, where d0 and d1 are the
distances to a barrier at the two ends of the step. This script simulates the
price-mc inputs with numpy alone and prints the share of steps under that
threshold, over all steps and over the steps of paths not yet knocked out:
the share of the bridge work a near-barrier-only evaluation would keep.
"""

from __future__ import annotations

import math

import numpy as np

NEAR = -math.log(1e-16) / 2.0  # d0 d1 / (sigma^2 dt) below this matters
PATHS = 8192  # one Monte Carlo block of pbk
CASES = (("80/120", 80.0, 120.0, 0.25), ("80/120", 80.0, 120.0, 0.5),
         ("50/200", 50.0, 200.0, 0.5))


def near_share(lower, upper, tau, paths=PATHS, steps=512, sigma=0.2, r=0.05):
    rng = np.random.default_rng(1)
    dt = tau / steps
    x = np.empty((paths, steps + 1))
    x[:, 0] = math.log(100.0)
    x[:, 1:] = x[:, :1] + np.cumsum(
        (r - 0.5 * sigma**2) * dt + sigma * math.sqrt(dt) * rng.standard_normal((paths, steps)),
        axis=1)
    d_lo = x - math.log(lower)
    d_hi = math.log(upper) - x
    limit = NEAR * sigma * sigma * dt
    near = ((d_lo[:, :-1] * d_lo[:, 1:] < limit) | (d_hi[:, :-1] * d_hi[:, 1:] < limit))
    out = np.minimum(d_lo, d_hi) <= 0.0
    alive = ~np.maximum.accumulate(out[:, :-1], axis=1)  # not out before the step
    return float(near.mean()), float(near[alive].mean())


def main() -> None:
    print(f"steps with d0*d1 < {NEAR:.1f} sigma^2 dt, sigma 0.2, r 0.05, 512 steps, "
          f"{PATHS} paths")
    for name, lower, upper, tau in CASES:
        every, alive = near_share(lower, upper, tau)
        print(f"{name} tau {tau:g}: {100 * every:.2f}% of all steps, "
              f"{100 * alive:.2f}% of steps on paths still alive")


if __name__ == "__main__":
    main()
