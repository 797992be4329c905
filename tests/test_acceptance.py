"""Acceptance battery: thirteen numbered end-to-end checks at pinned tolerances.

Each test prints a single ``criterion NN <name>: PASS/FAIL (...)`` line
(run ``pytest tests/test_acceptance.py -s`` to see them) and then asserts.
The whole battery is sized for a laptop: everything except the Monte Carlo
triangle finishes in seconds, and the Monte Carlo block is itself budgeted
to stay under a minute.
"""

import math
import time

import numpy as np
from numpy.polynomial.legendre import leggauss
import pytest

from pbk import barrier as bar
from pbk import harmonic as har
from pbk.grids import GridSpec, inner, row_norm
from pbk.kernels import kernel_values
from pbk.market import MarketParams
from pbk.pb_core import check_biorthogonality, check_ladder, check_quasi_basis
from pbk.pricing import (
    MCConfig,
    Payoff,
    price_mc_barrier,
    price_spectral,
)
from pbk.systems import barrier_system, harmonic_system

from oracles import bs_closed_form, kernel_oracle_image_series


def report(num, name, ok, detail):
    line = f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def hp(market):
    return har.HarmonicParams(market)


@pytest.fixture(scope="module")
def bp(market):
    return bar.BarrierParams(market, 0.0, math.pi)


@pytest.fixture(scope="module")
def gl2048():
    return leggauss(2048)


def closed_kernel(params, which, x, xp, tau):
    return kernel_values(params, which, "closed", float(x), float(xp), tau)[0]


# ---------------------------------------------------------------------------


def test_criterion_01_biorthogonality(market, market_beta0):
    worst = 0.0
    for mk in (market, market_beta0):
        sys_h = harmonic_system(har.HarmonicParams(mk))
        sys_b = barrier_system(bar.BarrierParams(mk, 0.0, math.pi))
        for system in (sys_h, sys_b):
            worst = max(worst, check_biorthogonality(system, 40).max_residual)
    report(1, "biorthogonality", worst <= 1e-10,
           f"worst |<varphi_n, psi_m> - delta_nm| = {worst:.2e} over n,m <= 40, "
           f"both models, r in {{0.05, 0.02}}, tol 1e-10")


def test_criterion_02_ladder_relations(hp, bp):
    # the interval family's ladder is a coefficient-space recurrence; the
    # finite-difference route exists only for the oscillator model
    sys_exact = harmonic_system(hp, route="exact")
    sys_grid = harmonic_system(hp, route="grid")
    sys_bar = barrier_system(bp)
    exact = max(check_ladder(sys_exact, 20).max_residual,
                check_ladder(sys_bar, 20).max_residual)
    fd = check_ladder(sys_grid, 20).max_residual
    ok = exact <= 1e-8 and fd <= 1e-5
    report(2, "ladder_relations", ok,
           f"n <= 20: exact-recurrence residual {exact:.2e} (tol 1e-8), "
           f"finite-difference residual {fd:.2e} (tol 1e-5)")


def _halving_residuals(op, fn, eigval, grids):
    errs = []
    for grid in grids:
        out = op(grid.sample(fn))
        target = eigval * fn(out.x)
        errs.append(row_norm(out.samples - target, out.dx)
                    / row_norm(target, out.dx))
    return errs


def test_criterion_03_eigen_equations(market, hp, bp):
    halvings = 3
    worst_final = 0.0
    min_order = math.inf

    # oscillator model: both effective generators and the symmetric form
    width = 16.0 * hp.sigma
    h0 = 1e-3 * width
    grids = [GridSpec.over(-8.0 * hp.sigma, 8.0 * hp.sigma,
                           round(width / (h0 / 2**k)) + 1)
             for k in range(halvings + 1)]
    operator_table = (
        (har.apply_H_eff, har.varphi_n),
        (har.apply_H_eff_dag, har.psi_n),
        (har.apply_h_eff, har.phi_n),
    )
    for op, fam in operator_table:
        for n in (0, 1, 5, 10, 20):
            errs = _halving_residuals(lambda f: op(hp, f), fam(hp, n),
                                      n + hp.delta, grids)
            orders = [math.log2(errs[i] / errs[i + 1]) for i in range(halvings)]
            worst_final = max(worst_final, errs[-1])
            min_order = min(min_order, *orders)

    # interval model: pricing generator on the tilted modes, symmetric form
    # on the plain sine modes
    h0 = 1e-3 * bp.width
    grids = []
    for k in range(halvings + 1):
        h = h0 / 2**k
        grids.append(GridSpec.over(bp.a + 2 * h, bp.b - 2 * h,
                                   round(bp.width / h) - 3))
    for op, fam in ((har.apply_H_BS, bar.varphi_n), (har.apply_h_BS, bar.Phi_n)):
        for n in (0, 2, 5):
            errs = _halving_residuals(lambda f: op(hp, f), fam(bp, n),
                                      bar.eigenvalue(bp, n), grids)
            orders = [math.log2(errs[i] / errs[i + 1]) for i in range(halvings)]
            worst_final = max(worst_final, errs[-1])
            min_order = min(min_order, *orders)

    ok = worst_final <= 1e-5 and min_order >= 1.9
    report(3, "eigen_equations", ok,
           f"h-halving from 1e-3 * width: worst residual at finest step "
           f"{worst_final:.2e} (tol 1e-5), observed order >= {min_order:.3f} "
           f"(needs 1.9)")


def test_criterion_04_norm_law(market, market_beta0):
    def quad_norm_sq(fn):
        return inner(fn, fn).real

    worst_rel = 0.0
    for w in (0.0, 0.5):
        p = har.HarmonicParams(market, w)
        for fam, name in ((har.varphi_n, "varphi"), (har.psi_n, "psi")):
            for n in range(31):
                law = har.norm_squared_law(p, n, name)
                quad = quad_norm_sq(fam(p, n))
                worst_rel = max(worst_rel, abs(quad - law) / law)

    p = har.HarmonicParams(market)
    products = [math.sqrt(quad_norm_sq(har.varphi_n(p, n)) * quad_norm_sq(har.psi_n(p, n)))
                for n in range(31)]
    increasing = all(b > a for a, b in zip(products, products[1:]))

    p0 = har.HarmonicParams(market_beta0)
    dev0 = max(abs(math.sqrt(quad_norm_sq(har.varphi_n(p0, n))
                             * quad_norm_sq(har.psi_n(p0, n))) - 1.0)
               for n in range(31))

    ok = worst_rel <= 1e-8 and increasing and dev0 <= 1e-10
    report(4, "norm_law", ok,
           f"law vs quadrature rel {worst_rel:.2e} (tol 1e-8, n <= 30, "
           f"w in {{0, 0.5}}); product strictly increasing: {increasing}; "
           f"beta=0 deviation from 1: {dev0:.2e} (tol 1e-10)")


def test_criterion_05_closed_kernel_matches_spectral(hp):
    pts = np.linspace(-0.15, 0.15, 5)
    worst = 0.0
    for tau in (0.3, 0.5, 1.0):
        for which in ("p1", "p2"):
            for x in pts:
                for xp in pts:
                    closed = closed_kernel(hp, which, x, xp, tau)
                    spectral = kernel_values(hp, which, "spectral", float(x), float(xp),
                                             tau)[0]
                    worst = max(worst, abs(closed - spectral) / abs(closed))
    report(5, "closed_kernel_matches_spectral", worst <= 1e-8,
           f"worst rel {worst:.2e} on 5x5 grid, tau in {{0.3, 0.5, 1}}, "
           f"N = floor(36.84 / tau), tol 1e-8")


def _barrier_kernel_grid(bp, tau):
    # keep the points within the diffusion width of each other so the kernel
    # stays O(1) and a relative comparison is meaningful
    half = min(1.2 * bp.sigma * math.sqrt(tau), 0.45 * bp.width)
    return np.linspace(1.5 - half, 1.5 + half, 5)


BARRIER_KERNEL_TAUS = (0.05, 0.5, 2.0)


def test_criterion_06_interval_kernel_closed_vs_series(bp):
    worst = 0.0
    for tau in BARRIER_KERNEL_TAUS:
        pts = _barrier_kernel_grid(bp, tau)
        for which in ("p1", "p2"):
            for x in pts:
                for xp in pts:
                    closed = closed_kernel(bp, which, x, xp, tau)
                    series = kernel_values(bp, which, "spectral", float(x), float(xp),
                                           tau)[0]
                    worst = max(worst, abs(closed - series))
    report(6, "interval_kernel_closed_vs_series", worst <= 1e-10,
           f"worst abs {worst:.2e}, tau in {{0.05, 0.5, 2}}, tol 1e-10")


def test_criterion_07_image_series_oracle(bp):
    worst = 0.0
    for tau in BARRIER_KERNEL_TAUS:
        pts = _barrier_kernel_grid(bp, tau)
        for x in pts:
            for xp in pts:
                oracle = kernel_oracle_image_series(bp, float(x), float(xp), tau)
                closed = closed_kernel(bp, "p1", x, xp, tau)
                series = kernel_values(bp, "p1", "spectral", float(x), float(xp), tau)[0]
                worst = max(worst,
                            abs(closed - oracle) / abs(oracle),
                            abs(series - oracle) / abs(oracle))
    report(7, "image_series_oracle", worst <= 1e-8,
           f"worst rel against reflection-series density {worst:.2e} "
           f"on the criterion-6 grid, tol 1e-8")


def test_criterion_08_pricing_triangle(market):
    bp_log = bar.BarrierParams(market, math.log(80.0), math.log(120.0))
    cfg = MCConfig()  # 200k paths, 512 steps, bridge correction on
    x0 = math.log(100.0)
    worst_z = 0.0
    mc_time = 0.0
    for tau in (0.25, 0.5):
        for strike in (90.0, 100.0, 110.0):
            payoff = Payoff("call", strike)
            spectral = price_spectral(bp_log, "p1", payoff, x0, tau)
            start = time.perf_counter()
            mc = price_mc_barrier(payoff, 100.0, (80.0, 120.0),
                                  market.sigma, market.r, tau, cfg)
            mc_time += time.perf_counter() - start
            worst_z = max(worst_z, abs(spectral.value - mc.value) / mc.stderr)
    ok = worst_z <= 3.0 and mc_time < 60.0
    report(8, "pricing_triangle", ok,
           f"6 strike/maturity combos: worst |z| = {worst_z:.2f} "
           f"(limit 3), MC wall time {mc_time:.1f}s (limit 60s)")


def test_criterion_09_wide_barrier_limit(market):
    wide = bar.BarrierParams(market, math.log(20.0), math.log(500.0))
    payoff = Payoff("call", 100.0)
    spectral = price_spectral(wide, "p1", payoff, math.log(100.0), 0.5)
    vanilla = bs_closed_form("call", 100.0, 100.0, market.sigma, market.r, 0.5)
    diff = abs(spectral.value - vanilla)
    report(9, "wide_barrier_limit", diff <= 0.01,
           f"spectral {spectral.value:.4f} vs closed form {vanilla:.4f}, "
           f"|diff| = {diff:.2e} (tol 0.01)")


def test_criterion_10_quasi_basis_convergence(hp):
    sys_h = harmonic_system(hp)
    result = check_quasi_basis(sys_h, 60)
    report(10, "quasi_basis_convergence", result.max_residual <= 1e-6,
           f"worst |S_N - <f, g>| = {result.max_residual:.2e} at N = 60, "
           f"untilted Hermite-polynomial pairs, beta = {hp.beta:.4g}, tol 1e-6")


def test_criterion_11_failed_factorization_residual(market_beta0):
    res0 = bar.failed_factorization_residual(
        bar.BarrierParams(market_beta0, 0.0, math.pi))
    ok0 = abs(res0 - 0.5287) <= 1e-3

    # r = sigma^2 (1/2 - beta) >= 0 reaches beta <= 1/2 directly; the residual
    # is even in beta, so the measured [-1, -1/2) branch certifies (1/2, 1]
    sweep = {}
    for beta in (-1.0, -0.75, -0.5, -0.25, 0.0, 0.25, 0.5):
        mk = MarketParams(0.2, 0.04 * (0.5 - beta))
        sweep[beta] = bar.failed_factorization_residual(bar.BarrierParams(mk, 0.0, math.pi))
    floor = min(sweep.values())
    evenness = max(abs(sweep[0.25] - sweep[-0.25]),
                   abs(sweep[0.5] - sweep[-0.5]))

    ok = ok0 and floor > 0.1 and evenness <= 1e-6
    report(11, "failed_factorization_residual", ok,
           f"beta=0 residual {res0:.4f} (wants 0.5287 +- 0.001); sweep floor "
           f"{floor:.3f} over |beta| <= 1 (needs > 0.1); evenness gap "
           f"{evenness:.1e}")


def test_criterion_12_beta_flip_duality(hp, bp):
    worst = 0.0
    for params, x, xp in ((hp, 0.1, -0.05), (bp, 1.2, 1.9)):
        for method in ("closed", "spectral"):
            p2 = kernel_values(params, "p2", method, x, xp, 0.5)[0]
            flipped = kernel_values(params, "p1", method, x, xp, 0.5,
                                    beta=-params.beta)[0]
            worst = max(worst, abs(p2 - flipped))

    payoff = Payoff("call", 100.0)
    bp_log = bar.BarrierParams(hp.market, math.log(80.0), math.log(120.0))
    p2_price = price_spectral(bp_log, "p2", payoff, math.log(100.0), 0.5).value
    flip_price = price_spectral(bp_log, "p1", payoff, math.log(100.0), 0.5,
                                beta=-bp_log.beta).value
    worst = max(worst, abs(p2_price - flip_price))

    h_payoff = Payoff("call", 1.0)
    p2_h = price_spectral(hp, "p2", h_payoff, 0.0, 0.5).value
    flip_h = price_spectral(hp, "p1", h_payoff, 0.0, 0.5, beta=-hp.beta).value
    worst = max(worst, abs(p2_h - flip_h))

    report(12, "beta_flip_duality", worst <= 1e-15,
           f"kernels (both models, both methods) and prices: worst "
           f"|p2 - p1 at -beta| = {worst:.1e} (tol 1e-15)")


def test_criterion_13_short_time_concentration(hp, bp, gl2048):
    nodes, weights = gl2048
    taus = (0.2, 0.1, 0.05, 0.025)
    min_order = math.inf
    worst_final = 0.0

    # interval model: smooth mode mixture evaluated strictly inside
    x_nodes = 0.5 * bp.width * (nodes + 1.0) + bp.a
    w_nodes = 0.5 * bp.width * weights
    f_vals = bar.varphi_n(bp, 0)(x_nodes) + 0.15 * bar.varphi_n(bp, 3)(x_nodes)
    x_eval = 1.2
    f_at_x = float(bar.varphi_n(bp, 0)(x_eval) + 0.15 * bar.varphi_n(bp, 3)(x_eval))
    errs = []
    for tau in taus:
        kernel = np.array([closed_kernel(bp, "p1", x_eval, xp, tau)
                           for xp in x_nodes])
        errs.append(abs(float(np.sum(w_nodes * kernel * f_vals)) - f_at_x))
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(len(taus) - 1)]
    min_order = min(min_order, *orders)
    worst_final = max(worst_final, errs[-1])

    # oscillator model: the quadrature window shrinks with the diffusion
    # width so every tau is resolved by the same rule
    x_eval = 0.1
    f_at_x = float(har.varphi_n(hp, 0)(x_eval) + 0.02 * har.varphi_n(hp, 3)(x_eval))
    errs = []
    for tau in taus:
        half = 25.0 * hp.sigma * math.sqrt(tau)
        xs = x_eval + half * nodes
        ws = half * weights
        kernel = np.array([closed_kernel(hp, "p1", x_eval, xp, tau)
                           for xp in xs])
        f_vals = har.varphi_n(hp, 0)(xs) + 0.02 * har.varphi_n(hp, 3)(xs)
        errs.append(abs(float(np.sum(ws * kernel * f_vals)) - f_at_x))
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(len(taus) - 1)]
    min_order = min(min_order, *orders)
    worst_final = max(worst_final, errs[-1])

    ok = min_order >= 1.0
    report(13, "short_time_concentration", ok,
           f"|integral p1 f - f(x)| under tau-halving from 0.2: observed "
           f"order >= {min_order:.3f} (needs 1), final error {worst_final:.1e}")
