"""Pricing layer: payoffs, the spectral integral, the Monte Carlo oracle
with Brownian-bridge correction, and the Black-Scholes reference."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from pbk import pricing
from pbk.barrier import BarrierParams
from pbk.harmonic import HarmonicParams
from pbk.pricing import (
    BRIDGE_NEAR,
    MC_BLOCK_PATHS,
    MC_CHUNK_PATHS,
    MCConfig,
    Payoff,
    PricingResult,
    _block_sizes,
    _bridge_log_survival,
    _panels,
    _simulate_block,
    bs_closed_form,
    price_mc_barrier,
    price_spectral,
)


BARRIERS = (80.0, 120.0)
LOG_A, LOG_B = math.log(80.0), math.log(120.0)
X0 = math.log(100.0)


@pytest.fixture(scope="module")
def box(market):
    return BarrierParams(market, LOG_A, LOG_B)


# ---------------------------------------------------------------------------
# payoffs


class TestPayoff:
    def test_validation(self):
        with pytest.raises(ValueError, match="kind"):
            Payoff("straddle", 100.0)
        with pytest.raises(ValueError, match="strike"):
            Payoff("call", 0.0)

    def test_constructors(self):
        assert Payoff.call(90.0).kind == "call"
        assert Payoff.put(90.0).kind == "put"
        assert Payoff.digital_call(90.0).kind == "digital_call"

    def test_call_payoff_values(self):
        p = Payoff.call(100.0)
        np.testing.assert_allclose(
            p.as_log(np.log([80.0, 100.0, 130.0])), [0.0, 0.0, 30.0], atol=1e-12
        )

    def test_digital_is_strictly_above(self):
        p = Payoff.digital_call(1.0)
        assert p.as_log(0.0) == 0.0  # e^0 = 1 is not strictly above
        assert p.as_log(1e-9) == 1.0
        assert p.as_log(-1e-9) == 0.0

    @given(x=st.floats(-3, 3), strike=st.floats(0.1, 10))
    @settings(max_examples=50)
    def test_call_put_parity_pointwise(self, x, strike):
        call = Payoff.call(strike).as_log(x)
        put = Payoff.put(strike).as_log(x)
        assert call - put == pytest.approx(math.exp(x) - strike, rel=1e-12, abs=1e-12)


# ---------------------------------------------------------------------------
# Black-Scholes reference


class TestBlackScholes:
    @pytest.mark.parametrize("kind", ["call", "put", "digital_call"])
    @pytest.mark.parametrize("strike", [90.0, 100.0, 110.0])
    def test_matches_normal_cdf_form(self, kind, strike):
        s0, sigma, r, tau = 100.0, 0.2, 0.05, 0.5
        d1 = (math.log(s0 / strike) + (r + sigma**2 / 2) * tau) / (sigma * math.sqrt(tau))
        d2 = d1 - sigma * math.sqrt(tau)
        expected = {
            "call": s0 * norm.cdf(d1) - strike * math.exp(-r * tau) * norm.cdf(d2),
            "put": strike * math.exp(-r * tau) * norm.cdf(-d2) - s0 * norm.cdf(-d1),
            "digital_call": math.exp(-r * tau) * norm.cdf(d2),
        }[kind]
        assert bs_closed_form(kind, s0, strike, sigma, r, tau) == pytest.approx(
            expected, rel=1e-12
        )

    def test_atm_reference_value(self):
        assert bs_closed_form("call", 100.0, 100.0, 0.2, 0.05, 0.5) == pytest.approx(
            6.8887, abs=5e-4
        )

    @given(
        s0=st.floats(50, 200),
        strike=st.floats(50, 200),
        tau=st.floats(0.05, 2.0),
    )
    @settings(max_examples=40)
    def test_put_call_parity(self, s0, strike, tau):
        r, sigma = 0.05, 0.2
        call = bs_closed_form("call", s0, strike, sigma, r, tau)
        put = bs_closed_form("put", s0, strike, sigma, r, tau)
        assert call - put == pytest.approx(
            s0 - strike * math.exp(-r * tau), rel=1e-10, abs=1e-10
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            bs_closed_form("swap", 100, 100, 0.2, 0.05, 0.5)
        with pytest.raises(ValueError):
            bs_closed_form("call", 100, 100, 0.0, 0.05, 0.5)
        with pytest.raises(ValueError):
            bs_closed_form("call", 100, 100, 0.2, 0.05, 0.0)
        with pytest.raises(ValueError):
            bs_closed_form("call", -100, 100, 0.2, 0.05, 0.5)


# ---------------------------------------------------------------------------
# spectral prices


class TestPriceSpectral:
    def test_barrier_call_basics(self, box):
        result = price_spectral(box, "p1", Payoff.call(100.0), X0, 0.5)
        assert 0.0 < result.value < bs_closed_form("call", 100, 100, 0.2, 0.05, 0.5)
        assert result.method == "spectral-p1"
        assert result.stderr is None
        assert result.config_echo["model"] == "barrier"
        assert result.config_echo["strike"] == 100.0

    def test_decreasing_in_strike(self, box):
        prices = [
            price_spectral(box, "p1", Payoff.call(k), X0, 0.5).value
            for k in (90.0, 100.0, 110.0)
        ]
        assert prices[0] > prices[1] > prices[2] > 0.0

    def test_widening_barriers_raises_the_price(self, market):
        narrow = price_spectral(
            BarrierParams(market, LOG_A, LOG_B), "p1", Payoff.call(100.0), X0, 0.5
        ).value
        wide = price_spectral(
            BarrierParams(market, math.log(70.0), math.log(130.0)),
            "p1", Payoff.call(100.0), X0, 0.5,
        ).value
        vanilla = bs_closed_form("call", 100, 100, 0.2, 0.05, 0.5)
        assert narrow < wide < vanilla

    def test_wide_barriers_recover_black_scholes(self, market):
        huge = BarrierParams(market, math.log(20.0), math.log(500.0))
        got = price_spectral(huge, "p1", Payoff.call(100.0), X0, 0.5, n_trunc=160).value
        assert abs(got - bs_closed_form("call", 100, 100, 0.2, 0.05, 0.5)) < 0.01

    def test_strike_beyond_upper_barrier_prices_zero(self, box):
        result = price_spectral(box, "p1", Payoff.call(130.0), X0, 0.5)
        assert result.value == 0.0

    def test_digital_bounded_by_discount(self, box):
        result = price_spectral(box, "p1", Payoff.digital_call(100.0), X0, 0.5)
        assert 0.0 < result.value < math.exp(-0.05 * 0.5)

    def test_beta_flip_matches_p2_exactly(self, box):
        p2 = price_spectral(box, "p2", Payoff.call(100.0), X0, 0.5)
        flipped = price_spectral(box, "p1", Payoff.call(100.0), X0, 0.5, beta=-box.beta)
        assert p2.value == flipped.value
        assert flipped.config_echo["beta_override"] == -box.beta

    def test_harmonic_window_follows_spot(self, market):
        hp = HarmonicParams(market)
        result = price_spectral(hp, "p1", Payoff.call(1.0), 0.05, 0.4, n_trunc=100)
        assert result.value > 0.0
        assert result.config_echo["model"] == "harmonic"

    def test_validation(self, box):
        with pytest.raises(ValueError, match="which"):
            price_spectral(box, "p3", Payoff.call(100.0), X0, 0.5)
        with pytest.raises(ValueError, match="tau"):
            price_spectral(box, "p1", Payoff.call(100.0), X0, 0.0)
        with pytest.raises(ValueError, match="outside"):
            price_spectral(box, "p1", Payoff.call(100.0), math.log(125.0), 0.5)

    def test_panel_split_only_inside(self):
        assert _panels(0.0, 2.0, 1.0) == ((0.0, 1.0), (1.0, 2.0))
        assert _panels(0.0, 2.0, 3.0) == ((0.0, 2.0),)
        assert _panels(0.0, 2.0, 0.0) == ((0.0, 2.0),)


# ---------------------------------------------------------------------------
# Monte Carlo


def small_cfg(**kw):
    base = dict(paths=4096, steps=64, seed=77)
    base.update(kw)
    return MCConfig(**base)


class TestMonteCarlo:
    def test_deterministic_for_fixed_seed(self):
        a = price_mc_barrier(Payoff.call(100.0), 100.0, BARRIERS, 0.2, 0.05, 0.5,
                             small_cfg())
        b = price_mc_barrier(Payoff.call(100.0), 100.0, BARRIERS, 0.2, 0.05, 0.5,
                             small_cfg())
        assert a.value == b.value
        assert a.stderr == b.stderr

    def test_seed_changes_the_estimate(self):
        a = price_mc_barrier(Payoff.call(100.0), 100.0, BARRIERS, 0.2, 0.05, 0.5,
                             small_cfg(seed=1))
        b = price_mc_barrier(Payoff.call(100.0), 100.0, BARRIERS, 0.2, 0.05, 0.5,
                             small_cfg(seed=2))
        assert a.value != b.value

    def test_worker_count_does_not_change_the_sum(self, monkeypatch):
        base = price_mc_barrier(Payoff.call(100.0), 100.0, BARRIERS, 0.2, 0.05, 0.5,
                                small_cfg(paths=3 * MC_BLOCK_PATHS + 11))
        monkeypatch.setenv("PBK_THREADS", "4")
        threaded = price_mc_barrier(Payoff.call(100.0), 100.0, BARRIERS, 0.2, 0.05,
                                    0.5, small_cfg(paths=3 * MC_BLOCK_PATHS + 11))
        assert base.value == threaded.value
        assert base.stderr == threaded.stderr

    def test_bad_worker_count_rejected(self, monkeypatch):
        monkeypatch.setenv("PBK_THREADS", "0")
        with pytest.raises(ValueError, match="PBK_THREADS"):
            price_mc_barrier(Payoff.call(100.0), 100.0, BARRIERS, 0.2, 0.05, 0.5,
                             small_cfg(paths=64))

    def test_bridge_correction_lowers_the_price(self):
        on = price_mc_barrier(Payoff.call(100.0), 100.0, BARRIERS, 0.2, 0.05, 0.5,
                              small_cfg(paths=20_000, steps=32))
        off = price_mc_barrier(Payoff.call(100.0), 100.0, BARRIERS, 0.2, 0.05, 0.5,
                               small_cfg(paths=20_000, steps=32,
                                         bridge_correction=False))
        assert on.value < off.value

    def test_wide_barriers_recover_vanilla(self):
        cfg = small_cfg(paths=50_000, steps=16, seed=3)
        got = price_mc_barrier(Payoff.call(100.0), 100.0, (1.0, 1e5), 0.2, 0.05,
                               0.5, cfg)
        vanilla = bs_closed_form("call", 100, 100, 0.2, 0.05, 0.5)
        assert abs(got.value - vanilla) < 4.0 * got.stderr

    def test_constant_payoff_has_no_stderr(self):
        got = price_mc_barrier(Payoff.digital_call(50.0), 100.0, (1.0, 1e4),
                               1e-8, 0.05, 0.25, small_cfg(paths=256, steps=8))
        assert got.stderr is None
        assert got.value == pytest.approx(math.exp(-0.05 * 0.25), rel=1e-12)

    def test_tiny_volatility_forward_limit(self):
        got = price_mc_barrier(Payoff.call(90.0), 100.0, (1.0, 1e4), 1e-8, 0.05,
                               0.25, small_cfg(paths=256, steps=8))
        assert got.value == pytest.approx(
            100.0 - 90.0 * math.exp(-0.05 * 0.25), abs=1e-6
        )

    def test_validation(self):
        with pytest.raises(ValueError, match="degenerate"):
            price_mc_barrier(Payoff.call(100.0), 100.0, (120.0, 80.0), 0.2, 0.05,
                             0.5, small_cfg())
        with pytest.raises(ValueError, match="inside"):
            price_mc_barrier(Payoff.call(100.0), 130.0, BARRIERS, 0.2, 0.05, 0.5,
                             small_cfg())
        with pytest.raises(ValueError, match="positive"):
            price_mc_barrier(Payoff.call(100.0), 100.0, BARRIERS, 0.0, 0.05, 0.5,
                             small_cfg())

    def test_echo_documents_the_run(self):
        got = price_mc_barrier(Payoff.call(100.0), 100.0, BARRIERS, 0.2, 0.05, 0.5,
                               small_cfg(paths=512))
        echo = got.config_echo
        assert echo["rng"] == "philox4x64"
        assert echo["paths"] == 512
        assert echo["bridge_correction"] is True
        assert got.method == "mc-brownian-bridge"


def full_matrix_block(block_index, size, x0, log_lo, log_hi, sigma, r, tau, cfg,
                      payoff):
    """The bridge-weighted block sums with every step of every path in one
    matrix: log1p(-min(exp(-2 d0 d1 / sigma^2 dt), 1)) over all steps."""
    key = np.array([cfg.seed % 2**64, block_index], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    dt = tau / cfg.steps
    increments = (r - 0.5 * sigma * sigma) * dt + sigma * math.sqrt(
        dt
    ) * rng.standard_normal((size, cfg.steps))
    x = np.empty((size, cfg.steps + 1))
    x[:, 0] = x0
    x[:, 1:] = x0 + np.cumsum(increments, axis=1)
    d_lo = x - log_lo
    d_hi = log_hi - x
    dead = np.any((d_lo[:, 1:] <= 0.0) | (d_hi[:, 1:] <= 0.0), axis=1)
    if cfg.bridge_correction:
        var_dt = sigma * sigma * dt
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            p_lo = np.exp(-2.0 * d_lo[:, :-1] * d_lo[:, 1:] / var_dt)
            p_hi = np.exp(-2.0 * d_hi[:, :-1] * d_hi[:, 1:] / var_dt)
            log_survival = np.sum(
                np.log1p(-np.minimum(p_lo, 1.0)) + np.log1p(-np.minimum(p_hi, 1.0)),
                axis=1,
            )
        weights = np.where(dead, 0.0, np.exp(log_survival))
    else:
        weights = np.where(dead, 0.0, 1.0)
    values = weights * payoff.as_log(x[:, -1])
    return float(np.sum(values)), float(np.sum(values * values))


def _survivor_paths(block_index, size, x0, log_lo, log_hi, sigma, r, tau, cfg):
    """The block's paths built as `_simulate_block` builds them, and the
    survivor mask."""
    key = np.array([cfg.seed % 2**64, block_index], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    dt = tau / cfg.steps
    chunks = []
    for start in range(0, size, MC_CHUNK_PATHS):
        x = rng.standard_normal((min(MC_CHUNK_PATHS, size - start), cfg.steps))
        x *= sigma * math.sqrt(dt)
        x += (r - 0.5 * sigma * sigma) * dt
        np.cumsum(x, axis=1, out=x)
        x += x0
        chunks.append(x)
    x = np.concatenate(chunks)
    return x, (x.min(axis=1) > log_lo) & (x.max(axis=1) < log_hi)


def unskipped_block(block_index, size, x0, log_lo, log_hi, sigma, r, tau, cfg,
                    payoff):
    """The block sums with `_bridge_log_survival` run on every survivor."""
    x, alive = _survivor_paths(block_index, size, x0, log_lo, log_hi, sigma, r,
                               tau, cfg)
    values = np.zeros(size)
    for start in range(0, size, MC_CHUNK_PATHS):
        stop = min(start + MC_CHUNK_PATHS, size)
        chunk = x[start:stop][alive[start:stop]]
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            weights = np.exp(_bridge_log_survival(chunk, x0, log_lo, log_hi,
                                                  sigma * sigma * tau / cfg.steps))
        values[start:stop][alive[start:stop]] = weights * payoff.as_log(chunk[:, -1])
    return float(np.sum(values)), float(np.sum(values * values))


def near_rows(block_index, size, x0, log_lo, log_hi, sigma, r, tau, cfg, payoff):
    """Survivors with a step where d0 d1 < BRIDGE_NEAR sigma^2 dt, and all
    survivors."""
    x, alive = _survivor_paths(block_index, size, x0, log_lo, log_hi, sigma, r,
                               tau, cfg)
    x = np.concatenate([np.full((size, 1), x0), x], axis=1)[alive]
    limit = BRIDGE_NEAR * sigma * sigma * tau / cfg.steps
    d_lo, d_hi = x - log_lo, log_hi - x
    near = ((d_lo[:, :-1] * d_lo[:, 1:] < limit)
            | (d_hi[:, :-1] * d_hi[:, 1:] < limit)).any(axis=1)
    return int(near.sum()), int(alive.sum())


class TestBlockAgainstFullMatrix:
    """The near-barrier bridge weight against the all-steps formula, on
    barriers narrow enough that 32% to 100% of the survivors' steps are near
    a barrier (0.5% to 1.6% at 80/120 with 512 steps). A 2500-path block
    is two full path chunks and a partial one."""

    CASES = [  # (barriers, tau, steps, strike)
        ((95.0, 105.0), 0.1, 64, 100.0),
        ((90.0, 110.0), 0.25, 48, 95.0),
        ((97.0, 120.0), 0.5, 32, 105.0),
    ]

    @pytest.mark.parametrize("barriers, tau, steps, strike", CASES)
    @pytest.mark.parametrize("bridge", [True, False])
    def test_block_sums_match(self, barriers, tau, steps, strike, bridge):
        cfg = MCConfig(paths=2500, steps=steps, seed=11, bridge_correction=bridge)
        args = (2, 2500, X0, math.log(barriers[0]), math.log(barriers[1]), 0.2,
                0.05, tau, cfg, Payoff.call(strike))
        got = _simulate_block(*args)
        want = full_matrix_block(*args)
        assert want[0] > 0.0
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)

    # (barriers, tau, steps, spot, rows near a barrier): the bridge runs only
    # on survivors whose smallest gap to a barrier, start included, is near
    SKIP_CASES = [
        ((50.0, 200.0), 0.25, 64, 100.0, "none"),
        ((80.0, 120.0), 0.25, 64, 100.0, "some"),
        ((98.0, 130.0), 0.25, 64, 100.0, "all"),
    ]

    @pytest.mark.parametrize("barriers, tau, steps, spot, rows", SKIP_CASES)
    def test_skipped_rows_change_nothing(self, monkeypatch, barriers, tau, steps,
                                         spot, rows):
        cfg = MCConfig(paths=2500, steps=steps, seed=13, bridge_correction=True)
        args = (1, 2500, math.log(spot), math.log(barriers[0]),
                math.log(barriers[1]), 0.2, 0.05, tau, cfg, Payoff.call(100.0))
        near, survivors = near_rows(*args)
        assert {"none": near == 0, "some": 0 < near < survivors,
                "all": near == survivors > 0}[rows]
        bridged = []

        def counting(x, *rest):
            bridged.append(x.shape[0])
            return _bridge_log_survival(x, *rest)

        monkeypatch.setattr(pricing, "_bridge_log_survival", counting)
        got = _simulate_block(*args)
        assert near <= sum(bridged) <= survivors
        assert {"none": sum(bridged) == 0, "some": sum(bridged) < survivors,
                "all": sum(bridged) == survivors}[rows]
        np.testing.assert_allclose(got, full_matrix_block(*args), rtol=1e-12, atol=0.0)
        assert got == unskipped_block(*args)

    def test_block_with_no_survivors(self):
        cfg = MCConfig(paths=300, steps=64, seed=5)
        args = (0, 300, X0, math.log(99.9), math.log(100.1), 0.2, 0.05, 0.5,
                cfg, Payoff.call(100.0))
        assert _simulate_block(*args) == full_matrix_block(*args) == (0.0, 0.0)


class TestHelpers:
    def test_block_sizes_partition_the_paths(self):
        assert _block_sizes(MC_BLOCK_PATHS) == [MC_BLOCK_PATHS]
        assert _block_sizes(1) == [1]
        sizes = _block_sizes(200_000)
        assert sum(sizes) == 200_000
        assert all(s == MC_BLOCK_PATHS for s in sizes[:-1])

    def test_mc_config_validation(self):
        with pytest.raises(ValueError):
            MCConfig(paths=0)
        with pytest.raises(ValueError):
            MCConfig(steps=0)

    def test_pricing_result_serialization(self):
        r = PricingResult(1.5, "spectral-p1", config_echo={"tau": 0.5})
        assert "stderr" not in r.to_dict()
        parsed = json.loads(PricingResult(1.5, "mc", stderr=0.1).to_json())
        assert parsed["stderr"] == 0.1
        with pytest.raises(ValueError, match="stderr"):
            PricingResult(1.0, "mc", stderr=0.0)
