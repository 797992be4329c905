"""Pricing layer: payoffs, the coefficient-space spectral price against the
quadrature oracle, the Monte Carlo oracle with Brownian-bridge correction,
and the Black-Scholes reference."""

import json
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

import mpmath

import pbk.barrier
import pbk.harmonic
import pbk.kernels
import pbk.quadrature
from pbk import pricing
from pbk.barrier import BarrierParams
from pbk.harmonic import HarmonicParams
from pbk.kernels import kernel_values, top_mode
from pbk.pricing import (
    BRIDGE_NEAR,
    MC_BLOCK_PATHS,
    MC_CHUNK_PATHS,
    PAYOFF_KINDS,
    MCConfig,
    Payoff,
    PricingResult,
    _block_sizes,
    _bridge_log_survival,
    _simulate_block,
    price_mc_barrier,
    price_spectral,
)

from oracles import (_panels, bs_closed_form, kernel_oracle_image_series, oracle_rules,
                     quadrature_price)


BARRIERS = (80.0, 120.0)
LOG_A, LOG_B = math.log(80.0), math.log(120.0)
X0 = math.log(100.0)


@pytest.fixture(scope="module")
def box(market):
    return BarrierParams(market, LOG_A, LOG_B)


def payoff_scale(payoff):
    """The size of the payoff: its strike, or 1 for a digital."""
    return 1.0 if payoff.kind == "digital_call" else payoff.strike


# ---------------------------------------------------------------------------
# payoffs


class TestPayoff:
    def test_validation(self):
        with pytest.raises(ValueError, match="kind"):
            Payoff("straddle", 100.0)
        for strike in (0.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="strike must be positive and finite"):
                Payoff("call", strike)

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
        got = price_spectral(huge, "p1", Payoff.call(100.0), X0, 0.5).value
        assert abs(got - bs_closed_form("call", 100, 100, 0.2, 0.05, 0.5)) < 0.01

    @pytest.mark.parametrize("tau", [0.01, 0.001])
    def test_wide_barriers_at_short_tau_match_the_image_series(self, market, tau):
        # 438 and 1390 sine modes: the kernel's own decay rule, no cap of 128
        wide = BarrierParams(market, math.log(20.0), math.log(500.0))
        result = price_spectral(wide, "p1", Payoff.call(100.0), X0, tau)
        assert result.config_echo["n_trunc"] == top_mode(wide, tau) > 128
        # the image-series kernel on 40 panels of 32 nodes over the 12
        # standard deviations above the strike, where the payoff lives
        edges = np.linspace(X0, X0 + 12.0 * market.sigma * math.sqrt(tau), 41)
        nodes, weights = np.polynomial.legendre.leggauss(32)
        oracle = 0.0
        for lo, hi in zip(edges[:-1], edges[1:]):
            for node, weight in zip(0.5 * (hi - lo) * nodes + 0.5 * (hi + lo),
                                    0.5 * (hi - lo) * weights):
                density = kernel_oracle_image_series(wide, X0, float(node), tau)
                oracle += weight * density * (math.exp(node) - 100.0)
        assert result.value == pytest.approx(oracle, rel=1e-10)

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
        result = price_spectral(hp, "p1", Payoff.call(1.0), 0.05, 0.4)
        assert result.value > 0.0
        assert result.config_echo["model"] == "harmonic"

    def test_validation(self, box):
        with pytest.raises(ValueError, match="which"):
            price_spectral(box, "p3", Payoff.call(100.0), X0, 0.5)
        with pytest.raises(ValueError, match="tau"):
            price_spectral(box, "p1", Payoff.call(100.0), X0, 0.0)
        with pytest.raises(ValueError, match="outside"):
            price_spectral(box, "p1", Payoff.call(100.0), math.log(125.0), 0.5)

    @pytest.mark.parametrize("model", ["harmonic", "barrier"])
    def test_one_kernel_call_per_price(self, monkeypatch, box, model):
        # the quadrature oracle evaluates the kernel once per price
        params = HarmonicParams(box.market) if model == "harmonic" else box
        x = 0.05 if model == "harmonic" else X0
        name = f"{model}_spectral_values"
        original = getattr(pbk.kernels, name)
        calls = []

        def counted(*args):
            calls.append(args[2].shape)
            return original(*args)

        monkeypatch.setattr(pbk.kernels, name, counted)
        for strike, panels in ((math.exp(x), 2), (1e6, 1)):
            calls.clear()
            quadrature_price(params, "p1", Payoff.call(strike), x, 0.5, nodes=64, pieces=1)
            assert calls == [(64 * panels,)]

    @pytest.mark.parametrize("model", ["harmonic", "barrier"])
    @pytest.mark.parametrize("panels", [1, 2])
    @pytest.mark.parametrize("nodes", [2, 64, 240])
    def test_bitwise_equal_to_one_call_per_panel(self, box, model, panels, nodes):
        # the oracle's total as it would be with one kernel evaluation per panel
        params = HarmonicParams(box.market) if model == "harmonic" else box
        x = 0.05 if model == "harmonic" else X0
        strike = math.exp(x) if panels == 2 else 1e6
        for which, beta in (("p1", None), ("p2", None), ("p1", -params.beta)):
            for payoff in (Payoff.call(strike), Payoff.put(strike),
                           Payoff.digital_call(strike)):
                rules = oracle_rules(params, payoff, x, 0.5, nodes, 1)
                assert len(rules) == panels
                expected = 0.0
                for rule in rules:
                    values, _ = kernel_values(params, which, "spectral", x, rule.nodes,
                                              0.5, beta)
                    expected += float(np.dot(rule.weights,
                                             values * payoff.as_log(rule.nodes)))
                got = quadrature_price(params, which, payoff, x, 0.5, beta, nodes, 1)
                assert got.hex() == expected.hex()

    def test_panel_split_only_inside(self):
        assert _panels(0.0, 2.0, 1.0) == ((0.0, 1.0), (1.0, 2.0))
        assert _panels(0.0, 2.0, 3.0) == ((0.0, 2.0),)
        assert _panels(0.0, 2.0, 0.0) == ((0.0, 2.0),)

    @pytest.mark.parametrize("model", ["harmonic", "barrier"])
    def test_one_mode_table_and_no_rule_per_price(self, monkeypatch, box, model):
        # one table, on the spot and the log-strike; no kernel call, no rule
        params = HarmonicParams(box.market) if model == "harmonic" else box
        x = 0.05 if model == "harmonic" else X0
        module = pbk.harmonic if model == "harmonic" else pbk.barrier
        calls = Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                if name == "mode_table":
                    calls[("points",) + tuple(np.asarray(args[2]).tolist())] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(module, "mode_table", counted("mode_table", module.mode_table))
        for site in ("harmonic_spectral_values", "barrier_spectral_values"):
            monkeypatch.setattr(pbk.kernels, site, counted(site, getattr(pbk.kernels, site)))
        for owner in (pbk.quadrature, pbk.pricing):
            monkeypatch.setattr(owner, "legendre_rule",
                                counted("legendre_rule", owner.legendre_rule))
        for payoff in (Payoff.call(math.exp(x)), Payoff.put(1e6),
                       Payoff.digital_call(90.0)):
            calls.clear()
            price_spectral(params, "p1", payoff, x, 0.5)
            assert calls == {"mode_table": 1, ("points", x, math.log(payoff.strike)): 1}


class TestCoefficientPrices:
    """The coefficient-space price against the quadrature oracle, to 1e-12
    of the larger of the price and the payoff's scale (its strike, or 1 for
    a digital): deep out of the money both are rounding noise on that
    scale."""

    @staticmethod
    def check(params, x, tau, strikes):
        for kind in PAYOFF_KINDS:
            for strike in strikes:
                payoff = Payoff(kind, strike)
                for which, beta in (("p1", None), ("p2", None), ("p1", -params.beta)):
                    got = price_spectral(params, which, payoff, x, tau, beta).value
                    expected = quadrature_price(params, which, payoff, x, tau, beta)
                    assert got == pytest.approx(expected, rel=1e-12,
                                                abs=1e-12 * payoff_scale(payoff)), (
                        kind, strike, which, beta)

    @pytest.mark.parametrize("lower, upper, tau", [
        (80.0, 120.0, 0.01), (80.0, 120.0, 0.5), (80.0, 120.0, 2.0),
        (50.0, 200.0, 0.05), (50.0, 200.0, 0.5),
        (20.0, 500.0, 0.001), (20.0, 500.0, 0.01), (20.0, 500.0, 0.5),
    ])
    def test_barrier(self, market, lower, upper, tau):
        # strikes outside the barriers, on them and inside them
        params = BarrierParams(market, math.log(lower), math.log(upper))
        self.check(params, X0, tau,
                   (0.9 * lower, lower, 95.0, 100.0, 105.0, upper, 1.1 * upper))

    def test_wide_barrier_modes(self, market):
        wide = BarrierParams(market, math.log(20.0), math.log(500.0))
        assert (top_mode(wide, 0.001), top_mode(wide, 0.01)) == (1389, 438)

    @pytest.mark.parametrize("tau", [0.2, 0.5, 2.0])
    @pytest.mark.parametrize("w", [0.0, 0.3])
    def test_harmonic(self, market, w, tau):
        # strikes within 6 standard deviations sigma sqrt(tau) of the spot
        params = HarmonicParams(market, w)
        x = 0.05
        spread = market.sigma * math.sqrt(tau)
        self.check(params, x, tau, [math.exp(x + j * spread) for j in (-6, -3, -1, 0, 1, 3, 6)])

    def test_harmonic_recurrence_matches_mpmath_at_n_200(self, market):
        # c_n = integral of e^{t (x - x')} Phi_n(x') payoff(e^{x'}) dx' by
        # mpmath quadrature of the normalized Hermite function at 20 digits;
        # the put's top coefficient is 4e-3 of a payoff of scale 0.9
        params = HarmonicParams(market, 0.3)
        x, tilt, n_top = 0.05, params.beta, 200
        sigma = params.sigma
        mpmath.mp.dps = 20
        try:
            for payoff in (Payoff.call(1.1), Payoff.put(0.9)):
                k = math.log(payoff.strike)
                rows = pbk.harmonic.mode_table(params, n_top, np.array([k]))[:, 0]
                got = pbk.harmonic.payoff_coefficients(params, payoff, tilt, x, rows)
                u_k = float(params.scaled_argument(k))
                for n in (0, 57, 200):
                    norm = 1 / mpmath.sqrt(2**n * mpmath.factorial(n) * mpmath.sqrt(mpmath.pi))

                    def integrand(u, n=n, norm=norm, payoff=payoff):
                        xp = sigma * (u - sigma * params.w)
                        h = norm * mpmath.hermite(n, u) * mpmath.exp(-u * u / 2)
                        pay = mpmath.exp(xp) - payoff.strike
                        if payoff.kind == "put":
                            pay = -pay
                        return mpmath.exp(tilt * (x - xp)) * h * pay * mpmath.sqrt(sigma)

                    ends = (mpmath.linspace(u_k, 40, 25) if payoff.kind == "call"
                            else mpmath.linspace(-40, u_k, 25))
                    expected = float(mpmath.quad(integrand, ends))
                    assert got[n] == pytest.approx(expected, rel=1e-11,
                                                   abs=1e-14 * payoff.strike), (payoff, n)
        finally:
            mpmath.mp.dps = 15

    def test_harmonic_price_vanishes_at_huge_tau(self, market):
        # e^{-tau E_0} underflows: the true limit, not a window of nan nodes
        result = price_spectral(HarmonicParams(market), "p1", Payoff.call(1.0), 0.0, 1e300)
        assert result.value == 0.0
        assert result.config_echo["n_trunc"] == 0


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
                                small_cfg(paths=3 * MC_BLOCK_PATHS + 12))
        monkeypatch.setenv("PBK_THREADS", "4")
        threaded = price_mc_barrier(Payoff.call(100.0), 100.0, BARRIERS, 0.2, 0.05,
                                    0.5, small_cfg(paths=3 * MC_BLOCK_PATHS + 12))
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
        assert echo["rng"] == "sfc64"
        assert echo["paths"] == 512
        assert echo["pairs"] == 256
        assert echo["bridge_correction"] is True
        assert got.method == "mc-brownian-bridge"

    def test_each_chunk_mirrors_its_paths_about_the_drift_line(self, monkeypatch):
        # the bridge sees each chunk's paths, the partial chunk's too: row i + h
        # is row i mirrored about x0 + mu t, and the increments of every row
        # give back its normal, so the top h rows carry all the draws
        chunks = []

        def recording(x, *rest):
            chunks.append(x.copy())
            return _bridge_log_survival(x, *rest)

        monkeypatch.setattr(pricing, "_bridge_log_survival", recording)
        cfg = small_cfg(paths=2500, steps=16)
        _simulate_block(3, 2500, X0, LOG_A, LOG_B, 0.2, 0.05, 0.5, cfg,
                        Payoff.call(100.0))
        full, rest = divmod(2500, MC_CHUNK_PATHS)
        assert rest  # the block ends in a partial chunk
        assert [c.shape for c in chunks] == [(MC_CHUNK_PATHS, 16)] * full + [(rest, 16)]
        dt = 0.5 / 16
        drift_line = X0 + (0.05 - 0.02) * dt * np.arange(1, 17)
        for chunk in chunks:
            half = chunk.shape[0] // 2
            np.testing.assert_allclose(chunk[half:] + chunk[:half],
                                       np.broadcast_to(2.0 * drift_line, (half, 16)),
                                       rtol=0.0, atol=1e-14)
        paths = np.concatenate(chunks)
        steps = np.diff(paths, axis=1, prepend=X0)
        normals = (steps - (0.05 - 0.02) * dt) / (0.2 * math.sqrt(dt))
        np.testing.assert_allclose(normals, pair_normals(3, 2500, cfg), rtol=0.0,
                                   atol=1e-12)

    @pytest.mark.parametrize("bridge", [True, False])
    def test_chunk_size_never_changes_a_price(self, monkeypatch, bridge):
        # pairs form inside a chunk and each chunk draws its rows in order from
        # the block's stream, so the pair means, and their sums, do not move;
        # the last block is 1000 paths, a partial chunk at every size
        cfg = small_cfg(paths=2 * MC_BLOCK_PATHS + 1000, bridge_correction=bridge)
        prices = set()
        for chunk in (2, 64, 256, 1024, 8192):
            monkeypatch.setattr(pricing, "MC_CHUNK_PATHS", chunk)
            got = price_mc_barrier(Payoff.call(100.0), 100.0, BARRIERS, 0.2, 0.05, 0.5, cfg)
            prices.add((got.value, got.stderr))
        assert len(prices) == 1

    def test_value_and_stderr_are_taken_over_pairs(self):
        cfg = small_cfg(paths=2 * MC_BLOCK_PATHS + 2500, steps=16)
        got = price_mc_barrier(Payoff.call(100.0), 100.0, BARRIERS, 0.2, 0.05, 0.5,
                               cfg)
        total = total_sq = 0.0
        for block, size in enumerate((MC_BLOCK_PATHS, MC_BLOCK_PATHS, 2500)):
            s1, s2 = unskipped_block(block, size, X0, LOG_A, LOG_B, 0.2, 0.05, 0.5,
                                     cfg, Payoff.call(100.0))
            total += s1
            total_sq += s2
        pairs = cfg.paths // 2
        mean = total / pairs
        variance = (total_sq / pairs - mean * mean) * pairs / (pairs - 1)
        discount = math.exp(-0.05 * 0.5)
        assert got.value == discount * mean
        assert got.stderr == discount * math.sqrt(variance / pairs)
        assert got.config_echo["pairs"] == pairs

    @pytest.mark.parametrize("lower, upper", [(80.0, 120.0), (50.0, 200.0)])
    def test_price_matches_the_image_series(self, market, lower, upper):
        params = BarrierParams(market, math.log(lower), math.log(upper))
        got = price_mc_barrier(Payoff.call(100.0), 100.0, (lower, upper), 0.2,
                               0.05, 0.5, MCConfig(paths=2 * MC_BLOCK_PATHS, seed=5))
        # the image-series kernel on 40 panels of 32 nodes from the strike to
        # the upper barrier
        edges = np.linspace(X0, math.log(upper), 41)
        nodes, weights = np.polynomial.legendre.leggauss(32)
        oracle = 0.0
        for lo, hi in zip(edges[:-1], edges[1:]):
            for node, weight in zip(0.5 * (hi - lo) * nodes + 0.5 * (hi + lo),
                                    0.5 * (hi - lo) * weights):
                density = kernel_oracle_image_series(params, X0, float(node), 0.5)
                oracle += weight * density * (math.exp(node) - 100.0)
        assert abs(got.value - oracle) < 4.0 * got.stderr


def pair_normals(block_index, size, cfg):
    """The block's standard normals, one row per path: each chunk of up to
    MC_CHUNK_PATHS rows is h rows drawn from SFC64 keyed by
    SeedSequence((seed, block)), then the same h rows negated."""
    rng = np.random.Generator(np.random.SFC64(
        np.random.SeedSequence((cfg.seed % 2**64, block_index))))
    chunks = []
    for start in range(0, size, MC_CHUNK_PATHS):
        draws = rng.standard_normal((min(MC_CHUNK_PATHS, size - start) // 2, cfg.steps))
        chunks.append(np.concatenate([draws, -draws]))
    return np.concatenate(chunks)


def pair_sums(values):
    """Sum and sum of squares of the antithetic pair means of per-path
    values: path i with path i + h inside each chunk of 2h paths."""
    means = []
    for chunk in np.split(values, range(MC_CHUNK_PATHS, values.size, MC_CHUNK_PATHS)):
        half = chunk.size // 2
        means.append(0.5 * (chunk[:half] + chunk[half:]))
    means = np.concatenate(means)
    return float(np.sum(means)), float(np.sum(means * means))


def full_matrix_block(block_index, size, x0, log_lo, log_hi, sigma, r, tau, cfg,
                      payoff):
    """The bridge-weighted block sums with every step of every path in one
    matrix: log1p(-min(exp(-2 d0 d1 / sigma^2 dt), 1)) over all steps."""
    dt = tau / cfg.steps
    increments = (r - 0.5 * sigma * sigma) * dt + sigma * math.sqrt(
        dt
    ) * pair_normals(block_index, size, cfg)
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
    return pair_sums(weights * payoff.as_log(x[:, -1]))


def _survivor_paths(block_index, size, x0, log_lo, log_hi, sigma, r, tau, cfg):
    """The block's paths built in `_simulate_block`'s operation order, and
    the survivor mask: the Brownian part sigma sqrt(dt) cumsum(z) on the
    drift line x0 + mu (1..steps) dt. Negation is exact in every step, so the
    rows from -z equal the block's mean_path - W bit for bit."""
    dt = tau / cfg.steps
    x = pair_normals(block_index, size, cfg)
    np.cumsum(x, axis=1, out=x)
    x *= sigma * math.sqrt(dt)
    x += x0 + (r - 0.5 * sigma * sigma) * dt * np.arange(1, cfg.steps + 1)
    return x, (x.min(axis=1) > log_lo) & (x.max(axis=1) < log_hi)


def unskipped_block(block_index, size, x0, log_lo, log_hi, sigma, r, tau, cfg,
                    payoff):
    """The block sums with `_bridge_log_survival` run on every survivor, for
    both barriers."""
    x, alive = _survivor_paths(block_index, size, x0, log_lo, log_hi, sigma, r,
                               tau, cfg)
    rows = np.flatnonzero(alive)
    values = np.zeros(size)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        weights = np.exp(_bridge_log_survival(x, rows, rows, x0, log_lo, log_hi,
                                              sigma * sigma * tau / cfg.steps)[rows])
    values[alive] = weights * payoff.as_log(x[alive, -1])
    return pair_sums(values)


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
    a barrier, and at the benchmark's 80/120 with 512 steps, where 0.5% to
    1.6% are. A 2500-path block is two full path chunks and a partial one."""

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

    @pytest.mark.parametrize("payoff", [Payoff.put(100.0), Payoff.digital_call(100.0)],
                             ids=lambda payoff: payoff.kind)
    def test_block_sums_match_at_the_benchmark_shape(self, payoff):
        # price-mc's 80/120, 512 steps, tau 0.5, bridge on
        cfg = MCConfig(paths=2500, steps=512, seed=11)
        args = (2, 2500, X0, LOG_A, LOG_B, 0.2, 0.05, 0.5, cfg, payoff)
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

        def counting(x, near_lo, near_hi, *rest):
            bridged.append(np.union1d(near_lo, near_hi).size)
            return _bridge_log_survival(x, near_lo, near_hi, *rest)

        monkeypatch.setattr(pricing, "_bridge_log_survival", counting)
        got = _simulate_block(*args)
        assert near <= sum(bridged) <= survivors
        assert {"none": sum(bridged) == 0, "some": sum(bridged) < survivors,
                "all": sum(bridged) == survivors}[rows]
        np.testing.assert_allclose(got, full_matrix_block(*args), rtol=1e-12, atol=0.0)
        assert got == unskipped_block(*args)

    def test_each_barrier_runs_only_on_its_near_rows(self, monkeypatch):
        # at the benchmark's shape some survivors come near one barrier only;
        # they are listed for that barrier alone, and every row's log survival
        # and the block sums equal those with both barriers run on every survivor
        cfg = MCConfig(paths=2500, steps=512, seed=17, bridge_correction=True)
        args = (0, 2500, X0, LOG_A, LOG_B, 0.2, 0.05, 0.5, cfg, Payoff.call(100.0))
        var_dt = 0.2 * 0.2 * (0.5 / 512)
        calls = []

        def recording(x, near_lo, near_hi, *rest):
            out = _bridge_log_survival(x, near_lo, near_hi, *rest)
            calls.append((x.copy(), near_lo, near_hi, out))
            return out

        monkeypatch.setattr(pricing, "_bridge_log_survival", recording)
        got = _simulate_block(*args)
        assert got == unskipped_block(*args)
        lo_only = hi_only = 0
        for x, near_lo, near_hi, out in calls:
            alive = np.flatnonzero((x.min(axis=1) > LOG_A) & (x.max(axis=1) < LOG_B))
            both = _bridge_log_survival(x, alive, alive, X0, LOG_A, LOG_B, var_dt)
            np.testing.assert_array_equal(out, both)
            lo_only += np.setdiff1d(near_lo, near_hi).size
            hi_rows = np.setdiff1d(near_hi, near_lo)
            hi_only += hi_rows.size
            # a row not listed for a barrier runs none of its terms
            lower_terms = _bridge_log_survival(x, near_lo, near_lo[:0], X0, LOG_A,
                                               LOG_B, var_dt)
            assert not lower_terms[hi_rows].any() and out[hi_rows].any()
        assert lo_only > 0 and hi_only > 0

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
        for odd in (1, 3, 20_001):
            with pytest.raises(ValueError, match="paths must be even and >= 2"):
                MCConfig(paths=odd)
        assert MCConfig(paths=2).paths == 2
        with pytest.raises(ValueError):
            MCConfig(steps=0)

    def test_pricing_result_serialization(self):
        r = PricingResult(1.5, "spectral-p1", config_echo={"tau": 0.5})
        assert "stderr" not in r.to_dict()
        parsed = json.loads(PricingResult(1.5, "mc", stderr=0.1).to_json())
        assert parsed["stderr"] == 0.1
        with pytest.raises(ValueError, match="stderr"):
            PricingResult(1.0, "mc", stderr=0.0)
        with pytest.raises(ValueError, match="not JSON compliant"):
            PricingResult(math.inf, "spectral-p1").to_json()
