"""Pricing kernels: spectral sums against closed forms, the image-series
oracle, and the beta-flip duality between the two kernels."""

import math
from dataclasses import replace

import numpy as np
import pytest

from pbk.barrier import BarrierParams
from pbk.harmonic import HarmonicParams
from pbk.kernels import (
    DEFAULT_N_TRUNC,
    KernelRequest,
    KernelValue,
    N_TRUNC_CAP,
    barrier_spectral_values,
    harmonic_spectral_values,
    kernel_oracle_image_series,
    kernel_rows,
    kernel_value,
)
from pbk.market import MarketParams


@pytest.fixture(scope="module")
def hp(market):
    return HarmonicParams(market)


@pytest.fixture(scope="module")
def bp(market):
    return BarrierParams(market, 0.0, math.pi)


def h_req(**kw):
    base = dict(model="harmonic", which="p1", x=0.1, x_prime=-0.05, tau=0.5,
                method="spectral", n_trunc=80)
    base.update(kw)
    return KernelRequest(**base)


def b_req(**kw):
    base = dict(model="barrier", which="p1", x=1.2, x_prime=1.9, tau=0.5,
                method="spectral", n_trunc=DEFAULT_N_TRUNC)
    base.update(kw)
    return KernelRequest(**base)


# ---------------------------------------------------------------------------
# request plumbing


class TestKernelRequest:
    def test_field_validation(self):
        with pytest.raises(ValueError, match="model"):
            h_req(model="heat")
        with pytest.raises(ValueError, match="which"):
            h_req(which="p3")
        with pytest.raises(ValueError, match="method"):
            h_req(method="exact")
        with pytest.raises(ValueError, match="tau"):
            h_req(tau=0.0)
        with pytest.raises(ValueError, match="n_trunc"):
            h_req(n_trunc=N_TRUNC_CAP + 1)
        with pytest.raises(ValueError, match="n_trunc"):
            h_req(n_trunc=-1)

    def test_beta_sign(self):
        assert h_req(which="p1").beta_sign == 1.0
        assert h_req(which="p2").beta_sign == -1.0

    def test_kernel_value_tail(self):
        assert not KernelValue(1.0, 1e-11).tail_warning
        assert KernelValue(1.0, 1e-9).tail_warning
        with pytest.raises(ValueError):
            KernelValue(1.0, -1e-12)

    def test_model_params_mismatch(self, hp, bp):
        for method in ("spectral", "closed"):
            with pytest.raises(TypeError, match="HarmonicParams"):
                kernel_value(h_req(method=method), bp)
            with pytest.raises(TypeError, match="BarrierParams"):
                kernel_value(b_req(method=method), hp)


# ---------------------------------------------------------------------------
# closed forms against spectral sums


class TestHarmonicAgreement:
    @pytest.mark.parametrize("which", ["p1", "p2"])
    def test_gaussian_closed_form_matches_sum(self, hp, which):
        pts = np.linspace(-0.15, 0.15, 5)
        worst = 0.0
        for x in pts:
            for xp in pts:
                req = h_req(which=which, x=float(x), x_prime=float(xp), tau=0.3)
                spectral = kernel_value(req, hp).value
                closed = kernel_value(replace(req, method="closed"), hp).value
                worst = max(worst, abs(spectral - closed) / abs(closed))
        assert worst <= 1e-8

    def test_long_time_ground_state_rate(self, hp):
        # for large tau the kernel decays at the bottom eigenvalue delta
        v1 = kernel_value(h_req(method="closed", tau=30.0), hp).value
        v2 = kernel_value(h_req(method="closed", tau=31.0), hp).value
        assert v2 / v1 == pytest.approx(math.exp(-hp.delta), rel=1e-12)

    def test_positive_inside(self, hp):
        for xp in (-0.4, 0.0, 0.3):
            assert kernel_value(h_req(x_prime=xp), hp).value > 0.0


class TestBarrierAgreement:
    @pytest.mark.parametrize("tau,n_trunc", [(0.05, 200), (0.5, 128), (2.0, 64)])
    def test_theta_closed_form_matches_sum(self, bp, tau, n_trunc):
        worst = 0.0
        for x in (0.7, 1.5, 2.8):
            for xp in (0.4, 1.9):
                req = b_req(x=x, x_prime=xp, tau=tau, n_trunc=n_trunc)
                spectral = kernel_value(req, bp).value
                closed = kernel_value(replace(req, method="closed"), bp).value
                worst = max(worst, abs(spectral - closed))
        assert worst <= 1e-10

    def test_long_time_ground_state_rate(self, bp):
        from pbk.barrier import eigenvalue

        v1 = kernel_value(b_req(method="closed", tau=400.0), bp).value
        v2 = kernel_value(b_req(method="closed", tau=401.0), bp).value
        assert v2 / v1 == pytest.approx(math.exp(-eigenvalue(bp, 0)), rel=1e-9)

    def test_outside_interval_rejected(self, bp):
        with pytest.raises(ValueError, match="outside"):
            kernel_value(b_req(x=-0.1), bp)
        with pytest.raises(ValueError, match="outside"):
            kernel_value(b_req(x_prime=3.5, method="closed"), bp)

    def test_vanishes_toward_the_barrier(self, bp):
        far = abs(kernel_value(b_req(method="closed"), bp).value)
        near = abs(kernel_value(b_req(method="closed", x_prime=1e-7), bp).value)
        assert near < 1e-5 * far

    def test_tail_warning_when_truncated_early(self, bp):
        generous = kernel_value(b_req(tau=0.05, n_trunc=200), bp)
        starved = kernel_value(b_req(tau=0.05, n_trunc=6), bp)
        assert not generous.tail_warning
        assert starved.tail_warning


# ---------------------------------------------------------------------------
# the image-series oracle


class TestImageOracle:
    def test_matches_spectral_p1(self, bp):
        # spacing scales with the diffusion width so the density stays
        # well above the cancellation floor of the sine series
        worst = 0.0
        for tau in (0.05, 0.5, 2.0):
            half = min(1.2 * bp.sigma * math.sqrt(tau), 0.45 * bp.width)
            pts = np.linspace(1.5 - half, 1.5 + half, 3)
            for x in pts:
                for xp in pts:
                    oracle = kernel_oracle_image_series(bp, float(x), float(xp), tau)
                    req = b_req(x=float(x), x_prime=float(xp), tau=tau, n_trunc=200)
                    spectral = kernel_value(req, bp).value
                    worst = max(worst, abs(spectral - oracle) / abs(oracle))
        assert worst <= 1e-8

    def test_swapped_arguments_give_p2(self, bp):
        req = b_req(which="p2", x=1.2, x_prime=2.0, tau=0.4, method="closed")
        value = kernel_value(req, bp).value
        oracle = kernel_oracle_image_series(bp, 2.0, 1.2, 0.4)
        assert value == pytest.approx(oracle, rel=1e-8)

    def test_rejects_nonpositive_tau(self, bp):
        with pytest.raises(ValueError, match="tau"):
            kernel_oracle_image_series(bp, 1.0, 2.0, 0.0)

    def test_wide_barriers_recover_free_lognormal_kernel(self, market):
        wide = BarrierParams(market, -20.0, 20.0)
        x, xp, tau = 0.0, 0.12, 0.5
        mu = market.r - 0.5 * market.sigma**2
        var = market.sigma**2 * tau
        free = (
            math.exp(-market.r * tau)
            * math.exp(-((xp - x - mu * tau) ** 2) / (2.0 * var))
            / math.sqrt(2.0 * math.pi * var)
        )
        oracle = kernel_oracle_image_series(wide, x, xp, tau)
        assert oracle == pytest.approx(free, rel=1e-12)


# ---------------------------------------------------------------------------
# duality and vectorization


class TestBetaFlip:
    @pytest.mark.parametrize("method", ["spectral", "closed"])
    def test_harmonic_bitwise(self, hp, method):
        p2 = kernel_value(h_req(which="p2", method=method), hp).value
        flipped = kernel_value(h_req(which="p1", method=method), hp, beta=-hp.beta).value
        assert p2 == flipped

    @pytest.mark.parametrize("method", ["spectral", "closed"])
    def test_barrier_bitwise(self, bp, method):
        p2 = kernel_value(b_req(which="p2", method=method), bp).value
        flipped = kernel_value(b_req(which="p1", method=method), bp, beta=-bp.beta).value
        assert p2 == flipped

    def test_ratio_of_the_two_kernels(self, hp):
        # p1 / p2 = e^{2 beta (x - x')}
        req1, req2 = h_req(), h_req(which="p2")
        ratio = kernel_value(req1, hp).value / kernel_value(req2, hp).value
        assert ratio == pytest.approx(math.exp(2 * hp.beta * (0.1 + 0.05)), rel=1e-12)


class TestVectorization:
    # summation order differs between the 1-d and column-wise reductions,
    # so agreement is to rounding error, not bitwise

    def test_harmonic_array_matches_scalars(self, hp):
        xps = np.array([-0.2, 0.0, 0.15])
        vec_vals, vec_tails = harmonic_spectral_values(hp, 0.1, xps, 0.5, 1.0, hp.beta, 60)
        for i, xp in enumerate(xps):
            val, tail = harmonic_spectral_values(hp, 0.1, float(xp), 0.5, 1.0, hp.beta, 60)
            assert np.isclose(val, vec_vals[i], rtol=1e-13, atol=1e-16)
            assert tail == vec_tails[i]

    def test_barrier_array_matches_scalars(self, bp):
        xps = np.array([0.5, 1.5, 2.5])
        vec_vals, vec_tails = barrier_spectral_values(bp, 1.2, xps, 0.3, 1.0, bp.beta, 100)
        for i, xp in enumerate(xps):
            val, tail = barrier_spectral_values(bp, 1.2, float(xp), 0.3, 1.0, bp.beta, 100)
            assert np.isclose(val, vec_vals[i], rtol=1e-12, atol=1e-15)
            assert tail == vec_tails[i]


# ---------------------------------------------------------------------------
# batch rows


class TestKernelRows:
    GRIDS = {"harmonic": ([-0.15, 0.0, 0.1], [-0.1, 0.05, 0.2, 0.3]),
             "barrier": ([0.7, 1.5, 2.8], [0.4, 1.9, 2.5])}
    TAUS = (0.3, 1.0)

    def test_row_count_and_disagreement(self, bp):
        rows = kernel_rows(bp, [1.0, 2.0], [1.5], [0.5],
                           whichs=("p1",), methods=("spectral", "closed"))
        assert len(rows) == 4
        assert all(r["rel_disagreement"] is not None for r in rows)
        assert all(r["rel_disagreement"] <= 1e-10 for r in rows)

    def test_single_method_leaves_disagreement_unset(self, hp):
        rows = kernel_rows(hp, [0.0], [0.1], [0.3],
                           whichs=("p1", "p2"), methods=("spectral",))
        assert len(rows) == 2
        assert all(r["rel_disagreement"] is None for r in rows)

    def test_closed_rows_have_zero_tail(self, hp):
        rows = kernel_rows(hp, [0.0], [0.1], [0.4], methods=("closed",))
        assert all(r["tail_estimate"] == 0.0 for r in rows)

    @pytest.mark.parametrize("model", ["harmonic", "barrier"])
    def test_grid_matches_pointwise(self, hp, bp, model):
        # one broadcast per (tau, which, method) against one kernel_value per row
        params = hp if model == "harmonic" else bp
        xs, xps = self.GRIDS[model]
        rows = kernel_rows(params, xs, xps, self.TAUS)
        keys = [(tau, x, xp, which, method) for tau in self.TAUS for x in xs
                for xp in xps for which in ("p1", "p2")
                for method in ("spectral", "closed")]
        assert [(r["tau"], r["x"], r["x_prime"], r["which"], r["method"])
                for r in rows] == keys
        assert all(set(r) == {"x", "x_prime", "tau", "which", "method", "value",
                              "tail_estimate", "rel_disagreement"} for r in rows)
        peak = max(abs(r["value"]) for r in rows)
        for r in rows:
            req = KernelRequest(model, r["which"], r["x"], r["x_prime"], r["tau"],
                                r["method"])
            expected = kernel_value(req, params)
            assert abs(r["value"] - expected.value) <= 1e-13 * peak
            assert r["tail_estimate"] == pytest.approx(expected.tail_estimate,
                                                       rel=1e-12, abs=1e-300)
        for spectral, closed in zip(rows[::2], rows[1::2]):
            gap = abs(spectral["value"] - closed["value"]) / abs(closed["value"])
            assert spectral["rel_disagreement"] == closed["rel_disagreement"] == gap

    @pytest.mark.parametrize("model", ["harmonic", "barrier"])
    def test_p2_rows_are_p1_rows_at_minus_beta(self, hp, bp, model):
        params = hp if model == "harmonic" else bp
        xs, xps = self.GRIDS[model]
        p2 = kernel_rows(params, xs, xps, self.TAUS, whichs=("p2",))
        flipped = kernel_rows(params, xs, xps, self.TAUS, whichs=("p1",),
                              beta=-params.beta)
        for a, b in zip(p2, flipped, strict=True):
            assert (a["value"], a["tail_estimate"]) == (b["value"], b["tail_estimate"])

    def test_invalid_tables_rejected(self, hp, bp):
        with pytest.raises(ValueError, match="tau"):
            kernel_rows(hp, [0.0], [0.1], [0.5, 0.0])
        with pytest.raises(ValueError, match="n_trunc"):
            kernel_rows(hp, [0.0], [0.1], [0.5], n_trunc=N_TRUNC_CAP + 1)
        with pytest.raises(ValueError, match="x_prime = 3.5 lies outside"):
            kernel_rows(bp, [1.0], [1.5, 3.5], [0.5])
        with pytest.raises(TypeError):
            kernel_rows(hp.market, [0.0], [0.1], [0.5])
