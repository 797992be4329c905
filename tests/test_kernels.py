"""Pricing kernels: spectral sums against closed forms, the image-series
oracle, and the beta-flip duality between the two kernels."""

import math
from dataclasses import fields, replace

import numpy as np
import pytest

import pbk.kernels
from pbk.barrier import DEFAULT_TRUNCATION, BarrierParams, Phi_n
from pbk.barrier import eigenvalue as barrier_eigenvalue
from pbk.harmonic import HarmonicParams
from pbk.kernels import (
    KernelRequest,
    KernelValue,
    barrier_spectral_values,
    harmonic_spectral_values,
    kernel_oracle_image_series,
    kernel_rows,
    kernel_value,
    kernel_values,
)
from pbk.market import MarketParams
from pbk.specialfn import MAX_DEGREE, hermite_function


@pytest.fixture(scope="module")
def hp(market):
    return HarmonicParams(market)


@pytest.fixture(scope="module")
def bp(market):
    return BarrierParams(market, 0.0, math.pi)


def h_req(**kw):
    base = dict(which="p1", x=0.1, x_prime=-0.05, tau=0.5,
                method="spectral", n_trunc=80)
    base.update(kw)
    return KernelRequest(**base)


def b_req(**kw):
    base = dict(which="p1", x=1.2, x_prime=1.9, tau=0.5,
                method="spectral", n_trunc=DEFAULT_TRUNCATION)
    base.update(kw)
    return KernelRequest(**base)


# ---------------------------------------------------------------------------
# request plumbing


class TestKernelRequest:
    def test_field_validation(self):
        with pytest.raises(ValueError, match="which"):
            h_req(which="p3")
        with pytest.raises(ValueError, match="method"):
            h_req(method="exact")
        for tau in (0.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="tau must be positive and finite"):
                h_req(tau=tau)
        with pytest.raises(ValueError, match="n_trunc"):
            h_req(n_trunc=MAX_DEGREE + 1)
        with pytest.raises(ValueError, match="n_trunc"):
            h_req(n_trunc=-1)

    def test_kernel_value_tail(self):
        assert not KernelValue(1.0, 1e-11).tail_warning
        assert KernelValue(1.0, 1e-9).tail_warning
        with pytest.raises(ValueError):
            KernelValue(1.0, -1e-12)

    def test_params_of_neither_model_rejected(self, hp):
        # the params type picks the model; anything else is a TypeError
        for method in ("spectral", "closed"):
            with pytest.raises(TypeError, match="HarmonicParams or BarrierParams"):
                kernel_value(h_req(method=method), hp.market)
            with pytest.raises(TypeError, match="HarmonicParams or BarrierParams"):
                kernel_values(hp.market, "p1", method, 0.0, 0.1, 0.5)


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


def separate_tables_spectral_sum(table, energies, x, x_prime, tau, s, beta):
    """The spectral sum with x and x' tabulated in separate calls of table."""
    x, xp = np.asarray(x, dtype=float), np.asarray(x_prime, dtype=float)
    scalar = x.ndim == xp.ndim == 0
    nd = max(x.ndim, xp.ndim, 1)
    x, xp = (y.reshape((1,) * (nd - y.ndim) + y.shape) for y in (x, xp))
    decay = np.exp(-tau * energies).reshape((-1,) + (1,) * nd)
    terms = ((decay * table(x.ravel()).reshape((-1,) + x.shape))
             * table(xp.ravel()).reshape((-1,) + xp.shape))
    prefactor = np.exp(s * beta * (x - xp))
    value = prefactor * np.sum(terms, axis=0)
    tail = np.abs(prefactor * terms[-1])
    if scalar:
        return float(value[0]), float(tail[0])
    return value, tail


def same_bits(a, b) -> bool:
    return (type(a) is type(b) and np.shape(a) == np.shape(b)
            and np.asarray(a).tobytes() == np.asarray(b).tobytes())


class TestOneModeTable:
    # x and x' share one call of the mode table; the values must not move
    SHAPES = {
        "scalar-scalar": ((), ()),
        "scalar-1d": ((), (7,)),
        "1d-scalar": ((5,), ()),
        "1d-1d": ((6,), (6,)),
        "column-row": ((4, 1), (1, 3)),
        "2d-scalar": ((2, 3), ()),
        "2d-2d": ((2, 3), (2, 3)),
    }

    @pytest.mark.parametrize("model", ["harmonic", "barrier"])
    @pytest.mark.parametrize("shape", SHAPES, ids=list(SHAPES))
    def test_bitwise_equal_to_separate_tables(self, monkeypatch, hp, bp, model, shape):
        params, spectral = ((hp, harmonic_spectral_values) if model == "harmonic"
                            else (bp, barrier_spectral_values))
        lo, hi = (-0.4, 0.4) if model == "harmonic" else (0.2, 2.9)
        rng = np.random.default_rng(7)
        x_shape, xp_shape = self.SHAPES[shape]
        x = rng.uniform(lo, hi, x_shape)
        xp = rng.uniform(lo, hi, xp_shape)
        x, xp = (float(y) if y.ndim == 0 else y for y in (x, xp))
        for s in (1.0, -1.0):
            got = spectral(params, x, xp, 0.3, s, params.beta, 90)
            with monkeypatch.context() as m:
                m.setattr(pbk.kernels, "_spectral_sum", separate_tables_spectral_sum)
                expected = spectral(params, x, xp, 0.3, s, params.beta, 90)
            assert same_bits(got[0], expected[0]) and same_bits(got[1], expected[1])


class TestPerModeOracle:
    # each term e^{s beta (x - x')} e^{-tau E_n} Phi_n(x) Phi_n(x') from the
    # scalar per-member functions, summed one mode at a time
    N_TRUNC = 64
    TAUS = (0.05, 0.3, 1.0, 2.0)

    def check(self, params, modes, energy, points):
        x, xp = np.meshgrid(points, points, indexing="ij")
        for tau in self.TAUS:
            for which, s in (("p1", 1.0), ("p2", -1.0)):
                value, tail = kernel_values(params, which, "spectral", x, xp, tau,
                                            self.N_TRUNC)
                prefactor = np.exp(s * params.beta * (x - xp))
                expected = np.zeros_like(x)
                for n in range(self.N_TRUNC + 1):
                    term = prefactor * math.exp(-tau * energy(n)) * modes(n, x) * modes(n, xp)
                    expected += term
                peak = np.max(np.abs(expected))
                assert np.max(np.abs(value - expected)) <= 1e-13 * peak
                assert np.max(np.abs(tail - np.abs(term))) <= 1e-13 * peak

    def test_harmonic(self, hp):
        def modes(n, y):
            return hermite_function(n, hp.scaled_argument(y)) / math.sqrt(hp.sigma)

        self.check(hp, modes, lambda n: n + hp.delta, np.linspace(-0.5, 0.5, 9))

    def test_barrier(self, bp):
        self.check(bp, lambda n, y: Phi_n(bp, n)(y), lambda n: barrier_eigenvalue(bp, n),
                   np.linspace(0.1, math.pi - 0.1, 9))


class TestKernelValues:
    def test_scalars_match_kernel_value(self, hp, bp):
        for params, req in ((hp, h_req()), (bp, b_req())):
            for which in ("p1", "p2"):
                for method in ("spectral", "closed"):
                    r = replace(req, which=which, method=method)
                    value, tail = kernel_values(params, which, method, r.x,
                                                r.x_prime, r.tau, r.n_trunc)
                    expected = kernel_value(r, params)
                    assert (value, tail) == (expected.value, expected.tail_estimate)

    def test_array_point_outside_is_named(self, bp):
        xs = np.array([1.0, 2.0, 3.5, 0.5])
        for method in ("spectral", "closed"):
            with pytest.raises(ValueError, match=r"x = 3.5 lies outside the open "
                                                 r"barrier interval \(0.0, 3.14"):
                kernel_values(bp, "p1", method, xs, 1.5, 0.5)
            with pytest.raises(ValueError, match="x_prime = -0.25 lies outside"):
                kernel_values(bp, "p2", method, 1.5, np.array([[0.5], [-0.25]]), 0.5)
            with pytest.raises(ValueError, match="x = nan lies outside"):
                kernel_values(bp, "p1", method, np.array([1.0, np.nan]), 1.5, 0.5)

    def test_non_finite_points_rejected(self, hp):
        for method in ("spectral", "closed"):
            with pytest.raises(ValueError, match=r"x = inf lies outside the open "
                                                 r"interval \(-inf, inf\)"):
                kernel_values(hp, "p1", method, np.array([0.0, np.inf]), 0.1, 0.5)
            with pytest.raises(ValueError, match="x_prime = nan lies outside the open interval"):
                kernel_values(hp, "p1", method, 0.0, np.array([0.1, np.nan]), 0.5)


# ---------------------------------------------------------------------------
# batch rows


class TestKernelRows:
    GRIDS = {"harmonic": ([-0.15, 0.0, 0.1], [-0.1, 0.05, 0.2, 0.3]),
             "barrier": ([0.7, 1.5, 2.8], [0.4, 1.9, 2.5])}
    TAUS = (0.3, 1.0)
    COLUMNS = ("x", "x_prime", "tau", "which", "method", "value", "tail_estimate",
               "rel_disagreement")

    def test_row_count_and_disagreement(self, bp):
        table = kernel_rows(bp, [1.0, 2.0], [1.5], [0.5],
                            whichs=("p1",), methods=("spectral", "closed"))
        assert len(table) == 4
        assert all(getattr(table, c).shape == (4,) for c in self.COLUMNS)
        assert np.all(table.rel_disagreement <= 1e-10)

    def test_single_method_leaves_disagreement_unset(self, hp):
        table = kernel_rows(hp, [0.0], [0.1], [0.3],
                            whichs=("p1", "p2"), methods=("spectral",))
        assert len(table) == 2
        assert table.rel_disagreement is None

    def test_closed_rows_have_zero_tail(self, hp):
        table = kernel_rows(hp, [0.0], [0.1], [0.4], methods=("closed",))
        assert np.all(table.tail_estimate == 0.0)

    @pytest.mark.parametrize("model", ["harmonic", "barrier"])
    def test_grid_matches_pointwise(self, hp, bp, model):
        # one broadcast per (tau, which, method) against one kernel_value per row
        params = hp if model == "harmonic" else bp
        xs, xps = self.GRIDS[model]
        table = kernel_rows(params, xs, xps, self.TAUS)
        keys = [(tau, x, xp, which, method) for tau in self.TAUS for x in xs
                for xp in xps for which in ("p1", "p2")
                for method in ("spectral", "closed")]
        assert list(zip(table.tau.tolist(), table.x.tolist(), table.x_prime.tolist(),
                        table.which.tolist(), table.method.tolist())) == keys
        assert [f.name for f in fields(table)] == list(self.COLUMNS)
        assert len(table) == len(keys)
        peak = np.max(np.abs(table.value))
        for x, xp, tau, which, method, value, tail in zip(
                *(getattr(table, c).tolist() for c in self.COLUMNS[:7])):
            expected = kernel_value(KernelRequest(which, x, xp, tau, method), params)
            assert abs(value - expected.value) <= 1e-13 * peak
            assert tail == pytest.approx(expected.tail_estimate, rel=1e-12, abs=1e-300)
        spectral, closed = table.value[::2], table.value[1::2]
        gap = np.abs(spectral - closed) / np.abs(closed)
        assert np.array_equal(table.rel_disagreement[::2], gap)
        assert np.array_equal(table.rel_disagreement[1::2], gap)

    @pytest.mark.parametrize("model", ["harmonic", "barrier"])
    def test_p2_rows_are_p1_rows_at_minus_beta(self, hp, bp, model):
        params = hp if model == "harmonic" else bp
        xs, xps = self.GRIDS[model]
        p2 = kernel_rows(params, xs, xps, self.TAUS, whichs=("p2",))
        flipped = kernel_rows(params, xs, xps, self.TAUS, whichs=("p1",),
                              beta=-params.beta)
        assert len(p2) == len(flipped)
        assert np.array_equal(p2.value, flipped.value)
        assert np.array_equal(p2.tail_estimate, flipped.tail_estimate)

    def test_invalid_tables_rejected(self, hp, bp):
        with pytest.raises(ValueError, match="tau"):
            kernel_rows(hp, [0.0], [0.1], [0.5, 0.0])
        with pytest.raises(ValueError, match="n_trunc"):
            kernel_rows(hp, [0.0], [0.1], [0.5], n_trunc=MAX_DEGREE + 1)
        with pytest.raises(ValueError, match="x_prime = 3.5 lies outside"):
            kernel_rows(bp, [1.0], [1.5, 3.5], [0.5])
        with pytest.raises(TypeError):
            kernel_rows(hp.market, [0.0], [0.1], [0.5])
