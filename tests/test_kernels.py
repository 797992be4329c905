"""Pricing kernels: spectral sums against closed forms, the image-series
oracle, and the beta-flip duality between the two kernels."""

import math
from dataclasses import fields

import numpy as np
import pytest

import pbk.barrier
import pbk.harmonic
import pbk.kernels
from pbk.barrier import MAX_SINE_MODES, BarrierParams, Phi_n
from pbk.barrier import eigenvalue as barrier_eigenvalue
from pbk.harmonic import HarmonicParams
from pbk.kernels import (
    barrier_spectral_values,
    harmonic_spectral_values,
    kernel_rows,
    kernel_values,
    top_mode,
)
from pbk.market import MarketParams
from pbk.pricing import Payoff, price_spectral
from pbk.specialfn import MAX_DEGREE, hermite_function_sequence

from oracles import kernel_oracle_image_series


@pytest.fixture(scope="module")
def hp(market):
    return HarmonicParams(market)


@pytest.fixture(scope="module")
def bp(market):
    return BarrierParams(market, 0.0, math.pi)


def h_req(**kw):
    """kernel_values keywords for one whole-line point, kw replacing some."""
    return {"which": "p1", "x": 0.1, "x_prime": -0.05, "tau": 0.5, "method": "spectral",
            **kw}


def b_req(**kw):
    """kernel_values keywords for one point between the barriers, kw replacing some."""
    return {"which": "p1", "x": 1.2, "x_prime": 1.9, "tau": 0.5, "method": "spectral",
            **kw}


def value(params, req, beta=None):
    """The kernel value kernel_values gives at one scalar point."""
    return kernel_values(params, **req, beta=beta)[0]


# ---------------------------------------------------------------------------
# request plumbing


class TestKernelRequest:
    def test_field_validation(self, hp):
        with pytest.raises(ValueError, match="which"):
            kernel_values(hp, **h_req(which="p3"))
        with pytest.raises(ValueError, match="method"):
            kernel_values(hp, **h_req(method="exact"))
        for tau in (0.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="tau must be positive and finite"):
                kernel_values(hp, **h_req(tau=tau))

    def test_kernel_value_tail(self, hp):
        # a scalar spectral point gives its last term as a float tail; closed, zero
        tail = kernel_values(hp, **h_req())[1]
        assert isinstance(tail, float) and tail > 0.0
        assert kernel_values(hp, **h_req(method="closed"))[1] == 0.0

    def test_params_of_neither_model_rejected(self, hp):
        # the params type picks the model; anything else is a TypeError, the
        # same one from every entry point
        for method in ("spectral", "closed"):
            with pytest.raises(TypeError, match="HarmonicParams or BarrierParams"):
                kernel_values(hp.market, **h_req(method=method))
            with pytest.raises(TypeError, match="HarmonicParams or BarrierParams"):
                kernel_values(hp.market, "p1", method, 0.0, 0.1, 0.5)
        for call in (lambda: kernel_rows(hp.market, [0.0], [0.1], [0.5]),
                     lambda: top_mode(hp.market, 0.5),
                     lambda: price_spectral(hp.market, "p1", Payoff.call(1.0), 0.0, 0.5)):
            with pytest.raises(TypeError, match="HarmonicParams or BarrierParams"):
                call()


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
                spectral = value(hp, req)
                closed = value(hp, {**req, "method": "closed"})
                worst = max(worst, abs(spectral - closed) / abs(closed))
        assert worst <= 1e-8

    def test_long_time_ground_state_rate(self, hp):
        # for large tau the kernel decays at the bottom eigenvalue delta
        v1 = value(hp, h_req(method="closed", tau=30.0))
        v2 = value(hp, h_req(method="closed", tau=31.0))
        assert v2 / v1 == pytest.approx(math.exp(-hp.delta), rel=1e-12)

    def test_positive_inside(self, hp):
        for xp in (-0.4, 0.0, 0.3):
            assert value(hp, h_req(x_prime=xp)) > 0.0


class TestBarrierAgreement:
    # max_modes: the fixed truncation each case once passed with; the decay
    # rule keeps fewer modes and still meets the same tolerance
    @pytest.mark.parametrize("tau,max_modes", [(0.05, 200), (0.5, 128), (2.0, 64)])
    def test_theta_closed_form_matches_sum(self, bp, tau, max_modes):
        assert top_mode(bp, tau) <= max_modes
        worst = 0.0
        for x in (0.7, 1.5, 2.8):
            for xp in (0.4, 1.9):
                req = b_req(x=x, x_prime=xp, tau=tau)
                spectral = value(bp, req)
                closed = value(bp, {**req, "method": "closed"})
                worst = max(worst, abs(spectral - closed))
        assert worst <= 1e-10

    def test_long_time_ground_state_rate(self, bp):
        from pbk.barrier import eigenvalue

        v1 = value(bp, b_req(method="closed", tau=400.0))
        v2 = value(bp, b_req(method="closed", tau=401.0))
        assert v2 / v1 == pytest.approx(math.exp(-eigenvalue(bp, 0)), rel=1e-9)

    def test_outside_interval_rejected(self, bp):
        with pytest.raises(ValueError, match="outside"):
            value(bp, b_req(x=-0.1))
        with pytest.raises(ValueError, match="outside"):
            value(bp, b_req(x_prime=3.5, method="closed"))

    def test_vanishes_toward_the_barrier(self, bp):
        far = abs(value(bp, b_req(method="closed")))
        near = abs(value(bp, b_req(method="closed", x_prime=1e-7)))
        assert near < 1e-5 * far


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
                    req = b_req(x=float(x), x_prime=float(xp), tau=tau)
                    spectral = value(bp, req)
                    worst = max(worst, abs(spectral - oracle) / abs(oracle))
        assert worst <= 1e-8

    def test_swapped_arguments_give_p2(self, bp):
        req = b_req(which="p2", x=1.2, x_prime=2.0, tau=0.4, method="closed")
        p2 = value(bp, req)
        oracle = kernel_oracle_image_series(bp, 2.0, 1.2, 0.4)
        assert p2 == pytest.approx(oracle, rel=1e-8)

    def test_rejects_nonpositive_tau(self, bp):
        with pytest.raises(ValueError, match="tau"):
            kernel_oracle_image_series(bp, 1.0, 2.0, 0.0)

    @pytest.mark.parametrize("tau", [1e-5, 1e-3, 0.1, 1.0, 10.0])
    def test_closed_form_matches_at_any_tau(self, bp, tau):
        # relative to each value, down to densities of 1e-52 at tau 1e-5 and
        # near the barriers; the closed form is transformed for all these tau
        for x, xp in ((1.2, 1.21), (1.2, 1.5), (0.01, 0.02), (0.1, 0.15), (2.9, 2.5)):
            for which, (start, end) in (("p1", (x, xp)), ("p2", (xp, x))):
                closed = value(bp, b_req(which=which, x=x, x_prime=xp, tau=tau,
                                         method="closed"))
                oracle = kernel_oracle_image_series(bp, start, end, tau)
                assert closed >= 0.0
                assert closed == pytest.approx(oracle, rel=1e-12, abs=1e-300)

    def test_short_tau_density_is_not_negative(self):
        # the theta3 difference used to cancel to -2.5e-13; the true density
        # is about e^-112500
        box = BarrierParams(MarketParams(0.2, 0.05), 0.0, 3.0)
        for tau in (1e-5, 1e-15):
            table = kernel_rows(box, [1.2], [1.5], [tau], methods=("closed",))
            assert table.value.tolist() == [0.0, 0.0]

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
        p2 = value(hp, h_req(which="p2", method=method))
        flipped = value(hp, h_req(which="p1", method=method), beta=-hp.beta)
        assert p2 == flipped

    @pytest.mark.parametrize("method", ["spectral", "closed"])
    def test_barrier_bitwise(self, bp, method):
        p2 = value(bp, b_req(which="p2", method=method))
        flipped = value(bp, b_req(which="p1", method=method), beta=-bp.beta)
        assert p2 == flipped

    def test_ratio_of_the_two_kernels(self, hp):
        # p1 / p2 = e^{2 beta (x - x')}
        req1, req2 = h_req(), h_req(which="p2")
        ratio = value(hp, req1) / value(hp, req2)
        assert ratio == pytest.approx(math.exp(2 * hp.beta * (0.1 + 0.05)), rel=1e-12)


class TestVectorization:
    # summation order differs between the 1-d and column-wise reductions,
    # so agreement is to rounding error, not bitwise

    def test_harmonic_array_matches_scalars(self, hp):
        xps = np.array([-0.2, 0.0, 0.15])
        [(vec_vals, vec_tails)] = harmonic_spectral_values(hp, 0.1, xps, 0.5, (hp.beta,))
        for i, xp in enumerate(xps):
            [(val, tail)] = harmonic_spectral_values(hp, 0.1, float(xp), 0.5, (hp.beta,))
            assert np.isclose(val, vec_vals[i], rtol=1e-13, atol=1e-16)
            assert tail == vec_tails[i]

    def test_barrier_array_matches_scalars(self, bp):
        xps = np.array([0.5, 1.5, 2.5])
        [(vec_vals, vec_tails)] = barrier_spectral_values(bp, 1.2, xps, 0.3, (bp.beta,))
        for i, xp in enumerate(xps):
            [(val, tail)] = barrier_spectral_values(bp, 1.2, float(xp), 0.3, (bp.beta,))
            assert np.isclose(val, vec_vals[i], rtol=1e-12, atol=1e-15)
            assert tail == vec_tails[i]


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
    def test_bitwise_equal_to_separate_tables(self, hp, bp, model, shape):
        params, spectral, mode_table = (
            (hp, harmonic_spectral_values, pbk.harmonic.mode_table) if model == "harmonic"
            else (bp, barrier_spectral_values, pbk.barrier.mode_table))
        lo, hi = (-0.4, 0.4) if model == "harmonic" else (0.2, 2.9)
        rng = np.random.default_rng(7)
        x_shape, xp_shape = self.SHAPES[shape]
        x = rng.uniform(lo, hi, x_shape)
        xp = rng.uniform(lo, hi, xp_shape)
        x, xp = (float(y) if y.ndim == 0 else y for y in (x, xp))
        # the table of x and that of x', built in separate calls, side by side
        n_top = top_mode(params, 0.3)
        separate = np.concatenate([mode_table(params, n_top, np.ravel(y))
                                   for y in (x, xp)], axis=1)
        tilts = (params.beta, -params.beta)
        got = spectral(params, x, xp, 0.3, tilts)
        expected = spectral(params, x, xp, 0.3, tilts, separate)
        for (value, tail), (expected_value, expected_tail) in zip(got, expected):
            assert same_bits(value, expected_value) and same_bits(tail, expected_tail)


class TestPerModeOracle:
    # each term e^{s beta (x - x')} e^{-tau E_n} Phi_n(x) Phi_n(x') from the
    # scalar per-member functions, summed one mode at a time over exactly the
    # modes 0..N the decay rule keeps; harmonic maturities start at 0.2, where
    # N = floor(36.84 / tau) is within the Hermite cap
    def check(self, params, modes, energy, points, taus):
        x, xp = np.meshgrid(points, points, indexing="ij")
        for tau in taus:
            for which, s in (("p1", 1.0), ("p2", -1.0)):
                value, tail = kernel_values(params, which, "spectral", x, xp, tau)
                prefactor = np.exp(s * params.beta * (x - xp))
                expected = np.zeros_like(x)
                for n in range(top_mode(params, tau) + 1):
                    term = prefactor * math.exp(-tau * energy(n)) * modes(n, x) * modes(n, xp)
                    expected += term
                peak = np.max(np.abs(expected))
                assert np.max(np.abs(value - expected)) <= 1e-13 * peak
                assert np.max(np.abs(tail - np.abs(term))) <= 1e-13 * peak

    def test_harmonic(self, hp):
        def modes(n, y):
            return hermite_function_sequence(n, hp.scaled_argument(y))[n] / math.sqrt(hp.sigma)

        self.check(hp, modes, lambda n: n + hp.delta, np.linspace(-0.5, 0.5, 9),
                   (0.2, 0.3, 1.0, 2.0))

    def test_barrier(self, bp):
        self.check(bp, lambda n, y: Phi_n(bp, n)(y), lambda n: barrier_eigenvalue(bp, n),
                   np.linspace(0.1, math.pi - 0.1, 9), (0.05, 0.3, 1.0, 2.0))

    def test_wide_barrier_at_short_tau(self, market):
        # the short-maturity, wide-barrier regime, where N runs past 200 modes
        wide = BarrierParams(market, math.log(20.0), math.log(500.0))
        taus = (0.001, 0.01, 0.05)
        assert [top_mode(wide, tau) for tau in taus] == [1389, 438, 195]
        self.check(wide, lambda n, y: Phi_n(wide, n)(y),
                   lambda n: barrier_eigenvalue(wide, n),
                   np.linspace(wide.a + 0.1, wide.b - 0.1, 9), taus)


class TestKernelValues:
    def test_scalars_match_kernel_value(self, hp, bp):
        # a scalar point gives the numbers of the one-point array, bit for bit
        for params, req in ((hp, h_req()), (bp, b_req())):
            for which in ("p1", "p2"):
                for method in ("spectral", "closed"):
                    r = {**req, "which": which, "method": method}
                    got = kernel_values(params, **r)
                    expected = kernel_values(params, **{**r, "x": np.array([r["x"]])})
                    assert got == (expected[0][0], expected[1][0])
                    assert [type(v) for v in got] == [float, float]

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
# where the spectral sum stops


class TestTopMode:
    # maturities whose tau (E_n - E_0) stays clear of 36.84 at every n
    HARMONIC_TAUS = (0.19, 0.2, 0.3, 0.5, 1.0, 2.0, 40.0)
    BARRIER_TAUS = (0.001, 0.01, 0.05, 0.3, 2.0, 1e4)

    def test_harmonic_keeps_floor_of_decay_over_tau(self, hp):
        for tau in self.HARMONIC_TAUS:
            assert top_mode(hp, tau) == math.floor(pbk.kernels.KEPT_DECAY / tau)

    @pytest.mark.parametrize("lower, upper", [(0.0, math.pi),
                                              (math.log(20.0), math.log(500.0))])
    def test_barrier_keeps_the_root_of_its_quadratic_energies(self, market, lower,
                                                             upper):
        params = BarrierParams(market, lower, upper)
        for tau in self.BARRIER_TAUS:
            expected = math.floor(math.sqrt(
                1.0 + pbk.kernels.KEPT_DECAY / (tau * params.k_squared)) - 1.0)
            assert top_mode(params, tau) == expected

    def test_kept_and_dropped_decay_straddle_the_cutoff(self, hp, bp):
        for params, eigenvalue, tau in ((hp, lambda n: n + hp.delta, 0.3),
                                        (bp, lambda n: barrier_eigenvalue(bp, n), 0.05)):
            n = top_mode(params, tau)
            decay = [math.exp(-tau * (eigenvalue(m) - eigenvalue(0))) for m in (n, n + 1)]
            assert decay[0] >= 1e-16 > decay[1]

    def test_harmonic_cap_is_the_hermite_degree_cap(self, hp):
        assert top_mode(hp, 0.19) <= MAX_DEGREE
        with pytest.raises(ValueError, match=r"tau = 0.18 needs more than the 201 "
                                             r"oscillator modes 0..200"):
            top_mode(hp, 0.18)

    def test_energies_are_computed_once_per_params(self, monkeypatch, market):
        # a price reads the decay rule for its echo and again for its sum
        calls = []

        def counting(params, n):
            calls.append(params)
            return barrier_eigenvalue(params, n)

        monkeypatch.setattr(pbk.barrier, "eigenvalue", counting)
        params = BarrierParams(market, math.log(81.0), math.log(119.0))
        for tau in (0.5, 0.5, 0.05):
            kernel_values(params, "p1", "spectral", 4.6, 4.7, tau)
            top_mode(params, tau)
        assert calls == [params]
        energies = pbk.kernels._kept_energies(params, 0.05)
        assert not energies.flags.writeable
        np.testing.assert_array_equal(
            energies, barrier_eigenvalue(params, np.arange(energies.size)))

    def test_refused_before_any_table(self, monkeypatch, hp, market):
        def no_table(*args):
            raise AssertionError("a mode table was built")

        monkeypatch.setattr(pbk.barrier, "mode_table", no_table)
        monkeypatch.setattr(pbk.harmonic, "mode_table", no_table)
        wide = BarrierParams(market, math.log(20.0), math.log(500.0))
        assert top_mode(wide, 1e-3) > MAX_DEGREE  # the sine cap is higher
        with pytest.raises(ValueError, match=f"needs more than the {MAX_SINE_MODES + 1} "
                                             f"sine modes"):
            kernel_values(wide, "p1", "spectral", 4.6, 4.7, 1e-7)
        with pytest.raises(ValueError, match="oscillator modes"):
            kernel_values(hp, "p2", "spectral", 0.0, 0.1, 0.1)

    def test_extreme_inputs_are_refused_not_raised(self, hp, bp):
        # 36.84 / tau overflows at tau = 5e-324, and k^2 underflows to 0 at
        # sigma 1e-10 on a width of 2e153; the rule reads the energies only, so
        # neither raises anything but the refusal
        flat = BarrierParams(MarketParams(1e-10, 0.05), -1e153, 1e153)
        assert flat.k_squared == 0.0
        for params, x, tau in ((hp, 0.0, 5e-324), (bp, 1.0, 5e-324), (flat, 0.0, 0.5)):
            with pytest.raises(ValueError, match=f"tau = {tau} needs more than"):
                kernel_values(params, "p1", "spectral", x, x, tau)


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
        # one broadcast per (tau, which, method) against one scalar call per row
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
        for x, xp, tau, which, method, got, tail in zip(
                *(getattr(table, c).tolist() for c in self.COLUMNS[:7])):
            expected, expected_tail = kernel_values(params, which, method, x, xp, tau)
            assert abs(got - expected) <= 1e-13 * peak
            assert tail == pytest.approx(expected_tail, rel=1e-12, abs=1e-300)
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

    @pytest.mark.parametrize("model", ["harmonic", "barrier"])
    @pytest.mark.parametrize("beta", [None, 0.4])
    def test_one_table_per_call_and_the_values_of_kernel_values(self, monkeypatch, hp, bp,
                                                                 model, beta):
        # one mode table, with the rows of the largest top_mode; each
        # (tau, which, method) block equals its own kernel_values call, which
        # builds its own table, bit for bit
        params = hp if model == "harmonic" else bp
        module = pbk.harmonic if model == "harmonic" else pbk.barrier
        xs, xps = (np.array(points) for points in self.GRIDS[model])
        taus = (0.3, 1.0, 0.5)
        built = []
        mode_table = module.mode_table

        def counted(params, n_max, points):
            built.append((n_max, np.shape(points)))
            return mode_table(params, n_max, points)

        monkeypatch.setattr(module, "mode_table", counted)
        table = kernel_rows(params, xs, xps, taus, beta=beta)
        assert built == [(top_mode(params, 0.3), (xs.size + xps.size,))]
        shape = (len(taus), xs.size, xps.size, 2, 2)
        value, tail = table.value.reshape(shape), table.tail_estimate.reshape(shape)
        for t, tau in enumerate(taus):
            for w, which in enumerate(("p1", "p2")):
                for m, method in enumerate(("spectral", "closed")):
                    expected, expected_tail = kernel_values(
                        params, which, method, xs[:, None], xps[None, :], tau, beta)
                    assert value[t, :, :, w, m].tobytes() == expected.tobytes()
                    assert tail[t, :, :, w, m].tobytes() == expected_tail.tobytes()

    def test_one_theta_pair_per_tau(self, monkeypatch, bp):
        calls = []
        theta3 = pbk.kernels.theta3

        def counted(*args):
            calls.append(args[1])
            return theta3(*args)

        monkeypatch.setattr(pbk.kernels, "theta3", counted)
        kernel_rows(bp, [1.0, 2.0], [1.5], [0.3, 1.0], methods=("closed",))
        assert calls == [math.exp(-0.3 * bp.k_squared)] * 2 + [math.exp(-bp.k_squared)] * 2

    def test_invalid_tables_rejected(self, hp, bp):
        with pytest.raises(ValueError, match="tau"):
            kernel_rows(hp, [0.0], [0.1], [0.5, 0.0])
        with pytest.raises(ValueError, match="tau = 0.1 needs more than the 201"):
            kernel_rows(hp, [0.0], [0.1], [0.5, 0.1])
        with pytest.raises(ValueError, match="x_prime = 3.5 lies outside"):
            kernel_rows(bp, [1.0], [1.5, 3.5], [0.5])
        with pytest.raises(TypeError):
            kernel_rows(hp.market, [0.0], [0.1], [0.5])
