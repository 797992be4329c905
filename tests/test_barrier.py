"""Double-barrier model: sine modes, the broken differential ladder, and the
spectral ladder that replaces it."""

import math
import re
import sys
import tracemalloc
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pbk.barrier
from pbk.barrier import (
    BarrierParams,
    MAX_SINE_MODES,
    Phi_n,
    SineExpansion,
    analyze_phi,
    analyze_psi,
    apply_A_hat,
    apply_B_hat,
    eigenvalue,
    failed_factorization_residual,
    mode_table,
    moments,
    psi_n,
    rho_coefficient,
    synthesize_phi,
    synthesize_psi,
    varphi_n,
)
from pbk.grids import (GridSpec, apply_Theta, apply_Theta_inv, gram, row_norm,
                       shared_mode_tables)
from pbk.market import MarketParams
from pbk.pb_core import run_all_checks
from pbk.quadrature import legendre_rule
from pbk.specialfn import MAX_DEGREE
from pbk.systems import barrier_system

from oracles import (apply_A_naive, apply_B_naive, factorization_residual, gram_matrix,
                     sine_mode)

TRUNCATION = 128  # the top index of the long coefficient vectors built here


@pytest.fixture(scope="module")
def box(market):
    return BarrierParams(market, 0.0, math.pi)


def interior_grid(params, h):
    """Uniform grid with step h from a + 2h to b - 2h."""
    n = round(params.width / h) - 3
    return GridSpec.over(params.a + 2 * h, params.b - 2 * h, n)


def market_with_beta(beta, sigma=0.2):
    """Market whose log-drift tilt equals beta; needs beta <= 1/2 so r >= 0."""
    return MarketParams(sigma, sigma**2 * (0.5 - beta))


# ---------------------------------------------------------------------------
# parameters and spectrum


class TestParams:
    def test_reference_constants(self, box):
        assert box.width == pytest.approx(math.pi)
        assert box.k_squared == pytest.approx(0.02, rel=1e-14)
        assert eigenvalue(box, 0) == pytest.approx(0.08125, abs=1e-15)

    def test_ordering_required(self, market):
        with pytest.raises(ValueError, match="a < b"):
            BarrierParams(market, 1.0, 1.0)
        with pytest.raises(ValueError):
            BarrierParams(market, 2.0, -2.0)

    def test_width_with_a_finite_nonzero_square_required(self, market):
        # the largest width whose square is finite (its k^2 underflows to 0,
        # which the spectral decay rule refuses), and the first beyond it; at
        # 1e-160 the square is a subnormal float but k^2 overflows
        edge = math.sqrt(sys.float_info.max)
        assert BarrierParams(market, 0.0, edge).k_squared == 0.0
        for a, b in ((0.0, math.nextafter(edge, math.inf)), (-1e200, 1e200), (0.0, 1e-200),
                     (0.0, 1e-160)):
            with pytest.raises(ValueError, match=re.escape(f"width b - a = {b - a} is out")):
                BarrierParams(market, a, b)
        with pytest.raises(ValueError, match=re.escape("k^2 = sigma^2 pi^2 / (2 L^2) overflows")):
            BarrierParams(market, 0.0, 1e-160)

    def test_eigenvalues_increase(self, box):
        vals = [eigenvalue(box, n) for n in range(12)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_rho_sequence(self, box):
        assert rho_coefficient(box, 0) == 0.0
        assert rho_coefficient(box, 1) == pytest.approx(3.0, rel=1e-14)
        assert rho_coefficient(box, 2) == pytest.approx(8.0, rel=1e-14)

    def test_negative_mode_rejected(self, box):
        with pytest.raises(ValueError):
            eigenvalue(box, -1)
        with pytest.raises(ValueError):
            rho_coefficient(box, -2)

    @given(n=st.integers(0, 150))
    @settings(max_examples=30)
    def test_factorized_energy_identity(self, box, n):
        # sigma^2/2 rho_n + delta' reproduces the spectrum, delta' = E_0
        lhs = box.sigma**2 / 2.0 * rho_coefficient(box, n) + eigenvalue(box, 0)
        assert lhs == pytest.approx(eigenvalue(box, n), rel=1e-13)


# ---------------------------------------------------------------------------
# mode families


class TestModes:
    def test_boundary_zeros_and_support(self, box):
        for n in (0, 3, 17):
            f = Phi_n(box, n)
            assert f(box.a) == 0.0
            assert f(box.b) == pytest.approx(0.0, abs=1e-12)
            assert f(box.a - 0.5) == 0.0
            assert f(box.b + 2.0) == 0.0

    def test_scalar_and_array_evaluation(self, box):
        f = Phi_n(box, 2)
        xs = np.array([0.3, 1.1, 4.0])
        vals = f(xs)
        assert isinstance(f(0.3), float)
        assert vals.shape == (3,)
        assert vals[0] == pytest.approx(f(0.3))

    @pytest.mark.parametrize("n", [0, 1, 9, 40])
    def test_unit_norm(self, box, n):
        rule = legendre_rule(512, box.a, box.b)
        f = Phi_n(box, n)
        assert np.dot(rule.weights, f(rule.nodes) ** 2) == pytest.approx(1.0, rel=1e-13)

    def test_orthogonality(self, box):
        rule = legendre_rule(512, box.a, box.b)
        f, g = Phi_n(box, 4), Phi_n(box, 11)
        assert abs(np.dot(rule.weights, f(rule.nodes) * g(rule.nodes))) < 1e-14

    def test_tilted_families(self, box):
        x = np.linspace(0.2, 2.9, 7)
        base = Phi_n(box, 5)(x)
        np.testing.assert_allclose(varphi_n(box, 5)(x), np.exp(box.beta * x) * base, rtol=1e-14)
        np.testing.assert_allclose(psi_n(box, 5)(x), np.exp(-box.beta * x) * base, rtol=1e-14)
        # each member is row n of the table, tilted and zeroed outside [a, b],
        # bit for bit: inside, on a and b, and outside; on 80/120, unlike on
        # (0, pi), (n + 1) (lambda_1 (x - a)) and lambda_{n+1} (x - a) differ
        for p in (box, BarrierParams(box.market, math.log(80.0), math.log(120.0))):
            y = np.concatenate([p.a + (x - box.a) * p.width / box.width,
                                [p.a, p.b, p.a - 0.5, p.b + 2.0]])
            inside = (y >= p.a) & (y <= p.b)
            for n in (0, 1, 2, 3, 5, 40, MAX_SINE_MODES):
                row = mode_table(p, n, y)[n]
                for member, rate in ((Phi_n, 0.0), (varphi_n, p.beta), (psi_n, -p.beta)):
                    np.testing.assert_array_equal(member(p, n)(y),
                                                  np.where(inside, row * np.exp(rate * y), 0.0))

    def test_a_member_builds_only_its_row(self, market, monkeypatch):
        # one member at the cap on 1000 points: no 4097-row mode_table (33 MB),
        # and no allocation near that size
        wide = BarrierParams(market, math.log(20.0), math.log(500.0))
        x = np.linspace(wide.a, wide.b, 1000)
        built = []
        monkeypatch.setattr(pbk.barrier, "mode_table",
                            lambda *args: built.append(args[1]) or mode_table(*args))
        member = psi_n(wide, MAX_SINE_MODES)
        tracemalloc.start()
        try:
            member(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert built == []
        assert peak < 1_000_000

    def test_mode_cap(self, box):
        with pytest.raises(ValueError, match=f"0..{MAX_SINE_MODES}, got {MAX_SINE_MODES + 1}"):
            Phi_n(box, MAX_SINE_MODES + 1)
        with pytest.raises(ValueError):
            varphi_n(box, -1)

    def test_top_mode_matches_the_table(self, market):
        # single modes reach the kernels' sine cap; at n = 4096 the sine's
        # argument is up to 4097 pi, so the table row and the mode's own
        # wavenumber differ by rounding
        wide = BarrierParams(market, math.log(20.0), math.log(500.0))
        x = np.linspace(wide.a, wide.b, 41)[1:-1]
        top = Phi_n(wide, MAX_SINE_MODES)(x)
        assert np.max(np.abs(top)) == pytest.approx(math.sqrt(2.0 / wide.width), rel=1e-5)
        np.testing.assert_allclose(top, sine_mode(wide, MAX_SINE_MODES, x), rtol=0, atol=1e-11)


# ---------------------------------------------------------------------------
# the naive differential factorization, on grid samples (tests/oracles.py)


class TestNaiveFactorization:
    def test_vacuum_annihilated(self, box):
        grid = interior_grid(box, 1e-3 * box.width)
        out = apply_A_naive(box, grid.sample(varphi_n(box, 0)))
        scale = row_norm(varphi_n(box, 0)(out.x), out.dx)
        assert row_norm(out.samples, out.dx) / scale < 1e-5

    def test_vacuum_residual_shrinks_at_second_order(self, box):
        errs = []
        # the eighth-order stencil reaches rounding, about 1.1e-14, at width/256;
        # these steps read 3.3e-9, 1.9e-11 and 8.9e-14 (orders 7.45 and 7.73)
        for h in (box.width / 20, box.width / 40, box.width / 80):
            grid = interior_grid(box, h)
            out = apply_A_naive(box, grid.sample(varphi_n(box, 0)))
            scale = row_norm(varphi_n(box, 0)(out.x), out.dx)
            errs.append(row_norm(out.samples, out.dx) / scale)
        orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert min(orders) > 1.9

    def test_raising_produces_tilted_cosine(self, box):
        # B varphi_0 = -2 lambda_1 e^{beta x} cos(lambda_1 (x - a)), not varphi_1:
        # the premise of failed_factorization_residual's closed form
        for params in (box, BarrierParams(market_with_beta(0.5), 0.0, math.pi),
                       BarrierParams(box.market, -0.4, 1.8)):
            lam1 = params.wavenumber(1)
            amp = math.sqrt(2.0 / params.width)
            grid = interior_grid(params, 2.5e-4 * params.width)
            out = apply_B_naive(params, grid.sample(varphi_n(params, 0)))
            expected = (-2.0 * lam1 * amp * np.exp(params.beta * out.x)
                        * np.cos(lam1 * (out.x - params.a)))
            rel = row_norm(out.samples - expected, out.dx) / row_norm(expected, out.dx)
            assert rel < 1e-6

    @pytest.mark.parametrize("n", [0, 1, 3, 5])
    def test_product_still_factorizes_hamiltonian(self, box, n):
        # sigma^2/2 B(A(varphi_n)) + E_0 varphi_n = eigenvalue_n varphi_n,
        # second order in the step; the residual at h = 1e-3 L is already small
        grid = interior_grid(box, 1e-3 * box.width)
        mode = grid.sample(varphi_n(box, n))
        ba = apply_B_naive(box, apply_A_naive(box, mode))
        target = eigenvalue(box, n) * varphi_n(box, n)(ba.x)
        residual = (
            box.sigma**2 / 2.0 * ba.samples
            + eigenvalue(box, 0) * varphi_n(box, n)(ba.x)
            - target
        )
        rel = row_norm(residual, ba.dx) / row_norm(target, ba.dx)
        assert rel < 5e-4

    def test_pricing_generator_eigen_equation(self, box, market):
        # the model-free pricing generator acting on the tilted sine modes
        from pbk.harmonic import HarmonicParams, apply_H_BS

        hp = HarmonicParams(market)
        n = 3
        errs = []
        for h in (1e-3 * box.width, 5e-4 * box.width, 2.5e-4 * box.width):
            grid = interior_grid(box, h)
            out = apply_H_BS(hp, grid.sample(varphi_n(box, n)))
            target = eigenvalue(box, n) * varphi_n(box, n)(out.x)
            errs.append(
                row_norm(out.samples - target, out.dx)
                / row_norm(target, out.dx)
            )
        orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert min(orders) > 1.9
        assert errs[-1] < 1e-5

    def test_grid_touching_barrier_rejected(self, box):
        grid = GridSpec.over(box.a, box.b, 101)
        with pytest.raises(ValueError, match="clear of the cotangent"):
            apply_A_naive(box, grid.sample(varphi_n(box, 0)))

    def test_grid_too_close_on_right_rejected(self, box):
        h = 0.01
        grid = GridSpec.over(box.a + 2 * h, box.b - 0.5 * h, 301)
        with pytest.raises(ValueError):
            apply_B_naive(box, grid.sample(varphi_n(box, 0)))


class TestFailedLadderResidual:
    def test_reference_value_at_beta_zero(self, market_beta0):
        # beta exactly 0.0 twice, where omega C_0 = expm1(pi t) / t is 0/0 and a
        # RuntimeWarning would fail the test, and beta = 1.1e-16, where
        # exp(pi t) - 1 in place of expm1 would read 0.458
        expected = math.sqrt(1.0 - (8.0 / (3.0 * math.pi)) ** 2)  # 0.5286717367233115
        for market in (market_with_beta(0.0), MarketParams(0.5, 0.125), market_beta0):
            params = BarrierParams(market, 0.0, math.pi)
            assert failed_factorization_residual(params) == pytest.approx(expected, rel=1e-12)
        assert abs(failed_factorization_residual(params) - 0.5287) < 1e-3

    @pytest.mark.parametrize("beta, a, b", [(-1.0, 0.0, math.pi), (-0.25, 0.0, math.pi),
                                            (0.5, 0.0, math.pi), (-0.75, 0.0, 300.0),
                                            (-0.75, 0.0, 900.0), (0.5, 0.0, 300.0),
                                            (0.5, 0.0, 900.0), (-0.75, -0.4, 1.8)])
    def test_matches_mpmath_integrals(self, beta, a, b):
        # a 16001-point grid read 0.0 at (0, 900), beta 0.5, after overflowing,
        # 0.6545 at (0, 300), beta -0.75, and 0.5728 at (-0.4, 1.8)
        params = BarrierParams(market_with_beta(beta), a, b)
        expected = float(factorization_residual(params))
        assert failed_factorization_residual(params) == pytest.approx(expected, rel=1e-12)

    def test_non_finite_figure_raises(self):
        # |beta| L = 3e160: u = t^2 overflows, and the ratio is inf / inf
        params = BarrierParams(MarketParams(1e-105, 1e-50), 0.0, math.pi)
        with pytest.raises(ValueError, match="not finite"):
            failed_factorization_residual(params)

    @pytest.mark.parametrize("beta", [-1.0, -0.75, -0.5, -0.25, 0.0, 0.25, 0.5])
    def test_never_small(self, beta):
        params = BarrierParams(market_with_beta(beta), 0.0, math.pi)
        assert failed_factorization_residual(params) > 0.1

    @pytest.mark.parametrize("beta", [0.25, 0.5])
    def test_even_in_beta(self, beta):
        # reflecting x -> a + b - x swaps the sign of beta in the residual
        plus = failed_factorization_residual(BarrierParams(market_with_beta(beta), 0.0, math.pi))
        minus = failed_factorization_residual(
            BarrierParams(market_with_beta(-beta), 0.0, math.pi))
        assert plus == minus

    def test_other_interval(self, market):
        params = BarrierParams(market, -0.4, 1.8)
        assert failed_factorization_residual(params) > 0.1


# ---------------------------------------------------------------------------
# the spectral ladder


def basis_vector(params, n, n_max=TRUNCATION):
    """varphi_n as an expansion of n_max + 1 coefficients."""
    c = np.zeros(n_max + 1)
    c[n] = 1.0
    return synthesize_phi(params, c)


class TestSpectralVector:
    # at its own tilt an expansion's analysis is the expansion itself
    def test_roundtrip_through_synthesis(self, box):
        rng = np.random.default_rng(42)
        coeffs = np.zeros(TRUNCATION + 1)
        coeffs[:7] = rng.standard_normal(7)
        f = synthesize_phi(box, coeffs)
        assert isinstance(f, SineExpansion) and f.tilt == box.beta
        assert analyze_phi(box, f) is f
        np.testing.assert_array_equal(analyze_phi(box, f).coeffs, coeffs)
        short = synthesize_phi(box, coeffs[:7])
        np.testing.assert_array_equal(analyze_phi(box, short).coeffs, coeffs[:7])

    def test_psi_roundtrip(self, box):
        coeffs = np.zeros(TRUNCATION + 1)
        coeffs[2] = 1.0
        coeffs[5] = -0.7
        f = synthesize_psi(box, coeffs)
        assert analyze_psi(box, f) is f
        np.testing.assert_array_equal(analyze_psi(box, f).coeffs, coeffs)

    @pytest.mark.parametrize("analyze, rate", [(analyze_phi, -1.0), (analyze_psi, 1.0)],
                             ids=["phi", "psi"])
    def test_foreign_tilt_is_refused(self, box, analyze, rate):
        # analysis re-expands nothing: an expansion (or a block of two) at a
        # tilt other than the family's is refused, and the message names both
        coeffs = np.array([[0.4, -1.0, 0.0, 0.25, 0.0, 0.0, 0.1],
                           [0.0, 0.0, 1.0, 0.0, 0.0, -0.5, 0.0]])
        for f in (SineExpansion(box, 0.3, coeffs), SineExpansion(box, 0.3, coeffs[1])):
            with pytest.raises(ValueError, match=re.escape(
                    f"expansion at tilt 0.3 given to a family at tilt {-rate * box.beta}")):
                analyze(box, f)

    def test_synthesis_vanishes_outside(self, box):
        f = basis_vector(box, 0)
        assert f(box.a - 1.0) == 0.0
        assert f(box.b + 1.0) == 0.0
        assert isinstance(f(1.0), float)


class TestTiltContract:
    """barrier_system's maps take coefficients at their family's own tilt and
    refuse any other: nothing is re-expanded or truncated."""

    def test_each_map_refuses_a_foreign_tilt(self, box):
        system = barrier_system(box)
        phi, psi = system.family_phi(3), system.family_psi(3)
        for name, block, family_tilt in (("lower_a", psi, box.beta), ("raise_b", psi, box.beta),
                                         ("lower_b_dag", phi, -box.beta),
                                         ("raise_a_dag", phi, -box.beta)):
            with pytest.raises(ValueError, match=re.escape(
                    f"expansion at tilt {block.tilt} given to a family at tilt {family_tilt}")):
                getattr(system, name)(block)

    def test_zero_tilt_passes_the_psi_family_at_minus_zero(self):
        # sigma 0.5, r 0.125 give beta = 0.0 exactly (sigma 0.2, r 0.02 give
        # 1.1e-16), so the psi family's tilt is -0.0, which equals 0.0
        params = BarrierParams(MarketParams(0.5, 0.125), 0.0, math.pi)
        assert params.beta == 0.0 and math.copysign(1.0, -params.beta) == -1.0
        block = SineExpansion(params, 0.0, np.eye(4))
        assert analyze_psi(params, block) is block
        assert analyze_phi(params, block) is block
        system = barrier_system(params)
        lowered = system.lower_b_dag(block)
        assert lowered.tilt == 0.0
        np.testing.assert_array_equal(lowered.coeffs, apply_A_hat(params, block).coeffs)
        assert run_all_checks(system, 20).all_pass


class TestSpectralLadder:
    def test_vacuum(self, box):
        out = apply_A_hat(box, basis_vector(box, 0))
        assert np.all(out.coeffs == 0.0)

    def test_raising_step(self, box):
        out = apply_B_hat(box, basis_vector(box, 3))
        expected = math.sqrt(rho_coefficient(box, 4))
        assert out.coeffs[4] == pytest.approx(expected, rel=1e-15)
        assert np.count_nonzero(out.coeffs) == 1

    def test_lowering_step(self, box):
        out = apply_A_hat(box, basis_vector(box, 4))
        assert out.coeffs[3] == pytest.approx(math.sqrt(rho_coefficient(box, 4)), rel=1e-15)

    @pytest.mark.parametrize("bounds", [(0.0, math.pi), (math.log(80.0), math.log(120.0))],
                             ids=["0-pi", "80-120"])
    def test_shifts_are_the_roots_of_rho_to_the_bit(self, market, bounds):
        # the ladder maps and the battery's sqrt(e_n) read the one rho_n
        params = BarrierParams(market, *bounds)
        ones = synthesize_phi(params, np.ones(TRUNCATION + 1))
        roots = np.sqrt(rho_coefficient(params, np.arange(TRUNCATION + 2)))
        raised = apply_B_hat(params, ones)
        np.testing.assert_array_equal(raised.coeffs[1:], roots[1:])
        np.testing.assert_array_equal(apply_A_hat(params, ones).coeffs[:-1], roots[1:-1])

    def test_number_operator(self, box):
        rng = np.random.default_rng(1)
        coeffs = rng.standard_normal(TRUNCATION + 1)
        ba = apply_B_hat(box, apply_A_hat(box, synthesize_phi(box, coeffs)))
        n = np.arange(TRUNCATION + 2)
        rho = math.pi**2 * n * (n + 2.0) / box.width**2
        np.testing.assert_allclose(ba.coeffs, rho * np.append(coeffs, 0.0), rtol=1e-13,
                                   atol=1e-13)

    def test_reversed_product_shifts_the_eigenvalue(self, box):
        coeffs = np.zeros(TRUNCATION + 1)
        coeffs[6] = 2.0
        ab = apply_A_hat(box, apply_B_hat(box, synthesize_phi(box, coeffs)))
        assert ab.coeffs[6] == pytest.approx(2.0 * rho_coefficient(box, 7), rel=1e-13)

    def test_dual_ladder_number_operator(self, box):
        coeffs = np.zeros(TRUNCATION + 1)
        coeffs[5] = 1.0
        # on psi-coefficients A_hat^dag raises like B_hat, B_hat^dag lowers like A_hat
        out = apply_B_hat(box, apply_A_hat(box, synthesize_psi(box, coeffs)))
        assert out.tilt == -box.beta
        assert out.coeffs[5] == pytest.approx(rho_coefficient(box, 5), rel=1e-13)

    def test_raising_keeps_the_old_tail(self, box):
        # what a raise past the top coefficient used to drop, sqrt(rho_n) c_{n-1}
        # at n = TRUNCATION + 1, is the new last coefficient, bit for bit
        coeffs = np.zeros(TRUNCATION + 1)
        coeffs[-1] = 1.0
        out = apply_B_hat(box, synthesize_phi(box, coeffs))
        assert out.coeffs.shape == (TRUNCATION + 2,)
        assert out.coeffs[-1] == np.sqrt(rho_coefficient(box, TRUNCATION + 1))
        assert np.count_nonzero(out.coeffs) == 1

    def test_tail_zero_when_top_mode_empty(self, box):
        out = apply_B_hat(box, basis_vector(box, 3))
        assert out.coeffs[-1] == 0.0

    @pytest.mark.parametrize("n", [0, 1, 17, 128])
    def test_hamiltonian_from_ladder_is_exact(self, box, n):
        v = basis_vector(box, n)
        ba = apply_B_hat(box, apply_A_hat(box, v))
        total = box.sigma**2 / 2.0 * ba.coeffs[n] + eigenvalue(box, 0)
        assert total == pytest.approx(eigenvalue(box, n), rel=1e-13)


# ---------------------------------------------------------------------------
# similarity maps


class TestSimilarityMaps:
    def test_maps_psi_to_varphi(self, box):
        x = np.linspace(0.1, 3.0, 17)
        mapped = apply_Theta_inv(box, psi_n(box, 4))
        np.testing.assert_allclose(mapped(x), varphi_n(box, 4)(x), rtol=1e-12)
        # on a callable the metric is e^{2 beta x} f, bit for bit
        np.testing.assert_array_equal(mapped(x), np.exp(2.0 * box.beta * x) * psi_n(box, 4)(x))

    def test_maps_varphi_to_psi(self, box):
        x = np.linspace(0.1, 3.0, 17)
        mapped = apply_Theta(box, varphi_n(box, 2))
        np.testing.assert_allclose(mapped(x), psi_n(box, 2)(x), rtol=1e-12)
        np.testing.assert_array_equal(mapped(x),
                                      np.exp(-2.0 * box.beta * x) * varphi_n(box, 2)(x))

    def test_roundtrip_on_grid_function(self, box):
        grid = GridSpec.over(0.2, 2.9, 101)
        f = grid.sample(varphi_n(box, 1))
        back = apply_Theta_inv(box, apply_Theta(box, f))
        np.testing.assert_allclose(back.samples, f.samples, rtol=1e-13)

    def test_rejects_unknown_type(self, box):
        with pytest.raises(TypeError):
            apply_Theta_inv(box, np.zeros(3))

    @pytest.mark.parametrize("n", [1, 4])
    def test_intertwines_the_number_operators(self, box, n):
        # Theta^-1 applied after the dual number operator agrees with the
        # primal number operator applied after Theta^-1
        x = np.linspace(box.a + 0.05, box.b - 0.05, 401)

        member = apply_Theta(box, basis_vector(box, n))  # psi_n as an expansion
        dual = apply_B_hat(box, apply_A_hat(box, member))
        left = apply_Theta_inv(box, dual)(x)

        mapped = analyze_phi(box, apply_Theta_inv(box, member))
        right = apply_B_hat(box, apply_A_hat(box, mapped))(x)

        np.testing.assert_allclose(member(x), psi_n(box, n)(x), rtol=1e-14)
        scale = np.max(np.abs(left))
        assert np.max(np.abs(left - right)) / scale < 1e-15


# ---------------------------------------------------------------------------
# norms of the tilted modes and Bessel partial sums


class TestNormsAndPartialSums:
    def test_riesz_bounds_hold_to_the_cap(self, box):
        rule = legendre_rule(1024, box.a, box.b)
        lo = min(math.exp(2 * box.beta * box.a), math.exp(2 * box.beta * box.b))
        hi = max(math.exp(2 * box.beta * box.a), math.exp(2 * box.beta * box.b))
        for n in (0, 1, 50, 120, 200):
            f = varphi_n(box, n)
            norm_sq = float(np.dot(rule.weights, f(rule.nodes) ** 2))
            assert lo - 1e-10 <= norm_sq <= hi + 1e-10

    def test_partial_sums_increase_to_the_norm(self, box):
        def f(x):
            x = np.asarray(x, dtype=float)
            return np.sin(x) ** 2 * (math.pi - x) * x

        rule = legendre_rule(1024, box.a, box.b)
        total = float(np.dot(rule.weights, f(rule.nodes) ** 2))
        modes = np.array(
            [np.dot(rule.weights, Phi_n(box, n)(rule.nodes) * f(rule.nodes)) for n in range(64)]
        )
        partial = np.cumsum(modes**2)
        assert np.all(np.diff(partial) >= 0.0)
        assert partial[-1] <= total + 1e-12
        assert partial[-1] == pytest.approx(total, rel=1e-8)


# ---------------------------------------------------------------------------
# the moment matrix G(s)_mj = (Phi_m, e^{s x} Phi_j) in closed form


MOMENT_BOUNDS = [(0.0, math.pi), (0.0, 10.0), (0.0, 12.0), (0.0, 14.0),
                 (math.log(80.0), math.log(120.0))]
MOMENT_IDS = ["0-pi", "0-10", "0-12", "0-14", "80-120"]


def mp_moment(params, s, m, j):
    """G(s)_mj at 40 digits from Phi_m Phi_j = (cos(p omega y) - cos(q omega y)) / L,
    y = x - a, with each cosine integral over (0, L) taken on its own."""
    with mpmath.workdps(40):
        a, width, s = mpmath.mpf(params.a), mpmath.mpf(params.width), mpmath.mpf(s)
        omega = mpmath.pi / width

        def cosine(k):
            return s * ((-1) ** k * mpmath.exp(s * width) - 1) / (s * s + (k * omega) ** 2)

        return mpmath.exp(s * a) / width * (cosine(abs(m - j)) - cosine(m + j + 2))


class TestMoments:
    def test_reference_is_the_integral(self, market):
        p = BarrierParams(market, math.log(80.0), math.log(120.0))
        with mpmath.workdps(30):
            a, b = mpmath.mpf(p.a), mpmath.mpf(p.b)
            omega = mpmath.pi / (b - a)
            for m, j, s in ((0, 0, 0.75), (1, 4, -1.5), (7, 3, 1.5), (12, 12, -0.75)):
                integral = mpmath.quad(
                    lambda x: 2 / (b - a) * mpmath.exp(s * x) * mpmath.sin((m + 1) * omega
                                                                           * (x - a))
                    * mpmath.sin((j + 1) * omega * (x - a)), [a, (a + b) / 2, b])
                assert abs(integral - mp_moment(p, s, m, j)) <= mpmath.mpf(10) ** -25

    @pytest.mark.parametrize("bounds", MOMENT_BOUNDS, ids=MOMENT_IDS)
    @pytest.mark.parametrize("s", [-1.5, -0.75, 0.75, 1.5])
    def test_entries_match_mpmath(self, market, bounds, s):
        p = BarrierParams(market, *bounds)
        g = moments(p, s, TRUNCATION + 1)
        np.testing.assert_array_equal(g, g.T)
        for m in (0, 1, 2, 17, 64, 127, 128):
            for j in (0, 1, 5, 64, 128):
                ref = float(mp_moment(p, s, m, j))
                assert abs(g[m, j] - ref) <= 1e-15 * math.sqrt(g[m, m] * g[j, j]), (m, j)

    @pytest.mark.parametrize("bounds", MOMENT_BOUNDS, ids=MOMENT_IDS)
    def test_no_tilt_is_the_identity(self, market, bounds):
        p = BarrierParams(market, *bounds)
        for n in (1, 2, TRUNCATION + 1):
            np.testing.assert_array_equal(moments(p, 0.0, n), np.eye(n))

    @pytest.mark.parametrize("bounds", MOMENT_BOUNDS, ids=MOMENT_IDS)
    def test_gram_matches_legendre_quadrature(self, market, bounds):
        # every block the battery integrates, sampled on one 512-node
        # Gauss-Legendre rule on (a, b); the rule's own error grows past 1e-13
        # at 2048 nodes, and adaptive doubling does not settle on 80/120
        p = BarrierParams(market, *bounds)
        system = barrier_system(p)
        blocks = [system.family_phi(60), system.family_psi(60),
                  *system.quasi_pairs[0], system.test_functions]
        exact = gram(blocks, blocks)
        quadrature = gram_matrix(blocks, blocks, legendre_rule(512, p.a, p.b))
        scale = np.sqrt(np.outer(np.diagonal(exact), np.diagonal(exact)))
        assert np.max(np.abs(quadrature - exact) / scale) <= 1e-13


# ---------------------------------------------------------------------------
# blocks: one function per row of a coefficient matrix


class TestBlocks:
    @staticmethod
    def block(n_max=16):
        coeffs = np.random.default_rng(9).standard_normal((3, n_max + 1))
        coeffs[:, -1] = (0.0, 0.5, -2.0)
        return coeffs

    def test_ladder_maps_act_row_by_row(self, box):
        block = synthesize_phi(box, self.block())
        for op, size in ((apply_A_hat, 17), (apply_B_hat, 18)):
            out = op(box, block)
            assert out.coeffs.shape == (3, size)
            for i, row in enumerate(block.coeffs):
                alone = op(box, block.with_coeffs(row))
                np.testing.assert_array_equal(out.coeffs[i], alone.coeffs)
        assert apply_B_hat(box, block).coeffs[0, -1] == 0.0

    def test_synthesis_and_analysis_rows_match_single_rows(self, box):
        block = self.block()
        x = np.linspace(box.a - 0.1, box.b + 0.1, 257)
        for synthesize, analyze in ((synthesize_phi, analyze_phi),
                                    (synthesize_psi, analyze_psi)):
            f = synthesize(box, block)
            values = f(x)
            # at the family's own tilt, where analysis returns the block itself
            coeffs = analyze(box, f).coeffs
            assert values.shape == (3, x.size) and coeffs.shape == (3, 17)
            for i, row in enumerate(block):
                g = synthesize(box, row)
                # one matrix product against three: equal to the last few ulps
                np.testing.assert_allclose(values[i], g(x), rtol=0.0,
                                           atol=1e-15 * np.max(np.abs(values[i])))
                np.testing.assert_array_equal(coeffs[i], analyze(box, g).coeffs)
            np.testing.assert_array_equal(f(1.0), f(np.array([1.0]))[:, 0])

    def test_identity_block_is_the_family(self, box):
        x = np.linspace(box.a, box.b, 301)
        for synthesize, member in ((synthesize_phi, varphi_n), (synthesize_psi, psi_n)):
            values = synthesize(box, np.eye(9))(x)
            for n in range(9):
                np.testing.assert_allclose(values[n], member(box, n)(x), rtol=0.0,
                                           atol=1e-14)
        # the block is the tilted table zeroed outside [a, b], bit for bit
        x = np.concatenate([x, [box.a - 0.5, box.b + 2.0]])
        inside = (x >= box.a) & (x <= box.b)
        for synthesize, rate in ((synthesize_phi, box.beta), (synthesize_psi, -box.beta)):
            expected = np.where(inside, mode_table(box, 8, x) * np.exp(rate * x), 0.0)
            np.testing.assert_array_equal(synthesize(box, np.eye(9))(x), expected)

    def test_points_of_any_shape(self, box):
        x = np.linspace(box.a - 0.5, box.b + 0.5, 6).reshape(2, 3)
        assert mode_table(box, 4, x).shape == (5, 2, 3)
        np.testing.assert_array_equal(mode_table(box, 4, x),
                                      mode_table(box, 4, x.ravel()).reshape(5, 2, 3))
        for synthesize in (synthesize_phi, synthesize_psi):
            f = synthesize(box, np.eye(5))
            assert f(np.ones((2, 3))).shape == (5, 2, 3)
            np.testing.assert_array_equal(f(x), f(x.ravel()).reshape(5, 2, 3))
            g = synthesize(box, np.arange(5.0))
            np.testing.assert_array_equal(g(x), g(x.ravel()).reshape(2, 3))


def count_mode_tables(monkeypatch):
    """The (n_max, point bytes) of every mode_table call, in call order."""
    calls = []
    original = pbk.barrier.mode_table

    def counted(params, n_max, x):
        calls.append((n_max, np.asarray(x).tobytes()))
        return original(params, n_max, x)

    monkeypatch.setattr(pbk.barrier, "mode_table", counted)
    return calls


class TestSharedTables:
    """One shared sine table per node set, read as row slices; a barrier
    system builds none."""

    @staticmethod
    def node_sets(params):
        """A 1024-node Gauss-Legendre rule and a 4001-point grid on (a, b)."""
        return (legendre_rule(1024, params.a, params.b).nodes,
                GridSpec.over(params.a, params.b, 4001).points)

    def test_one_table_per_node_set_per_system(self, monkeypatch, market):
        calls = count_mode_tables(monkeypatch)
        bp = BarrierParams(market, 0.0, 3.14159)
        run_all_checks(barrier_system(bp), 20)
        # no table at all: analysis, residuals, inner products and Gram
        # matrices are taken from coefficients
        assert calls == []

    def test_more_rows_rebuild_the_table(self, monkeypatch, box):
        calls = count_mode_tables(monkeypatch)
        tables = shared_mode_tables(pbk.barrier.mode_table, box)
        x = np.linspace(box.a, box.b, 17)
        assert tables(2, x).shape == (3, 17) and len(calls) == 1
        assert tables(1, x).shape == (2, 17) and len(calls) == 1
        assert tables(4, x).shape == (5, 17) and len(calls) == 2
        assert tables(9, x).shape == (10, 17) and len(calls) == 3
        assert tables(6, x).shape == (7, 17) and len(calls) == 3
        assert tables(6, x[1:]).shape == (7, 16) and len(calls) == 4
        assert [n for n, _ in calls] == [2, 4, 9, 6]

    def test_tables_are_read_only(self, box):
        table = shared_mode_tables(mode_table, box)(4, np.linspace(box.a, box.b, 5))
        with pytest.raises(ValueError):
            table[0, 0] = 1.0

    def test_row_slices_equal_smaller_tables(self, box):
        tables = shared_mode_tables(mode_table, box)
        for x in self.node_sets(box):
            tables(MAX_DEGREE, x)  # the largest first: every later request is a slice
            for n in (0, 4, 20, 21, 60, TRUNCATION, MAX_DEGREE):
                assert np.array_equal(tables(n, x), mode_table(box, n, x))

    def test_analysis_and_synthesis_bits_with_and_without_tables(self, monkeypatch, box):
        tables = shared_mode_tables(mode_table, box)
        coeffs = np.random.default_rng(4).standard_normal((3, 21))
        for synthesize, analyze in ((synthesize_phi, analyze_phi),
                                    (synthesize_psi, analyze_psi)):
            for v in (coeffs, np.eye(61)):
                for x in self.node_sets(box):
                    f = synthesize(box, v)
                    assert np.array_equal(replace(f, tables=tables)(x), f(x))
            # analysis reads its input's tilt, never a table
            calls = count_mode_tables(monkeypatch)
            f = synthesize(box, coeffs)
            assert analyze(box, f) is f
            assert calls == []
