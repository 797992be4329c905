"""Whole-line model: constants, eigenfamilies, operators, and the norm law.

Exact coefficient recurrences are checked to rounding error; the
finite-difference realizations are checked for second-order convergence
toward the same identities.
"""

import math
from functools import partial

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pbk import harmonic
from pbk import grids
from pbk.grids import GridSpec, apply_Theta, apply_Theta_inv, derivative, row_norm
from pbk.specialfn import MAX_DEGREE, laguerre_sequence
from pbk.harmonic import (
    HarmonicParams,
    HermiteExpansion,
    apply_A,
    apply_A_dag,
    apply_B,
    apply_B_dag,
    apply_c,
    apply_c_dag,
    apply_H_BS,
    apply_H_eff,
    apply_H_eff_dag,
    apply_h_BS,
    apply_h_eff,
    apply_rho,
    apply_rho_inv,
    norm_squared_law,
    operator_grid,
    phi_n,
    psi_n,
    quadratic_potential,
    superpotential,
    varphi_n,
)
from pbk.market import MarketParams

from oracles import adaptive_gram, hermite_rule


def params_for(market, w=0.0):
    return HarmonicParams(market, w)


def coeff_distance(f: HermiteExpansion, g: HermiteExpansion, factor: float = 1.0) -> float:
    """Largest coefficient gap between f and factor * g."""
    assert f.tilt == g.tilt
    n = max(len(f.coeffs), len(g.coeffs))
    fc = np.zeros(n, dtype=complex)
    gc = np.zeros(n, dtype=complex)
    fc[: len(f.coeffs)] = f.coeffs
    gc[: len(g.coeffs)] = factor * g.coeffs
    return float(np.max(np.abs(fc - gc)))


# ---------------------------------------------------------------------------
# parameters and derived constants


class TestConstants:
    def test_reference_values(self, market):
        assert market.beta == pytest.approx(-0.75, abs=1e-15)
        assert market.gamma == pytest.approx(0.06125, abs=1e-16)
        p = params_for(market)
        assert p.delta == pytest.approx(0.06125, abs=1e-16)

    def test_beta_vanishes_iff_sigma_sq_is_2r(self, market_beta0):
        assert market_beta0.beta == pytest.approx(0.0, abs=1e-15)
        assert MarketParams(0.3, 0.02).beta != 0.0

    @given(sigma=st.floats(0.05, 1.5), r=st.floats(0.0, 0.3))
    @settings(max_examples=40)
    def test_delta_equals_gamma_identically(self, sigma, r):
        p = params_for(MarketParams(sigma, r))
        assert abs(p.delta - p.gamma) <= 1e-14 * p.gamma

    def test_negative_mode_rejected(self, market):
        for n in (-1, np.array([0, -1])):
            with pytest.raises(ValueError, match="mode index must be nonnegative"):
                harmonic.eigenvalue(params_for(market), n)

    def test_validation(self):
        with pytest.raises(ValueError):
            MarketParams(0.0, 0.05)
        with pytest.raises(ValueError):
            MarketParams(-0.2, 0.05)
        with pytest.raises(ValueError):
            MarketParams(0.2, -0.01)

    @given(x=st.floats(-2, 2), w=st.floats(-3, 3))
    @settings(max_examples=40)
    def test_potential_is_half_sigma_sq_w_sq_minus_half(self, market, x, w):
        p = params_for(market, w)
        W = superpotential(p, x)
        V = quadratic_potential(p, x)
        assert V == pytest.approx(p.sigma**2 / 2 * W**2 - 0.5, rel=1e-13, abs=1e-13)

    def test_center_tracks_w(self, market):
        p = params_for(market, w=2.5)
        assert p.center == pytest.approx(-p.sigma**2 * 2.5)
        assert superpotential(p, p.center) == pytest.approx(0.0, abs=1e-15)


# ---------------------------------------------------------------------------
# the three families


class TestFamilies:
    def test_phi0_is_normalized_gaussian(self, market):
        p = params_for(market)
        f = phi_n(p, 0)
        x = 0.07
        u = x / p.sigma
        expected = math.pi**-0.25 * math.exp(-0.5 * u * u) / math.sqrt(p.sigma)
        assert f(x) == pytest.approx(expected, rel=1e-14)

    def test_phi1_vanishes_at_center(self, market):
        p = params_for(market, w=1.3)
        assert phi_n(p, 1)(p.center) == pytest.approx(0.0, abs=1e-13)

    def test_tilts(self, market):
        p = params_for(market)
        x = np.linspace(-0.5, 0.5, 11)
        base = phi_n(p, 4)(x)
        np.testing.assert_allclose(
            varphi_n(p, 4)(x), np.exp(p.beta * x) * base, rtol=1e-13
        )
        np.testing.assert_allclose(
            psi_n(p, 4)(x), np.exp(-p.beta * x) * base, rtol=1e-13
        )

    def test_phi_norm_is_one(self, market):
        p = params_for(market)
        u, w = np.polynomial.hermite.hermgauss(256)
        f = phi_n(p, 2)
        # x = center + sigma u, the weight e^{-u^2} compensated away
        total = np.dot(p.sigma * w * np.exp(u * u), np.abs(f(p.center + p.sigma * u)) ** 2)
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_family_index_cap(self, market):
        # a unit member reaches the Hermite recurrence's own cap, row for row
        p = params_for(market)
        with pytest.raises(ValueError):
            phi_n(p, MAX_DEGREE + 1)
        with pytest.raises(ValueError):
            varphi_n(p, -1)
        x = np.linspace(-1.5, 1.5, 31)
        np.testing.assert_array_equal(phi_n(p, MAX_DEGREE)(x),
                                      harmonic.mode_table(p, 200, x)[200])

    def test_biorthonormality_spot_check(self, market):
        inner = grids.inner
        p = params_for(market)
        assert inner(varphi_n(p, 3), psi_n(p, 3)).real == pytest.approx(1.0, abs=1e-12)
        assert abs(inner(varphi_n(p, 2), psi_n(p, 5))) < 1e-12


# ---------------------------------------------------------------------------
# exact ladder algebra


class TestExactLadder:
    def test_lowering_and_raising(self, market):
        p = params_for(market)
        out = apply_B(p, varphi_n(p, 3))
        assert coeff_distance(out, varphi_n(p, 4), 2.0) < 1e-15

        out = apply_A(p, varphi_n(p, 4))
        assert coeff_distance(out, varphi_n(p, 3), 2.0) < 1e-15

    def test_vacua_annihilated_exactly(self, market):
        p = params_for(market)
        assert np.max(np.abs(apply_A(p, varphi_n(p, 0)).coeffs)) == 0.0
        assert np.max(np.abs(apply_B_dag(p, psi_n(p, 0)).coeffs)) == 0.0

    def test_dual_ladder(self, market):
        p = params_for(market)
        out = apply_A_dag(p, psi_n(p, 2))
        assert coeff_distance(out, psi_n(p, 3), math.sqrt(3.0)) < 1e-15

    def test_self_adjoint_pair_on_phi(self, market):
        p = params_for(market, w=0.7)
        out = apply_c(p, phi_n(p, 5))
        assert coeff_distance(out, phi_n(p, 4), math.sqrt(5.0)) < 5e-15
        out = apply_c_dag(p, phi_n(p, 5))
        assert coeff_distance(out, phi_n(p, 6), math.sqrt(6.0)) < 5e-15

    @pytest.mark.parametrize("w", [0.0, -1.1])
    def test_commutator_is_identity(self, market, w):
        p = params_for(market, w)
        rng = np.random.default_rng(7)
        f = HermiteExpansion(p, p.beta, rng.standard_normal(8))
        ab = apply_A(p, apply_B(p, f))
        ba = apply_B(p, apply_A(p, f))
        diff = HermiteExpansion(p, p.beta, ab.coeffs)
        n = len(ab.coeffs)
        residual = diff.coeffs - np.concatenate([ba.coeffs, np.zeros(n - len(ba.coeffs))])
        residual[: len(f.coeffs)] -= f.coeffs
        assert np.max(np.abs(residual)) < 1e-13

    def test_cc_dag_commutator(self, market):
        p = params_for(market)
        rng = np.random.default_rng(11)
        f = HermiteExpansion(p, 0.0, rng.standard_normal(6))
        lhs = apply_c(p, apply_c_dag(p, f))
        rhs = apply_c_dag(p, apply_c(p, f))
        n = len(lhs.coeffs)
        residual = lhs.coeffs - np.concatenate([rhs.coeffs, np.zeros(n - len(rhs.coeffs))])
        residual[: len(f.coeffs)] -= f.coeffs
        assert np.max(np.abs(residual)) < 1e-13

    def test_number_operator_eigenvalue(self, market):
        p = params_for(market)
        for n in (1, 4, 9):
            out = apply_B(p, apply_A(p, varphi_n(p, n)))
            assert coeff_distance(out, varphi_n(p, n), float(n)) < 1e-13


# ---------------------------------------------------------------------------
# Hamiltonians


class TestEigenEquations:
    @pytest.mark.parametrize("n", [0, 1, 6, 15])
    def test_H_eff_on_varphi(self, market, n):
        p = params_for(market)
        out = apply_H_eff(p, varphi_n(p, n))
        assert coeff_distance(out, varphi_n(p, n), n + p.delta) < 1e-12

    @pytest.mark.parametrize("n", [0, 3, 10])
    def test_H_eff_dag_on_psi(self, market, n):
        p = params_for(market)
        out = apply_H_eff_dag(p, psi_n(p, n))
        assert coeff_distance(out, psi_n(p, n), n + p.delta) < 1e-12

    @pytest.mark.parametrize("n", [0, 2, 8])
    def test_h_eff_on_phi(self, market, n):
        p = params_for(market, w=0.4)
        out = apply_h_eff(p, phi_n(p, n))
        assert coeff_distance(out, phi_n(p, n), n + p.delta) < 1e-12

    def test_factorized_form(self, market):
        # H_eff = sigma^2 (B A) / ... : the number operator times 1 plus delta
        p = params_for(market)
        f = varphi_n(p, 5)
        number = apply_B(p, apply_A(p, f))
        direct = apply_H_eff(p, f)
        gap = HermiteExpansion(p, f.tilt, direct.coeffs - np.pad(
            number.coeffs, (0, len(direct.coeffs) - len(number.coeffs))))
        assert coeff_distance(gap, f, p.delta) < 1e-12

    def test_similarity_conjugation(self, market):
        # rho H_eff f = h_eff rho f, exactly in coefficients
        p = params_for(market)
        rng = np.random.default_rng(3)
        f = HermiteExpansion(p, p.beta, rng.standard_normal(7))
        left = apply_rho(p, apply_H_eff(p, f))
        right = apply_h_eff(p, apply_rho(p, f))
        assert left.tilt == right.tilt
        assert coeff_distance(left, right) < 1e-12

    def test_h_BS_is_H_BS_conjugated(self, market):
        p = params_for(market)
        rng = np.random.default_rng(5)
        f = HermiteExpansion(p, p.beta, rng.standard_normal(7))
        left = apply_rho(p, apply_H_BS(p, f))
        right = apply_h_BS(p, apply_rho(p, f))
        assert coeff_distance(left, right) < 1e-12


# ---------------------------------------------------------------------------
# finite-difference route


class TestGridRoute:
    def grid_mode(self, p, n, grid):
        return grid.sample(varphi_n(p, n))

    def test_ladder_matches_exact(self, market):
        p = params_for(market)
        grid = GridSpec.over(-8 * p.sigma, 8 * p.sigma, 32001)
        out = apply_B(p, self.grid_mode(p, 3, grid))
        target = varphi_n(p, 4)
        residual = out.samples - 2.0 * target(out.x)
        rel = row_norm(residual, out.dx) / row_norm(target(out.x), out.dx)
        assert rel < 1e-6

    def test_eigen_equation_converges_at_second_order(self, market):
        p = params_for(market)
        n = 4
        errs = []
        for points in (4001, 8001, 16001):
            grid = GridSpec.over(-8 * p.sigma, 8 * p.sigma, points)
            out = apply_H_eff(p, grid.sample(varphi_n(p, n)))
            target = (n + p.delta) * varphi_n(p, n)(out.x)
            errs.append(
                row_norm(out.samples - target, out.dx)
                / row_norm(target, out.dx)
            )
        orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert min(orders) > 1.9
        assert errs[-1] < 1e-6

    def test_short_grid_rejected(self, market):
        p = params_for(market)
        for points in (9, 16):  # the nine-point stencil leaves 8 samples fewer
            grid = GridSpec.over(-1.0, 1.0, points)
            for op in (apply_A, apply_H_eff):
                with pytest.raises(ValueError, match="central difference"):
                    op(p, grid.sample(varphi_n(p, 0)))
        grid = GridSpec.over(-1.0, 1.0, 17)
        for op in (apply_A, apply_H_eff):
            assert op(p, grid.sample(varphi_n(p, 0))).n == 9


# ---------------------------------------------------------------------------
# multiplication maps


class TestMultiplicationMaps:
    def test_theta_sends_varphi_to_psi(self, market):
        p = params_for(market)
        out = apply_Theta(p, varphi_n(p, 7))
        assert out.tilt == psi_n(p, 7).tilt
        assert coeff_distance(out, psi_n(p, 7)) == 0.0
        # an expansion only takes the rate into its tilt; a callable is
        # e^{-+2 beta x} f, bit for bit
        f = HermiteExpansion(p, 0.3, np.arange(1.0, 5.0))
        for metric, rate in ((apply_Theta, -2.0 * p.beta), (apply_Theta_inv, 2.0 * p.beta)):
            out = metric(p, f)
            assert isinstance(out, HermiteExpansion) and out.tilt == 0.3 + rate
            assert out.coeffs is f.coeffs
            x = np.linspace(-1.0, 1.0, 11)
            np.testing.assert_array_equal(metric(p, np.cos)(x), np.exp(rate * x) * np.cos(x))

    def test_theta_roundtrip(self, market):
        p = params_for(market)
        f = varphi_n(p, 2)
        back = apply_Theta_inv(p, apply_Theta(p, f))
        assert back.tilt == f.tilt
        assert coeff_distance(back, f) == 0.0

    def test_rho_on_grid_function(self, market):
        p = params_for(market)
        grid = GridSpec.over(-1.0, 1.0, 101)
        f = grid.sample(varphi_n(p, 1))
        out = apply_rho(p, f)
        np.testing.assert_allclose(
            out.samples, np.exp(-p.beta * f.x) * f.samples, rtol=1e-14
        )
        back = apply_rho_inv(p, out)
        np.testing.assert_allclose(back.samples, f.samples, rtol=1e-14)

    def test_rho_on_callable(self, market):
        p = params_for(market)
        f = apply_rho(p, lambda x: np.ones_like(np.asarray(x, dtype=float)))
        assert f(0.4) == pytest.approx(math.exp(-p.beta * 0.4))

    def test_rejects_unknown_type(self, market):
        with pytest.raises(TypeError):
            apply_rho(params_for(market), 3.14)


# ---------------------------------------------------------------------------
# the norm-growth law


class TestNormLaw:
    @staticmethod
    def system_norm_sq(p, family, n):
        f = family(p, n)
        return grids.inner(f, f).real

    @pytest.mark.parametrize("w", [0.0, 0.5])
    @pytest.mark.parametrize("n", [0, 1, 5, 17, 30])
    def test_law_matches_quadrature(self, market, w, n):
        p = params_for(market, w)
        for family, name in ((varphi_n, "varphi"), (psi_n, "psi")):
            law = norm_squared_law(p, n, name)
            quad = self.system_norm_sq(p, family, n)
            assert quad == pytest.approx(law, rel=1e-8)

    def test_reference_constant(self, market):
        # beta^2 sigma^2 = 0.0225 for sigma = 0.2, r = 0.05, w = 0
        p = params_for(market)
        assert norm_squared_law(p, 0, "varphi") == pytest.approx(
            math.exp(0.0225), rel=1e-15
        )
        assert self.system_norm_sq(p, varphi_n, 0) == pytest.approx(
            math.exp(0.0225), rel=1e-12
        )

    def test_product_increases_when_beta_nonzero(self, market):
        p = params_for(market)
        products = [
            math.sqrt(norm_squared_law(p, n, "varphi") * norm_squared_law(p, n, "psi"))
            for n in range(31)
        ]
        assert all(b > a for a, b in zip(products, products[1:]))

    def test_product_is_one_when_beta_zero(self, market_beta0):
        p = params_for(market_beta0)
        for n in (0, 4, 25):
            prod = norm_squared_law(p, n, "varphi") * norm_squared_law(p, n, "psi")
            assert prod == pytest.approx(1.0, abs=1e-12)

    def test_w_splits_the_families(self, market):
        # e^{-2 beta w sigma^2} for varphi, the reciprocal factor for psi
        p = params_for(market, w=0.8)
        ratio = norm_squared_law(p, 3, "varphi") / norm_squared_law(p, 3, "psi")
        assert ratio == pytest.approx(
            math.exp(-4 * p.beta * 0.8 * p.sigma**2), rel=1e-13
        )

    def test_unknown_family_rejected(self, market):
        with pytest.raises(ValueError):
            norm_squared_law(params_for(market), 2, "phi")

    @pytest.mark.parametrize("w", [0.0, 0.5])
    def test_an_index_array_reads_one_recurrence(self, monkeypatch, market, w):
        p = params_for(market, w)
        calls = []
        sequence = harmonic.laguerre_sequence
        monkeypatch.setattr(harmonic, "laguerre_sequence",
                            lambda n, x: calls.append(n) or sequence(n, x))
        for family, sign in (("varphi", -1.0), ("psi", 1.0)):
            laws = norm_squared_law(p, np.arange(61), family)
            assert calls.pop() == 60 and not calls
            b, s = p.beta, p.sigma
            scale = math.exp(b * b * s * s + sign * 2.0 * b * w * s * s)
            one_by_one = [norm_squared_law(p, n, family) for n in range(61)]
            assert all(isinstance(law, float) for law in one_by_one)
            # bit for bit the law of one Laguerre value at a time
            np.testing.assert_array_equal(laws, one_by_one)
            np.testing.assert_array_equal(
                laws, [scale * laguerre_sequence(n, -2.0 * b * b * s * s)[n] for n in range(61)])
            calls.clear()
        with pytest.raises(ValueError, match="nonnegative"):
            norm_squared_law(p, np.array([3, -1]))


# ---------------------------------------------------------------------------
# inner products in coefficient space


def mp_moment(p, s, m, j):
    """(Phi_m, e^{s x} Phi_j) at 30 digits from the normal-ordered displacement
    e^{alpha u} = e^{alpha^2/4} e^{c a^dag} e^{c a}, c = alpha / sqrt 2: the sum
    e^{alpha^2/4 - s sigma^2 w} sqrt(m! j!) sum_k c^{m+j-2k} / (k! (m-k)! (j-k)!),
    whose terms share one sign."""
    with mpmath.workdps(30):
        sigma, s = mpmath.mpf(p.sigma), mpmath.mpf(s)
        alpha = s * sigma
        c = alpha / mpmath.sqrt(2)
        total = mpmath.fsum(c ** (m + j - 2 * k) / (mpmath.factorial(k) * mpmath.factorial(m - k)
                                                     * mpmath.factorial(j - k))
                            for k in range(min(m, j) + 1))
        return (mpmath.exp(alpha * alpha / 4 - s * sigma**2 * mpmath.mpf(p.w))
                * mpmath.sqrt(mpmath.factorial(m) * mpmath.factorial(j)) * total)


# (sigma, r, w): beta -0.75, -0.456 and -0.494, so s sigma runs from -2.97 to 2.97
MOMENT_MARKETS = [(0.2, 0.05, 0.0), (1.5, 0.1, 0.4), (3.0, 0.05, -0.3)]


class TestMoments:
    """The moment recurrence against mpmath, the Laguerre norm law, and
    Gauss-Hermite quadrature of the sampled expansions."""

    @pytest.mark.parametrize("sigma, r, w", MOMENT_MARKETS)
    @pytest.mark.parametrize("steps", [2.0, 1.0, -1.0, -2.0])  # s = steps * beta
    def test_entries_match_mpmath(self, sigma, r, w, steps):
        p = HarmonicParams(MarketParams(sigma, r), w)
        s = steps * p.beta
        m = harmonic.moments(p, s, 61)
        for i in range(0, 61, 6):
            for j in (*range(0, 61, 6), 60):
                ref = float(mp_moment(p, s, i, j))
                assert abs(m[i, j] - ref) <= 1e-13 * math.sqrt(m[i, i] * m[j, j]), (i, j)

    @pytest.mark.parametrize("sigma, r, w", MOMENT_MARKETS + [(0.2, 0.05, 0.5)])
    def test_diagonal_is_the_norm_law(self, sigma, r, w):
        p = HarmonicParams(MarketParams(sigma, r), w)
        for steps, family in ((2.0, "varphi"), (-2.0, "psi")):
            diag = np.diagonal(harmonic.moments(p, steps * p.beta, 61))
            law = np.array([norm_squared_law(p, n, family) for n in range(61)])
            np.testing.assert_allclose(diag, law, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("w", [0.0, 0.7])
    def test_no_tilt_is_the_identity(self, market, w):
        p = params_for(market, w)
        for n in (1, 2, 61, MAX_DEGREE + 1):
            np.testing.assert_array_equal(harmonic.moments(p, 0.0, n), np.eye(n))

    def test_inner_pairs_rows_as_quadrature_does(self, market):
        # row i of a block with row i of the other slot, a single expansion
        # with every row; two single expansions give a complex
        p = params_for(market)
        block = HermiteExpansion(p, p.beta, np.array([[1.0, 0.0, 0.5], [0.0, 1.0, 0.0]]))
        single = HermiteExpansion(p, -p.beta, np.array([0.3, 0.0, 0.0, 1.0]))
        rows = [block.with_coeffs(row) for row in block.coeffs]
        for left, right, pairs in ((block, single, [(r, single) for r in rows]),
                                   (single, block, [(single, r) for r in rows]),
                                   (block, block, list(zip(rows, rows)))):
            one_by_one = [grids.inner(f, g) for f, g in pairs]
            assert all(isinstance(v, complex) for v in one_by_one)
            np.testing.assert_allclose(grids.inner(left, right), one_by_one, rtol=1e-15)
            gram = grids.gram([left], [right])  # 2 x 1, 1 x 2 or 2 x 2
            paired = np.diagonal(gram) if gram.shape == (2, 2) else np.ravel(gram)
            np.testing.assert_allclose(paired, one_by_one, rtol=1e-15)

    @pytest.mark.parametrize("sigma, r, w", [(0.2, 0.05, 0.0), (0.2, 0.02, 0.0),
                                             (0.2, 0.05, 0.36), (0.6, 0.05, 0.0)])
    def test_gram_matches_gauss_hermite_quadrature(self, sigma, r, w):
        # every block the battery integrates, each rule fitted to the product of
        # two modes, e^{-(x - center)^2 / sigma^2}
        from pbk.systems import harmonic_system

        p = HarmonicParams(MarketParams(sigma, r), w)
        system = harmonic_system(p)
        blocks = [system.family_phi(60), system.family_psi(60),
                  *system.quasi_pairs[0], system.test_functions]
        exact = grids.gram(blocks, blocks)
        rules = partial(hermite_rule, center=p.center, scale=math.sqrt(2.0) * p.sigma)
        quadrature = adaptive_gram(blocks, blocks, rules)
        scale = np.sqrt(np.outer(np.diagonal(exact), np.diagonal(exact)))
        assert np.max(np.abs(quadrature - exact) / scale) <= 1e-13


def test_operator_grid_covers_center(market):
    p = params_for(market, w=2.0)
    g = operator_grid(p)
    assert g.points[0] < p.center < g.points[-1]
    assert g.n == harmonic.OPERATOR_GRID_POINTS


# ---------------------------------------------------------------------------
# blocks: one function per row of a coefficient matrix or a sample matrix


class TestBlocks:
    MAPS = (apply_A, apply_B, apply_A_dag, apply_B_dag, apply_c, apply_H_eff,
            apply_h_BS, apply_Theta, lambda p, f: f.deriv())

    @staticmethod
    def block(market):
        p = params_for(market, w=0.3)
        coeffs = np.random.default_rng(5).standard_normal((4, 9))
        return p, HermiteExpansion(p, p.beta, coeffs)

    def test_coefficient_maps_act_row_by_row(self, market):
        p, block = self.block(market)
        for op in self.MAPS:
            out = op(p, block)
            for i, row in enumerate(block.coeffs):
                alone = op(p, HermiteExpansion(p, p.beta, row))
                assert out.tilt == alone.tilt
                np.testing.assert_array_equal(out.coeffs[i], alone.coeffs)

    def test_evaluation_rows_match_single_rows(self, market):
        p, block = self.block(market)
        x = np.linspace(-1.5, 1.5, 301)
        values = block(x)
        assert values.shape == (4, x.size)
        for i, row in enumerate(block.coeffs):
            alone = HermiteExpansion(p, p.beta, row)(x)
            # one matrix product against four: equal to the last few ulps
            np.testing.assert_allclose(values[i], alone, rtol=0.0,
                                       atol=1e-15 * np.max(np.abs(alone)))
        np.testing.assert_array_equal(block(0.2), block(np.array([0.2]))[:, 0])

    def test_unit_rows_are_the_family_members(self, market):
        p = params_for(market, w=0.3)
        x = np.linspace(-1.5, 1.5, 301)
        values = HermiteExpansion(p, p.beta, np.eye(7))(x)
        for n in range(7):
            np.testing.assert_array_equal(values[n], varphi_n(p, n)(x))

    def test_grid_maps_act_row_by_row(self, market):
        p, block = self.block(market)
        grid = GridSpec.over(-1.5, 1.5, 601)
        sampled = grid.sample(block)
        for op in self.MAPS[:-1]:
            out = op(p, sampled)
            for i in range(len(block.coeffs)):
                alone = op(p, sampled.with_samples(sampled.samples[i]))
                assert (out.x0, out.n) == (alone.x0, alone.n)
                np.testing.assert_array_equal(out.samples[i], alone.samples)


# ---------------------------------------------------------------------------
# a harmonic system's shared Hermite tables


class TestSharedTables:
    @staticmethod
    def system_tables(market, route="exact"):
        """The system's family block maker and its shared tables."""
        from pbk.systems import harmonic_system

        p = params_for(market)
        family = harmonic_system(p, route).family_phi
        return p, family, family(0).tables

    def test_family_block_equals_untabled_expansion(self, market):
        p, family, _ = self.system_tables(market)
        grid_points = operator_grid(p).points
        rule_nodes = p.center + p.sigma * np.polynomial.hermite.hermgauss(128)[0]
        for n in (0, 20, 41):
            block = family(n)
            untabled = HermiteExpansion(p, p.beta, np.eye(n + 1))
            for x in (grid_points, rule_nodes):
                values = block(x)
                np.testing.assert_array_equal(values, untabled(x))
                # and equal to the matrix product the identity path skips
                product = (np.eye(n + 1) @ harmonic.mode_table(p, n, x)) * np.exp(p.beta * x)
                np.testing.assert_array_equal(values, product)

    def test_maps_pass_the_tables_on(self, market):
        p, family, tables = self.system_tables(market)
        block = family(4)
        for op in (apply_A, apply_B_dag, apply_H_eff, apply_Theta, lambda p, f: f.deriv()):
            out = op(p, block)
            assert out.tables is tables
            x = operator_grid(p).points
            np.testing.assert_array_equal(out(x), HermiteExpansion(p, out.tilt, out.coeffs)(x))

    def test_interior_slices_match_fresh_tables(self, market):
        p, family, tables = self.system_tables(market, "grid")
        sampled = operator_grid(p).sample(family(21))
        once = derivative(sampled)
        for inner in (once, derivative(once)):
            table = tables(21, inner.x)
            fresh = harmonic.mode_table(p, 21, inner.x)
            assert table.shape == fresh.shape
            np.testing.assert_allclose(table, fresh, rtol=0.0,
                                       atol=1e-13 * np.max(np.abs(fresh)))

    @pytest.mark.parametrize("rows", [1, 7])
    def test_row_by_row_first_order_equals_whole_block_formula(self, market, rows):
        p = params_for(market, w=0.3)
        coeffs = np.random.default_rng(rows).standard_normal((rows, 9))
        f = GridSpec.over(-1.5, 1.5, 601).sample(HermiteExpansion(p, p.beta, coeffs))
        f = f.with_samples(f.samples[0] if rows == 1 else f.samples)
        d = derivative(f)
        mid = f.interior(4).samples
        for op, d_sign, shift in ((apply_A, 1.0, -p.beta), (apply_B, -1.0, p.beta),
                                  (apply_c, 1.0, 0.0), (apply_A_dag, -1.0, -p.beta)):
            whole = (superpotential(p, d.x) + shift) * mid + d_sign * d.samples
            whole *= p.sigma / math.sqrt(2.0)
            np.testing.assert_array_equal(op(p, f).samples, whole)
