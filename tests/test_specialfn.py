"""Special-function recurrences against scipy/mpmath oracles."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import eval_hermite, eval_laguerre

from pbk.specialfn import (
    FEW_POINTS,
    MAX_DEGREE,
    THETA_TRANSFORM_RATE,
    hermite_function_sequence,
    laguerre,
    laguerre_sequence,
    theta3,
)


def hermite_oracle(n, x):
    """psi_n from scipy's physicists' H_n: H_n(x) e^{-x^2/2} / sqrt(2^n n! sqrt(pi))."""
    scale = math.sqrt(2.0**n * math.factorial(n) * math.sqrt(math.pi))
    return eval_hermite(n, x) * np.exp(-0.5 * np.square(x)) / scale


class TestHermite:
    """The normalized Hermite functions against scipy's Hermite polynomials."""

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 7, 15, 30])
    def test_matches_scipy(self, n):
        x = np.linspace(-4.0, 4.0, 17)
        np.testing.assert_allclose(hermite_function_sequence(n, x)[n],
                                   hermite_oracle(n, x), rtol=1e-12, atol=1e-15)

    def test_low_orders_explicit(self):
        u = 1.7
        ground = math.pi**-0.25 * math.exp(-0.5 * u * u)
        assert hermite_function_sequence(0, u)[0] == pytest.approx(ground, rel=1e-14)
        assert hermite_function_sequence(1, u)[1] == pytest.approx(math.sqrt(2) * u * ground)
        assert hermite_function_sequence(2, u)[2] == pytest.approx(
            (2 * u**2 - 1) / math.sqrt(2) * ground)
        assert hermite_function_sequence(3, u)[3] == pytest.approx(
            (2 * u**3 - 3 * u) / math.sqrt(3) * ground)

    @given(n=st.integers(0, 40), x=st.floats(-5, 5))
    def test_parity(self, n, x):
        assert hermite_function_sequence(n, -x)[n] == pytest.approx(
            (-1) ** n * hermite_function_sequence(n, x)[n], rel=1e-9, abs=1e-12
        )

    @given(n=st.integers(1, 40), x=st.floats(-5, 5))
    def test_three_term_recurrence(self, n, x):
        # x psi_n = sqrt((n+1)/2) psi_{n+1} + sqrt(n/2) psi_{n-1}
        lhs = x * hermite_function_sequence(n, x)[n]
        rhs = (math.sqrt((n + 1) / 2) * hermite_function_sequence(n + 1, x)[n + 1]
               + math.sqrt(n / 2) * hermite_function_sequence(n - 1, x)[n - 1])
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)

    def test_scalar_is_one_point(self):
        assert hermite_function_sequence(4, 0.3).shape == (5, 1)
        assert hermite_function_sequence(4, np.array([0.3, 0.4])).shape == (5, 2)
        assert (hermite_function_sequence(4, np.array(0.3))[4]
                == hermite_function_sequence(4, 0.3)[4])

    def test_degree_validation(self):
        with pytest.raises(ValueError):
            hermite_function_sequence(-1, 0.0)
        with pytest.raises(ValueError):
            hermite_function_sequence(MAX_DEGREE + 1, 0.0)
        with pytest.raises(TypeError):
            hermite_function_sequence(2.5, 0.0)


class TestLaguerre:
    @pytest.mark.parametrize("n", [0, 1, 5, 12, 30])
    def test_matches_scipy(self, n):
        x = np.linspace(-3.0, 3.0, 13)
        np.testing.assert_allclose(laguerre(n, x), eval_laguerre(n, x), rtol=1e-11, atol=1e-11)

    @pytest.mark.parametrize("x", [-0.045, 1.5, np.linspace(-3.0, 3.0, 13)])
    def test_sequence_rows_are_the_single_values(self, x):
        rows = laguerre_sequence(30, x)
        assert rows.shape == (31,) + np.shape(x)
        for n in range(31):
            np.testing.assert_array_equal(rows[n], laguerre(n, x), strict=True)
        assert isinstance(laguerre(5, -0.045), float)

    def test_negative_argument_all_terms_positive(self):
        # the norm law feeds in -2 beta^2 sigma^2 < 0, where L_n grows
        vals = [laguerre(n, -0.045) for n in range(40)]
        assert all(v >= 1.0 for v in vals)
        assert all(b > a for a, b in zip(vals, vals[1:]))


def rate(q):
    """The rate -ln q of a nome q in [0, 1); inf for q = 0."""
    return -math.log(q) if q else math.inf


class TestTheta3:
    def test_reference_values(self):
        # ell = -ln 0.1 is the nome 0.10000000000000002; m = 1..4 contribute
        # above the 1e-16 term cutoff. 40-digit mpmath gives 1.20020000200000023901
        # and 0.80019999800000016130: the sum rounds 1.4e-16 and 8.2e-17 below
        # them, one ulp under their nearest floats. Summing m = 4..1 first would
        # land on those two floats but one ulp off at u = 0.3 and 2.7 instead.
        for u, nearest in ((0.0, 1.2002000020000003), (math.pi / 2, 0.8001999980000002)):
            assert abs(theta3(u, rate(0.1)) - nearest) <= math.ulp(nearest)

    @pytest.mark.parametrize("q", [0.0, 0.05, 0.3, 0.7, 0.95])
    def test_matches_mpmath(self, q):
        for u in np.linspace(0.0, math.pi, 9):
            expected = float(mpmath.jtheta(3, u, q))
            assert theta3(u, rate(q)) == pytest.approx(expected, rel=1e-13, abs=1e-13)

    @given(u=st.floats(-10, 10), q=st.floats(0.0, 0.9))
    @settings(max_examples=60)
    def test_symmetry_and_period(self, u, q):
        ell = rate(q)
        assert theta3(-u, ell) == pytest.approx(theta3(u, ell), rel=1e-12)
        assert theta3(u + math.pi, ell) == pytest.approx(theta3(u, ell), rel=1e-9, abs=1e-12)

    def test_q_zero_is_one(self):
        x = np.linspace(-2, 2, 7)
        np.testing.assert_array_equal(theta3(x, math.inf), np.ones_like(x))

    def test_nome_validation(self):
        # the rate -ln q must be positive: q = 1 and above are refused
        for ell in (0.0, -0.2, math.nan):
            with pytest.raises(ValueError, match="rate ell"):
                theta3(0.0, ell)

    def test_vectorized(self):
        u = np.linspace(0, 1, 5)
        out = theta3(u, rate(0.4))
        assert out.shape == u.shape

    @pytest.mark.parametrize("ell", [THETA_TRANSFORM_RATE * 1.001, THETA_TRANSFORM_RATE,
                                     THETA_TRANSFORM_RATE * 0.999, 0.3, 0.01, 1e-5])
    def test_both_sides_of_the_switch_match_mpmath(self, ell):
        # relative to the value: the transformed side keeps its digits where
        # the cosine series would leave rounding noise of theta3(0, q)
        mpmath.mp.dps = 40
        try:
            for u in np.linspace(-1.0, 4.0, 11):
                expected = mpmath.jtheta(3, float(u), mpmath.exp(-mpmath.mpf(ell)))
                if expected < 1e-300:
                    continue
                for got in (theta3(u, ell), theta3(np.array([u]), ell)[0]):
                    assert got == pytest.approx(float(expected), rel=2e-15), (u, got)
        finally:
            mpmath.mp.dps = 15

    def test_transformed_side_is_a_sum_of_positive_terms(self):
        # far from every image of u the value underflows to 0, never below it
        u = np.linspace(0.2, 1.4, 7)
        for ell in (1e-3, 1e-7, 1e-15):
            out = theta3(u, ell)
            assert np.all(out >= 0.0)
        assert theta3(0.8, 1e-7) == 0.0

    def test_a_positive_rate_admits_a_nome_rounded_to_one(self):
        assert math.exp(-1e-20) == 1.0
        assert theta3(0.0, 1e-20) == pytest.approx(math.sqrt(math.pi / 1e-20))


class TestHermiteFunction:
    def test_ground_state(self):
        u = np.linspace(-3, 3, 11)
        expected = math.pi**-0.25 * np.exp(-0.5 * u**2)
        np.testing.assert_allclose(hermite_function_sequence(0, u)[0], expected, rtol=1e-14)

    def test_first_excited(self):
        u = 0.8
        expected = math.sqrt(2) * u * math.pi**-0.25 * math.exp(-0.5 * u * u)
        assert hermite_function_sequence(1, u)[1] == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize("n", [0, 1, 5, 40, 120, 200])
    def test_unit_norm(self, n):
        # the mass of psi_n lives inside |u| < sqrt(2n+1) + a few
        half = math.sqrt(2 * n + 1) + 8.0
        u = np.linspace(-half, half, 40001)
        vals = hermite_function_sequence(n, u)[n]
        norm_sq = np.trapezoid(vals**2, u)
        assert norm_sq == pytest.approx(1.0, abs=1e-10)

    def test_no_overflow_at_cap(self):
        vals = hermite_function_sequence(200, np.linspace(-25, 25, 101))[200]
        assert np.all(np.isfinite(vals))
        assert np.max(np.abs(vals)) < 1.0

    def test_far_tail_underflows_to_zero(self):
        assert hermite_function_sequence(0, 60.0)[0] == 0.0

    def test_sequence_agrees_with_single(self):
        # bit for bit with the single row of a shorter table: both run the
        # same recurrence in the same order
        u = np.linspace(-30.0, 30.0, 241)
        table = hermite_function_sequence(MAX_DEGREE, u)
        assert table.shape == (MAX_DEGREE + 1, 241)
        for n in range(MAX_DEGREE + 1):
            np.testing.assert_array_equal(table[n], hermite_function_sequence(n, u)[n])

    @pytest.mark.parametrize("n", [0, 1, 2, 147, 200])
    def test_few_points_match_the_row_loop(self, n):
        # up to FEW_POINTS points the recurrence runs in Python floats; each
        # table equals the first columns of one built by the row loop on the
        # same points plus 40 more, bit for bit: at +-0, where psi_0 underflows
        # (|u| > 37.6) and far beyond it
        rng = np.random.default_rng(n)
        pool = np.concatenate([[0.0, -0.0, 37.7, -38.5, 1e3, -1e3],
                               rng.normal(0.0, 6.0, FEW_POINTS)])
        padding = np.linspace(-9.0, 9.0, 40)
        for count in range(1, FEW_POINTS + 2):
            u = pool[:count]
            wide = hermite_function_sequence(n, np.concatenate([u, padding]))
            np.testing.assert_array_equal(hermite_function_sequence(n, u).view(np.uint64),
                                          wide[:, :count].view(np.uint64))

    def test_orthogonality_spot_check(self):
        u = np.linspace(-15, 15, 60001)
        table = hermite_function_sequence(6, u)
        overlap = np.trapezoid(table[2] * table[5], u)
        assert abs(overlap) < 1e-12
