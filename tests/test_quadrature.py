"""Gauss-Hermite and Gauss-Legendre rules, plain and adaptive."""

import math

import mpmath
import numpy as np
import pytest
from scipy.special import roots_hermite

from pbk.quadrature import (
    ADAPTIVE_CAP,
    _hermite_nodes,
    _make_rule,
    QuadratureConvergenceError,
    QuadratureEvaluationError,
    QuadratureRule,
    adaptive_gram,
    adaptive_inner_product,
    gram_matrix,
    hermite_rule,
    inner_product,
    legendre_rule,
)


class TestHermiteRule:
    def test_gaussian_integral(self):
        rule = hermite_rule(64)
        total = np.dot(rule.weights, np.exp(-rule.nodes**2))
        assert total == pytest.approx(math.sqrt(math.pi), rel=1e-14)

    def test_second_moment(self):
        rule = hermite_rule(64)
        total = np.dot(rule.weights, rule.nodes**2 * np.exp(-rule.nodes**2))
        assert total == pytest.approx(math.sqrt(math.pi) / 2, rel=1e-13)

    def test_affine_map(self):
        # int exp(-(x-3)^2 / 4) dx = 2 sqrt(pi)
        rule = hermite_rule(96, center=3.0, scale=2.0)
        total = np.dot(rule.weights, np.exp(-((rule.nodes - 3.0) ** 2) / 4.0))
        assert total == pytest.approx(2 * math.sqrt(math.pi), rel=1e-13)

    def test_large_rule_weights_stay_finite(self):
        rule = hermite_rule(2048)
        assert np.all(np.isfinite(rule.weights))
        assert np.all(rule.weights > 0)

    def test_scale_must_be_positive(self):
        with pytest.raises(ValueError):
            hermite_rule(32, scale=0.0)


# both parities, from one node to the adaptive cap; 1024 and 4096 drop nodes
HERMITE_SIZES = [1, 2, 3, 64, 65, 150, 151, 256, 1024, 4096]


def mp_compensated_weight(n, x):
    """w e^{r^2} = 2^{n-1} n! sqrt(pi) e^{r^2} / (n^2 H_{n-1}(r)^2) at 50 digits,
    at the zero r of H_n refined from x by Newton on mpmath's H_n."""
    with mpmath.workdps(50):
        r = mpmath.mpf(x)
        for _ in range(2):
            r -= mpmath.hermite(n, r) / (2 * n * mpmath.hermite(n - 1, r))
        return (mpmath.mpf(2) ** (n - 1) * mpmath.factorial(n) * mpmath.sqrt(mpmath.pi)
                * mpmath.exp(r * r) / (n * n * mpmath.hermite(n - 1, r) ** 2))


class TestHermiteNodes:
    """The in-repo Gauss-Hermite rule against scipy's nodes and mpmath's weights."""

    @pytest.mark.parametrize("n", HERMITE_SIZES)
    def test_nodes_match_scipy(self, n):
        x, w = _hermite_nodes(n)
        u, raw = roots_hermite(n)
        drop = (n - x.size) // 2
        np.testing.assert_allclose(x, u[drop:n - drop], rtol=0, atol=1e-13)
        # only nodes whose raw weight is not a normal double are dropped
        assert np.all(raw[:drop] < np.finfo(float).tiny)

    @pytest.mark.parametrize("n", [64, 65, 1024, 4096])
    def test_compensated_weights_match_mpmath(self, n):
        x, w = _hermite_nodes(n)
        np.testing.assert_array_equal(x, -x[::-1])
        np.testing.assert_array_equal(w, w[::-1])
        for i in (x.size // 2, x.size - 2, x.size - 1):
            expected = float(mp_compensated_weight(n, x[i]))
            assert w[i] == pytest.approx(expected, rel=1e-13, abs=0.0), (i, x[i])

    @pytest.mark.parametrize("k", range(11))
    def test_even_moments(self, k):
        rule = hermite_rule(64)
        total = np.dot(rule.weights, rule.nodes ** (2 * k) * np.exp(-rule.nodes**2))
        assert total == pytest.approx(math.gamma(k + 0.5), rel=1e-13)

    @pytest.mark.parametrize("n", HERMITE_SIZES)
    def test_kept_raw_weights_are_normal(self, n):
        x, w = _hermite_nodes(n)
        raw = w * np.exp(-x * x)
        assert np.all(np.isfinite(raw))
        assert np.all(raw >= np.finfo(float).tiny)

    def test_needs_a_node(self):
        with pytest.raises(ValueError):
            _hermite_nodes(0)

    def test_unsettled_newton_raises(self, monkeypatch):
        # one Newton step cannot bring Tricomi's guesses to rounding level at n = 63
        monkeypatch.setattr("pbk.quadrature._HERMITE_NEWTON_CAP", 1)
        with pytest.raises(ArithmeticError, match="did not settle"):
            _hermite_nodes(63)


class TestLegendreRule:
    def test_polynomial_exactness(self):
        rule = legendre_rule(6, 0.0, 1.0)
        total = np.dot(rule.weights, rule.nodes**3)
        assert total == pytest.approx(0.25, rel=1e-15)

    def test_interval_recorded(self):
        rule = legendre_rule(8, -2.0, 5.0)
        assert rule.nodes[0] > -2.0 and rule.nodes[-1] < 5.0

    def test_sine_integral(self):
        rule = legendre_rule(48, 0.0, math.pi)
        total = np.dot(rule.weights, np.sin(rule.nodes))
        assert total == pytest.approx(2.0, rel=1e-14)

    def test_bad_interval(self):
        with pytest.raises(ValueError):
            legendre_rule(8, 1.0, 1.0)


class TestRuleValidation:
    def test_nodes_must_increase(self):
        with pytest.raises(ValueError):
            QuadratureRule(np.array([1.0, 0.0]), np.array([1.0, 1.0]))

    def test_weights_must_be_positive(self):
        with pytest.raises(ValueError):
            QuadratureRule(np.array([0.0, 1.0]), np.array([1.0, -1.0]))


class TestInnerProduct:
    def test_hermite_functions_orthonormal(self):
        from pbk.specialfn import hermite_function

        rule = hermite_rule(128)
        same = inner_product(
            lambda u: hermite_function(3, u), lambda u: hermite_function(3, u), rule
        )
        cross = inner_product(
            lambda u: hermite_function(3, u), lambda u: hermite_function(5, u), rule
        )
        assert same.real == pytest.approx(1.0, abs=1e-14)
        assert abs(cross) < 1e-14

    def test_conjugates_first_argument(self):
        rule = legendre_rule(16, 0.0, 1.0)
        val = inner_product(
            lambda x: 1j * np.ones_like(x), lambda x: np.ones_like(x), rule
        )
        assert val == pytest.approx(-1j, abs=1e-14)

    def test_non_finite_sample_rejected(self):
        rule = legendre_rule(16, 0.0, 1.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            with pytest.raises(QuadratureEvaluationError, match="non-finite"):
                inner_product(lambda x: 1.0 / (x - x), lambda x: x, rule)


class TestPairedRows:
    """inner_product pairs row i of one slot with row i of the other."""

    @staticmethod
    def block(x):
        return np.array([np.sin(x), np.cos(x), x * (math.pi - x)])

    def test_block_against_block(self):
        rule = legendre_rule(32, 0.0, math.pi)
        paired = inner_product(self.block, lambda x: 2.0 * self.block(x), rule)
        assert paired.shape == (3,)
        for i in range(3):
            row = inner_product(lambda x: self.block(x)[i],
                                lambda x: 2.0 * self.block(x)[i], rule)
            assert paired[i] == pytest.approx(row, rel=1e-15, abs=1e-15)

    def test_single_function_against_block(self):
        rule = legendre_rule(32, 0.0, math.pi)
        right = inner_product(np.exp, self.block, rule)
        left = inner_product(self.block, np.exp, rule)
        assert right.shape == left.shape == (3,)
        for i in range(3):
            def row(x, i=i):
                return self.block(x)[i]

            assert right[i] == pytest.approx(inner_product(np.exp, row, rule), rel=1e-15)
            assert left[i] == pytest.approx(inner_product(row, np.exp, rule), rel=1e-15)

    def test_two_single_functions_give_a_complex(self):
        rule = legendre_rule(16, 0.0, 1.0)
        assert isinstance(inner_product(np.sin, np.cos, rule), complex)
        val = adaptive_inner_product(np.sin, np.cos, "gauss_legendre", interval=(0.0, 1.0))
        assert isinstance(val, complex)

    def test_paired_values_are_the_gram_diagonal(self):
        rule = legendre_rule(32, 0.0, math.pi)
        paired = inner_product(self.block, self.block, rule)
        gram = gram_matrix([self.block], [self.block], rule)
        np.testing.assert_allclose(paired, np.diagonal(gram), rtol=0.0, atol=1e-13)
        paired = adaptive_inner_product(self.block, self.block, "gauss_legendre",
                                        interval=(0.0, math.pi))
        gram = adaptive_gram([self.block], [self.block], "gauss_legendre",
                             interval=(0.0, math.pi))
        np.testing.assert_allclose(paired, np.diagonal(gram), rtol=0.0, atol=1e-13)

    def test_non_finite_row_names_the_function(self):
        rule = legendre_rule(16, 0.0, 1.0)

        def bad_row(x):
            return np.array([np.sin(x), 1.0 / (x - x)])

        with np.errstate(divide="ignore", invalid="ignore"):
            with pytest.raises(QuadratureEvaluationError, match=r"integrand g "):
                inner_product(np.sin, bad_row, rule)


class TestAdaptive:
    def test_gaussian_pair(self):
        val = adaptive_inner_product(
            lambda x: np.exp(-(x**2)),
            lambda x: np.exp(-(x**2)),
            "gauss_hermite",
            scale=1.0,
        )
        assert val.real == pytest.approx(math.sqrt(math.pi / 2), rel=1e-12)

    def test_legendre_route(self):
        val = adaptive_inner_product(np.sin, np.sin, "gauss_legendre",
                                     interval=(0.0, math.pi))
        assert val.real == pytest.approx(math.pi / 2, rel=1e-12)

    def test_slow_decay_never_settles(self):
        # 1/(1+x^2) decays far too slowly for a Hermite rule: the compensated
        # integrand grows like e^{x^2}, so node doubling keeps finding mass
        with pytest.raises(QuadratureConvergenceError) as info:
            adaptive_inner_product(
                lambda x: 1.0 / (1.0 + x**2),
                lambda x: np.ones_like(x),
                "gauss_hermite",
            )
        assert str(ADAPTIVE_CAP) in str(info.value)
        assert info.value.last != info.value.previous

    def test_missing_interval(self):
        with pytest.raises(ValueError):
            adaptive_inner_product(np.sin, np.sin, "gauss_legendre")

    @pytest.mark.parametrize("kind, interval", [("gauss_hermite", None),
                                                ("gauss_legendre", (0.0, 2.0))])
    def test_step_rules_are_shared_and_read_only(self, kind, interval):
        rule = _make_rule(kind, 64, 0.5, 1.5, interval)
        assert _make_rule(kind, 64, 0.5, 1.5, interval) is rule
        with pytest.raises(ValueError):
            rule.nodes[0] = 0.0
        with pytest.raises(ValueError):
            rule.weights[0] = 1.0


class TestGram:
    FS = [np.sin, np.cos, lambda x: x * (math.pi - x)]
    GS = [lambda x: np.sin(2.0 * x), np.exp]

    def test_one_rule_matches_inner_products(self):
        rule = legendre_rule(32, 0.0, math.pi)
        gram = gram_matrix(self.FS, self.GS, rule)
        assert gram.shape == (3, 2)
        for i, f in enumerate(self.FS):
            for j, g in enumerate(self.GS):
                assert gram[i, j] == pytest.approx(inner_product(f, g, rule),
                                                   rel=1e-14, abs=1e-14)

    def test_conjugates_first_block(self):
        rule = legendre_rule(16, 0.0, 1.0)
        gram = gram_matrix([lambda x: 1j * np.ones_like(x)], [np.ones_like], rule)
        assert gram[0, 0] == pytest.approx(-1j, abs=1e-14)

    def test_adaptive_matches_pairwise(self):
        gram = adaptive_gram(self.FS, self.GS, "gauss_legendre", interval=(0.0, math.pi))
        for i, f in enumerate(self.FS):
            for j, g in enumerate(self.GS):
                pair = adaptive_inner_product(f, g, "gauss_legendre",
                                              interval=(0.0, math.pi))
                assert abs(gram[i, j] - pair) <= 1e-13 * max(1.0, abs(pair))

    def test_each_function_sampled_once_per_rule(self):
        sizes = []

        def counted(x):
            sizes.append(x.size)
            return np.exp(-(x**2))

        adaptive_gram([counted], [counted, counted], "gauss_hermite")
        # one call per slot and rule, and the rules double from 64 nodes
        rules = sizes[::3]
        assert sizes == [n for n in rules for _ in range(3)]
        assert rules == [64 * 2**k for k in range(len(rules))] and len(rules) >= 2

    def test_non_finite_sample_names_the_function(self):
        rule = legendre_rule(16, 0.0, 1.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            with pytest.raises(QuadratureEvaluationError, match=r"g\[1\]"):
                gram_matrix([np.sin], [np.sin, lambda x: 1.0 / (x - x)], rule)

    def test_one_unsettled_entry_fails_the_block(self):
        with pytest.raises(QuadratureConvergenceError) as info:
            adaptive_gram(
                [lambda x: np.exp(-(x**2)), lambda x: 1.0 / (1.0 + x**2)],
                [np.ones_like],
                "gauss_hermite",
            )
        assert info.value.last != info.value.previous
        assert isinstance(info.value.last, complex)
