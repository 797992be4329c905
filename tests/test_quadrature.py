"""Gauss-Hermite and Gauss-Legendre rules, plain and adaptive."""

import math

import numpy as np
import pytest

from pbk.quadrature import (
    ADAPTIVE_CAP,
    _make_rule,
    QuadratureConvergenceError,
    QuadratureEvaluationError,
    QuadratureRule,
    adaptive_inner_product,
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


class TestLegendreRule:
    def test_polynomial_exactness(self):
        rule = legendre_rule(6, 0.0, 1.0)
        total = np.dot(rule.weights, rule.nodes**3)
        assert total == pytest.approx(0.25, rel=1e-15)

    def test_interval_recorded(self):
        rule = legendre_rule(8, -2.0, 5.0)
        assert rule.interval == (-2.0, 5.0)
        assert rule.nodes[0] > -2.0 and rule.nodes[-1] < 5.0

    def test_sine_integral(self):
        rule = legendre_rule(48, 0.0, math.pi)
        total = np.dot(rule.weights, np.sin(rule.nodes))
        assert total == pytest.approx(2.0, rel=1e-14)

    def test_bad_interval(self):
        with pytest.raises(ValueError):
            legendre_rule(8, 1.0, 1.0)


class TestRuleValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            QuadratureRule("simpson", np.array([0.0, 1.0]), np.array([1.0, 1.0]))

    def test_nodes_must_increase(self):
        with pytest.raises(ValueError):
            QuadratureRule(
                "gauss_hermite", np.array([1.0, 0.0]), np.array([1.0, 1.0])
            )

    def test_weights_must_be_positive(self):
        with pytest.raises(ValueError):
            QuadratureRule(
                "gauss_hermite", np.array([0.0, 1.0]), np.array([1.0, -1.0])
            )

    def test_legendre_needs_interval(self):
        with pytest.raises(ValueError):
            QuadratureRule(
                "gauss_legendre", np.array([0.0, 1.0]), np.array([1.0, 1.0])
            )


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


class TestAdaptive:
    def test_gaussian_pair(self):
        val = adaptive_inner_product(
            lambda x: np.exp(-(x**2)),
            lambda x: np.exp(-(x**2)),
            "gauss_hermite",
            1e-12,
            scale=1.0,
        )
        assert val.real == pytest.approx(math.sqrt(math.pi / 2), rel=1e-12)

    def test_legendre_route(self):
        val = adaptive_inner_product(
            np.sin, np.sin, "gauss_legendre", 1e-12, interval=(0.0, math.pi)
        )
        assert val.real == pytest.approx(math.pi / 2, rel=1e-12)

    def test_rel_tol_floor(self):
        with pytest.raises(ValueError):
            adaptive_inner_product(
                np.sin, np.sin, "gauss_legendre", 1e-15, interval=(0.0, 1.0)
            )

    def test_slow_decay_never_settles(self):
        # 1/(1+x^2) decays far too slowly for a Hermite rule: the compensated
        # integrand grows like e^{x^2}, so node doubling keeps finding mass
        with pytest.raises(QuadratureConvergenceError) as info:
            adaptive_inner_product(
                lambda x: 1.0 / (1.0 + x**2),
                lambda x: np.ones_like(x),
                "gauss_hermite",
                1e-12,
            )
        assert str(ADAPTIVE_CAP) in str(info.value)
        assert info.value.last != info.value.previous

    def test_missing_interval(self):
        with pytest.raises(ValueError):
            adaptive_inner_product(np.sin, np.sin, "gauss_legendre", 1e-10)

    @pytest.mark.parametrize("kind, interval", [("gauss_hermite", None),
                                                ("gauss_legendre", (0.0, 2.0))])
    def test_step_rules_are_shared_and_read_only(self, kind, interval):
        rule = _make_rule(kind, 64, 0.5, 1.5, interval)
        assert _make_rule(kind, 64, 0.5, 1.5, interval) is rule
        with pytest.raises(ValueError):
            rule.nodes[0] = 0.0
        with pytest.raises(ValueError):
            rule.weights[0] = 1.0
