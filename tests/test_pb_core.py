"""Model-independent ladder harness: result types, individual checks, and the
full battery on both concrete models."""

import dataclasses
import json
import math

import numpy as np
import pytest

from pbk.grids import GridSpec
from pbk.market import MarketParams
from pbk.pb_core import (
    ALGEBRAIC_TOL,
    LADDER_N_MAX_CAP,
    NORM_N_MAX_CAP,
    CheckResult,
    DiagnosticReport,
    EigenSequence,
    LadderSystem,
    MetricOperator,
    check_biorthogonality,
    check_ladder,
    check_norm_growth,
    check_quasi_basis,
    check_theta_conjugacy,
    check_vacua,
    run_all_checks,
)
from pbk.barrier import BarrierParams
from pbk.harmonic import HarmonicParams
from pbk.systems import barrier_system, harmonic_system


@pytest.fixture(scope="module")
def harmonic(market):
    return harmonic_system(HarmonicParams(market))


@pytest.fixture(scope="module")
def barrier(market):
    return barrier_system(BarrierParams(market, 0.0, math.pi))


# ---------------------------------------------------------------------------
# result plumbing


class TestEigenSequence:
    def test_must_start_at_zero(self):
        with pytest.raises(ValueError, match="start at 0"):
            EigenSequence(lambda n: n + 1.0)

    def test_monotonicity_enforced_when_flagged(self):
        with pytest.raises(ValueError, match="increasing"):
            EigenSequence(lambda n: float(n % 3))

    def test_flat_sequence_allowed_when_unflagged(self):
        seq = EigenSequence(lambda n: 0.0, strictly_increasing=False)
        assert seq(5) == 0.0

    def test_returns_float(self):
        seq = EigenSequence(lambda n: n * (n + 2))
        out = seq(3)
        assert isinstance(out, float)
        assert out == 15.0


class TestCheckResult:
    def test_passes_at_exact_tolerance(self):
        assert CheckResult("x", 1e-8, 1e-8).passed
        assert not CheckResult("x", 1.0000001e-8, 1e-8).passed

    def test_to_dict(self):
        d = CheckResult("ladder", 2e-9, 1e-8).to_dict()
        assert d == {
            "check": "ladder",
            "max_residual": 2e-9,
            "tolerance": 1e-8,
            "pass": True,
        }


class TestDiagnosticReport:
    def test_all_pass_and_serialization(self):
        report = DiagnosticReport(
            [CheckResult("a", 0.0, 1.0), CheckResult("b", 2.0, 1.0)],
            {"model": "toy"},
        )
        assert not report.all_pass
        parsed = json.loads(report.to_json())
        assert parsed["params_echo"] == {"model": "toy"}
        assert parsed["all_pass"] is False
        assert [c["check"] for c in parsed["checks"]] == ["a", "b"]


# ---------------------------------------------------------------------------
# individual checks


def degenerate_system():
    def zero(x):
        return np.zeros_like(np.asarray(x, dtype=float))

    def bump(x):
        x = np.asarray(x, dtype=float)
        return np.exp(-(x**2))

    return LadderSystem(
        label="degenerate",
        family_phi=lambda n: zero,
        family_psi=lambda n: bump,
        lower_a=lambda f: f,
        raise_b=lambda f: f,
        lower_b_dag=lambda f: f,
        raise_a_dag=lambda f: f,
        eigens=EigenSequence(lambda n: float(n)),
        inner=lambda f, g: 0.0 + 0.0j,
        gram=lambda fs, gs: np.zeros((len(fs), len(gs)), dtype=complex),
        default_grid=GridSpec.over(-1.0, 1.0, 101),
    )


class TestIndividualChecks:
    def test_degenerate_vacuum_rejected(self):
        with pytest.raises(ValueError, match="degenerate vacuum"):
            check_vacua(degenerate_system())

    def test_ladder_cap(self, harmonic):
        sys_h, _ = harmonic
        with pytest.raises(ValueError, match="capped"):
            check_ladder(sys_h, LADDER_N_MAX_CAP + 1)

    def test_biorthogonality_cap(self, harmonic):
        sys_h, _ = harmonic
        with pytest.raises(ValueError, match="capped"):
            check_biorthogonality(sys_h, LADDER_N_MAX_CAP + 1)

    def test_norm_cap(self, harmonic):
        sys_h, _ = harmonic
        with pytest.raises(ValueError, match="capped"):
            check_norm_growth(sys_h, NORM_N_MAX_CAP + 1)

    def test_ladder_passes_on_harmonic(self, harmonic):
        sys_h, _ = harmonic
        result = check_ladder(sys_h, 6)
        assert result.passed
        assert result.name == "ladder"

    def test_broken_ladder_fails(self, harmonic):
        sys_h, _ = harmonic
        broken = dataclasses.replace(
            sys_h, raise_b=lambda f: sys_h.raise_b(f).scaled(1.001)
        )
        result = check_ladder(broken, 4)
        assert not result.passed
        assert result.max_residual > 1e-4

    def test_biorthogonality_small_block(self, barrier):
        sys_b, _ = barrier
        result = check_biorthogonality(sys_b, 6)
        assert result.passed
        assert result.tolerance == ALGEBRAIC_TOL

    def test_quasi_basis_uses_both_resolutions(self, barrier):
        sys_b, _ = barrier
        result = check_quasi_basis(sys_b, sys_b.quasi_pairs, 40)
        assert result.passed

    def test_theta_returns_two_results(self, harmonic):
        sys_h, theta = harmonic
        results = check_theta_conjugacy(sys_h, theta, 4)
        assert [r.name for r in results] == ["theta_conjugacy", "theta_intertwining"]
        assert all(r.passed for r in results)

    def test_norm_growth_bounded_needs_bounds(self, barrier):
        sys_b, _ = barrier
        crippled = dataclasses.replace(sys_b, norm_bounds=None)
        with pytest.raises(ValueError, match="norm_bounds"):
            check_norm_growth(crippled, 0)

    def test_unknown_norm_behavior_rejected(self, barrier):
        sys_b, _ = barrier
        odd = dataclasses.replace(sys_b, norm_behavior="sideways")
        with pytest.raises(ValueError, match="sideways"):
            check_norm_growth(odd, 0)

    def test_constant_behavior_tightens_tolerance(self, market_beta0):
        sys_h, _ = harmonic_system(HarmonicParams(market_beta0))
        assert sys_h.norm_behavior == "constant"
        result = check_norm_growth(sys_h, 5)
        assert result.tolerance == 1e-10
        assert result.passed


# ---------------------------------------------------------------------------
# the Gram-matrix checks against pairwise adaptive quadrature


def gram_systems(market, market_beta0):
    return {
        "harmonic beta -0.75": harmonic_system(HarmonicParams(market))[0],
        "harmonic beta 0": harmonic_system(HarmonicParams(market_beta0))[0],
        "barrier (0, pi)": barrier_system(BarrierParams(market, 0.0, math.pi))[0],
    }


SYSTEM_NAMES = ["harmonic beta -0.75", "harmonic beta 0", "barrier (0, pi)"]


class TestGramChecks:
    """One Gram matrix per block against one adaptive quadrature per pair."""

    @pytest.mark.parametrize("name", SYSTEM_NAMES)
    def test_biorthogonality_matches_pairwise(self, market, market_beta0, name):
        sys_ = gram_systems(market, market_beta0)[name]
        n_max = LADDER_N_MAX_CAP
        phis = [sys_.family_phi(n) for n in range(n_max + 1)]
        psis = [sys_.family_psi(n) for n in range(n_max + 1)]
        gram = sys_.gram(phis, psis)
        pairwise = np.array([[sys_.inner(phi, psi) for psi in psis] for phi in phis])
        assert gram.shape == (n_max + 1, n_max + 1)
        assert np.max(np.abs(gram - pairwise)) <= 1e-13
        result = check_biorthogonality(sys_, n_max)
        assert result.passed
        assert result.max_residual == float(np.max(np.abs(gram - np.eye(n_max + 1))))
        assert abs(result.max_residual
                   - np.max(np.abs(pairwise - np.eye(n_max + 1)))) <= 1e-13

    @pytest.mark.parametrize("name", SYSTEM_NAMES)
    def test_quasi_basis_sums_match_pairwise(self, market, market_beta0, name):
        sys_ = gram_systems(market, market_beta0)[name]
        n_max = NORM_N_MAX_CAP
        worst = 0.0
        for f, g in sys_.quasi_pairs:
            direct = sys_.inner(f, g)
            total = mirrored = 0.0
            for n in range(n_max + 1):
                phi, psi = sys_.family_phi(n), sys_.family_psi(n)
                total += sys_.inner(f, phi) * sys_.inner(psi, g)
                mirrored += sys_.inner(f, psi) * sys_.inner(phi, g)
            worst = max(worst, abs(total - direct), abs(mirrored - direct))
        result = check_quasi_basis(sys_, sys_.quasi_pairs, n_max)
        assert result.passed
        assert abs(result.max_residual - worst) <= 1e-13

    def test_harmonic_block_needs_one_decay_rate(self, harmonic):
        sys_h, _ = harmonic
        narrow, wide = sys_h.test_functions[0], sys_h.test_functions[2]
        with pytest.raises(ValueError, match="decay rate"):
            sys_h.gram([narrow, wide], [sys_h.family_phi(0)])


# ---------------------------------------------------------------------------
# the full battery


EXPECTED_CHECKS = [
    "vacua",
    "ladder",
    "number_operator",
    "biorthogonality",
    "quasi_basis",
    "theta_conjugacy",
    "theta_intertwining",
    "norm_growth",
]


class TestRunAllChecks:
    def test_harmonic_exact_route(self, harmonic):
        sys_h, theta = harmonic
        report = run_all_checks(sys_h, theta, 8)
        assert [c.name for c in report.checks] == EXPECTED_CHECKS
        assert report.all_pass, report.to_json()
        assert report.params_echo == {"system": "harmonic/exact"}

    def test_barrier_battery(self, barrier):
        sys_b, theta = barrier
        report = run_all_checks(sys_b, theta, 8)
        assert report.all_pass, report.to_json()

    def test_grid_route_with_loosened_tolerances(self, market):
        sys_h, theta = harmonic_system(HarmonicParams(market), route="grid")
        report = run_all_checks(
            sys_h, theta, 6, ladder_tol=2e-5, grid_tol=1e-4, number_tol=1e-3
        )
        assert report.all_pass, report.to_json()

    def test_unknown_route_rejected(self, market):
        with pytest.raises(ValueError, match="route"):
            harmonic_system(HarmonicParams(market), route="fd")

    def test_params_echo_passthrough(self, harmonic):
        sys_h, theta = harmonic
        report = run_all_checks(sys_h, theta, 2, params_echo={"sigma": 0.2})
        assert report.params_echo == {"sigma": 0.2}

    def test_beta_zero_regime(self, market_beta0):
        sys_h, theta = harmonic_system(HarmonicParams(market_beta0))
        report = run_all_checks(sys_h, theta, 6)
        assert report.all_pass, report.to_json()
