"""Model-independent ladder harness: result types, individual checks, and the
full battery on both concrete models."""

import dataclasses
import json
import math
import tracemalloc
from functools import partial

import numpy as np
import pytest

from pbk import systems
from pbk.grids import GridFunction, GridSpec, apply_Theta, apply_Theta_inv
from pbk.market import MarketParams
from pbk.pb_core import (
    ALGEBRAIC_TOL,
    LADDER_N_MAX_CAP,
    NORM_N_MAX_CAP,
    CheckResult,
    DiagnosticReport,
    LadderSystem,
    check_biorthogonality,
    check_ladder,
    check_norm_growth,
    check_number_operator,
    check_quasi_basis,
    check_theta_conjugacy,
    check_vacua,
    run_all_checks,
)
from pbk import barrier as bar
from pbk import harmonic as har
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
    """A LadderSystem refuses an eigenvalue function that does not start at 0
    and increase strictly on n = 0..7."""

    def test_must_start_at_zero(self):
        with pytest.raises(ValueError, match="start at 0"):
            degenerate_system(eigens=lambda n: n + 1.0)

    def test_monotonicity_enforced_when_flagged(self):
        with pytest.raises(ValueError, match="increasing"):
            degenerate_system(eigens=lambda n: n % 3 * 1.0)

    def test_returns_float(self, market, harmonic, barrier):
        # one function of an int or an int array, equal entry by entry
        n = np.arange(6)
        bp = BarrierParams(market, 0.0, math.pi)
        for system, scalar in ((harmonic, float), (barrier, partial(bar.rho_coefficient, bp))):
            block = system.eigens(n)
            assert block.dtype == float
            for k in n:
                assert isinstance(system.eigens(int(k)), float)
                assert system.eigens(int(k)) == block[k] == scalar(int(k))


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

    @pytest.mark.parametrize("residual", [math.nan, math.inf])
    def test_non_finite_residual_names_the_check(self, residual):
        with pytest.raises(ValueError, match="the ladder check's residual is not finite"):
            CheckResult("ladder", residual, 1e-8)


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
        with pytest.raises(ValueError, match="not JSON compliant"):
            DiagnosticReport(report.checks, {"beta": math.nan}).to_json()


# ---------------------------------------------------------------------------
# individual checks


def degenerate_system(eigens=lambda n: n * 1.0):
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
        eigens=eigens,
        inner=lambda f, g: 0.0 + 0.0j,
        gram=lambda fs, gs: np.zeros((len(fs), len(gs)), dtype=complex),
        beta=0.0,
        norm_residual=lambda products: 0.0,
        default_grid=GridSpec.over(-1.0, 1.0, 101),
    )


class TestIndividualChecks:
    def test_degenerate_vacuum_rejected(self):
        with pytest.raises(ValueError, match="degenerate vacuum"):
            check_vacua(degenerate_system())

    def test_ladder_cap(self, harmonic):
        sys_h = harmonic
        with pytest.raises(ValueError, match="capped"):
            check_ladder(sys_h, LADDER_N_MAX_CAP + 1)

    def test_biorthogonality_cap(self, harmonic):
        sys_h = harmonic
        with pytest.raises(ValueError, match="capped"):
            check_biorthogonality(sys_h, LADDER_N_MAX_CAP + 1)

    def test_norm_cap(self, harmonic):
        sys_h = harmonic
        with pytest.raises(ValueError, match="capped"):
            check_norm_growth(sys_h, NORM_N_MAX_CAP + 1)

    def test_ladder_passes_on_harmonic(self, harmonic):
        sys_h = harmonic
        result = check_ladder(sys_h, 6)
        assert result.passed
        assert result.name == "ladder"

    def test_broken_ladder_fails(self, harmonic):
        sys_h = harmonic

        def raise_b_off(f):
            out = sys_h.raise_b(f)
            return dataclasses.replace(out, coeffs=1.001 * out.coeffs)

        broken = dataclasses.replace(sys_h, raise_b=raise_b_off)
        result = check_ladder(broken, 4)
        assert not result.passed
        assert result.max_residual > 1e-4

    def test_biorthogonality_small_block(self, barrier):
        sys_b = barrier
        result = check_biorthogonality(sys_b, 6)
        assert result.passed
        assert result.tolerance == ALGEBRAIC_TOL

    def test_quasi_basis_uses_both_resolutions(self, barrier):
        sys_b = barrier
        result = check_quasi_basis(sys_b, sys_b.quasi_pairs, 40)
        assert result.passed

    def test_theta_returns_two_results(self, harmonic):
        results = check_theta_conjugacy(harmonic, 4)
        assert [r.name for r in results] == ["theta_conjugacy", "theta_intertwining"]
        assert all(r.passed for r in results)
        # the metric image of a test function keeps its Gaussian rate, which
        # picks the quadrature of <f, Theta f>
        x = np.linspace(-2.0, 2.0, 41)
        for f in harmonic.test_functions:
            image = apply_Theta(harmonic, f)
            assert isinstance(image, systems.TestFunction)
            assert image.gaussian_decay_rate == f.gaussian_decay_rate
            np.testing.assert_array_equal(image(x), np.exp(-2.0 * harmonic.beta * x) * f(x))

    @pytest.mark.parametrize("case", ["harmonic", "harmonic-beta0", "barrier"])
    def test_nan_norm_product_is_refused(self, market, market_beta0, case):
        # max(0.0, nan) is 0.0 in Python: the rules used to pass a NaN product as 0
        system = {"harmonic": lambda: harmonic_system(HarmonicParams(market)),
                  "harmonic-beta0": lambda: harmonic_system(HarmonicParams(market_beta0)),
                  "barrier": lambda: barrier_system(BarrierParams(market, 0.0, math.pi)),
                  }[case]()
        for products in ([1.0, math.nan], [math.nan, 1.0], [math.nan, math.nan]):
            assert math.isnan(system.norm_residual(np.array(products)))
        nan_norms = dataclasses.replace(system, inner=lambda f, g: np.array([1.0, math.nan]))
        with pytest.raises(ValueError, match="the norm_growth check's residual is not finite"):
            check_norm_growth(nan_norms, 1)

    def test_constant_behavior_tightens_tolerance(self, market_beta0):
        sys_h = harmonic_system(HarmonicParams(market_beta0))
        assert sys_h.norm_residual(np.array([1.0, 1.5])) == 0.5  # |p - 1|
        result = check_norm_growth(sys_h, 5)
        assert result.tolerance == 1e-10
        assert result.passed


# ---------------------------------------------------------------------------
# block checks against the per-member loop they replace


def build_systems(market, market_beta0):
    """name -> (system, member): member(family, n) is one family function."""
    out = {}
    for label, mkt in (("beta -0.75", market), ("beta 0", market_beta0)):
        hp = HarmonicParams(mkt)
        for route in ("exact", "grid"):
            out[f"harmonic {route} {label}"] = (
                harmonic_system(hp, route=route),
                lambda family, n, _p=hp: (har.varphi_n, har.psi_n)[family](_p, n))
        bp = BarrierParams(mkt, 0.0, math.pi)
        out[f"barrier (0, pi) {label}"] = (
            barrier_system(bp),
            lambda family, n, _p=bp: (bar.varphi_n, bar.psi_n)[family](_p, n))
    return out


BLOCK_NAMES = [f"{model} {label}" for label in ("beta -0.75", "beta 0")
               for model in ("harmonic exact", "harmonic grid", "barrier (0, pi)")]


def oracle_samples(out, grid):
    if isinstance(out, GridFunction):
        return out.x, out.samples, out.dx
    return grid.points, np.asarray(out(grid.points)), grid.dx


def oracle_norm(values, dx):
    return math.sqrt(dx * np.sum(np.abs(values) ** 2))


def oracle_residual(out, coeff, target, grid):
    """|| out - coeff * target || / || target || for one function, on out's grid."""
    x, lhs, dx = oracle_samples(out, grid)
    ref = np.asarray(target(x))
    return oracle_norm(lhs - coeff * ref, dx) / oracle_norm(ref, dx)


def oracle_checks(sys_, member, n_max):
    """Each block check's worst residual, one family member at a time."""
    grid = sys_.default_grid
    phi = lambda n: member(0, n)  # noqa: E731
    psi = lambda n: member(1, n)  # noqa: E731
    e = sys_.eigens
    vacua = max(oracle_residual(sys_.lower_a(phi(0)), 0.0, phi(0), grid),
                oracle_residual(sys_.lower_b_dag(psi(0)), 0.0, psi(0), grid))
    ladder = number = conjugacy = 0.0
    for n in range(n_max + 1):
        up, down = math.sqrt(e(n + 1)), math.sqrt(e(n))
        ladder = max(
            ladder,
            oracle_residual(sys_.raise_b(phi(n)), up, phi(n + 1), grid),
            oracle_residual(sys_.raise_a_dag(psi(n)), up, psi(n + 1), grid),
            oracle_residual(sys_.lower_a(phi(n)), down, phi(max(n - 1, 0)), grid),
            oracle_residual(sys_.lower_b_dag(psi(n)), down, psi(max(n - 1, 0)), grid),
        )
        number = max(
            number,
            oracle_residual(sys_.raise_b(sys_.lower_a(phi(n))), e(n), phi(n), grid),
            oracle_residual(sys_.raise_a_dag(sys_.lower_b_dag(psi(n))), e(n), psi(n), grid),
        )
        conjugacy = max(conjugacy, oracle_residual(apply_Theta(sys_, phi(n)), 1.0, psi(n), grid))
    families_only = conjugacy
    intertwining = 0.0
    for f in sys_.test_functions:
        roundtrip = apply_Theta_inv(sys_, apply_Theta(sys_, f))
        conjugacy = max(conjugacy, oracle_residual(roundtrip, 1.0, f, grid))
        val = sys_.inner(f, apply_Theta(sys_, f))
        scale = abs(sys_.inner(f, f))
        if val.real <= 0.0:
            conjugacy = max(conjugacy, abs(val.real) / scale + ALGEBRAIC_TOL)
        conjugacy = max(conjugacy, abs(val.imag) / scale)
        x, left, dx = oracle_samples(apply_Theta(sys_, sys_.raise_b(sys_.lower_a(f))), grid)
        _, right, _ = oracle_samples(
            sys_.raise_a_dag(sys_.lower_b_dag(apply_Theta(sys_, f))), grid)
        intertwining = max(intertwining, oracle_norm(left - right, dx) / oracle_norm(f(x), dx))
    norms = np.array([[math.sqrt(abs(sys_.inner(member(k, n), member(k, n))))
                       for n in range(n_max + 1)] for k in (0, 1)])
    return {"vacua": vacua, "ladder": ladder, "number_operator": number,
            "families_conjugacy": families_only, "conjugacy": conjugacy,
            "intertwining": intertwining, "norm_products": norms[0] * norms[1]}


class TestBlocksMatchPerMember:
    N_MAX = 12

    @pytest.fixture(scope="class")
    def cases(self, market, market_beta0):
        systems = build_systems(market, market_beta0)
        return {name: systems[name] + (oracle_checks(*systems[name], self.N_MAX),)
                for name in BLOCK_NAMES}

    @staticmethod
    def close(name, block, oracle):
        # finite-difference figures agree relatively, algebraic ones absolutely
        bound = 1e-8 * abs(oracle) if "grid" in name else 1e-13
        return abs(block - oracle) <= bound

    @pytest.mark.parametrize("name", BLOCK_NAMES)
    def test_operator_checks(self, cases, name):
        sys_, _, oracle = cases[name]
        n = self.N_MAX
        assert self.close(name, check_vacua(sys_).max_residual, oracle["vacua"])
        assert self.close(name, check_ladder(sys_, n).max_residual, oracle["ladder"])
        number = check_number_operator(sys_, n).max_residual
        if name.startswith("barrier"):
            # B_hat A_hat scales the analysis rounding of mode k by rho_k ~ k^2, so
            # this residual (about 5e-10) is a rounding floor: the block's matrix
            # products sum in another order and move it by a few parts in 1e4
            assert abs(number - oracle["number_operator"]) <= 1e-3 * oracle["number_operator"]
        else:
            assert self.close(name, number, oracle["number_operator"])
        # the family part alone, then with the test functions as one block
        families_only = dataclasses.replace(sys_, test_functions=())
        conjugacy = check_theta_conjugacy(families_only, n)[0].max_residual
        assert abs(conjugacy - oracle["families_conjugacy"]) <= 1e-13
        conjugacy, intertwining = (c.max_residual for c in check_theta_conjugacy(sys_, n))
        assert abs(conjugacy - oracle["conjugacy"]) <= 1e-13
        if name.startswith("barrier"):
            # a difference of two analysis chains, about 5e-12: a rounding floor too
            assert abs(intertwining - oracle["intertwining"]) <= 1e-12
        else:
            assert self.close(name, intertwining, oracle["intertwining"])

    @pytest.mark.parametrize("name", BLOCK_NAMES)
    def test_norms_from_gram_diagonals(self, market, cases, name):
        sys_, _, oracle = cases[name]
        n = self.N_MAX
        products = oracle["norm_products"]
        for family in (sys_.family_phi(n), sys_.family_psi(n)):
            products = products / np.sqrt(np.abs(np.diagonal(sys_.gram([family], [family]))))
        assert np.max(np.abs(products - 1.0)) <= 1e-13
        if name.startswith("harmonic") and "beta -0.75" in name:
            hp = HarmonicParams(market)
            law = np.array([math.sqrt(har.norm_squared_law(hp, k, "varphi")
                                      * har.norm_squared_law(hp, k, "psi"))
                            for k in range(n + 1)])
            worst = np.max(np.abs(oracle["norm_products"] - law) / law)
            assert abs(check_norm_growth(sys_, n).max_residual - worst) <= 1e-13


# ---------------------------------------------------------------------------
# the Gram-matrix checks against pairwise adaptive quadrature


GRAM_SYSTEMS = {"harmonic beta -0.75": "harmonic exact beta -0.75",
                "harmonic beta 0": "harmonic exact beta 0",
                "barrier (0, pi)": "barrier (0, pi) beta -0.75"}


class TestGramChecks:
    """One Gram matrix per block against one adaptive quadrature per pair."""

    @pytest.mark.parametrize("name", GRAM_SYSTEMS)
    def test_biorthogonality_matches_pairwise(self, market, market_beta0, name):
        sys_, member = build_systems(market, market_beta0)[GRAM_SYSTEMS[name]]
        n_max = LADDER_N_MAX_CAP
        phis = [member(0, n) for n in range(n_max + 1)]
        psis = [member(1, n) for n in range(n_max + 1)]
        gram = sys_.gram(phis, psis)
        pairwise = np.array([[sys_.inner(phi, psi) for psi in psis] for phi in phis])
        assert gram.shape == (n_max + 1, n_max + 1)
        assert np.max(np.abs(gram - pairwise)) <= 1e-13
        result = check_biorthogonality(sys_, n_max)
        assert result.passed
        assert abs(result.max_residual
                   - np.max(np.abs(pairwise - np.eye(n_max + 1)))) <= 1e-13

    @pytest.mark.parametrize("name", GRAM_SYSTEMS)
    def test_quasi_basis_sums_match_pairwise(self, market, market_beta0, name):
        sys_, member = build_systems(market, market_beta0)[GRAM_SYSTEMS[name]]
        n_max = NORM_N_MAX_CAP
        worst = 0.0
        for f, g in sys_.quasi_pairs:
            direct = sys_.inner(f, g)
            total = mirrored = 0.0
            for n in range(n_max + 1):
                phi, psi = member(0, n), member(1, n)
                total += sys_.inner(f, phi) * sys_.inner(psi, g)
                mirrored += sys_.inner(f, psi) * sys_.inner(phi, g)
            worst = max(worst, abs(total - direct), abs(mirrored - direct))
        result = check_quasi_basis(sys_, sys_.quasi_pairs, n_max)
        assert result.passed
        assert abs(result.max_residual - worst) <= 1e-13

    def test_harmonic_block_needs_one_decay_rate(self, harmonic):
        sys_h = harmonic
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
        sys_h = harmonic
        report = run_all_checks(sys_h, 8)
        assert [c.name for c in report.checks] == EXPECTED_CHECKS
        assert report.all_pass, report.to_json()
        assert report.params_echo == {"system": "harmonic/exact"}

    def test_barrier_battery(self, barrier):
        report = run_all_checks(barrier, 8)
        assert report.all_pass, report.to_json()

    def test_grid_route_with_loosened_tolerances(self, market):
        report = run_all_checks(harmonic_system(HarmonicParams(market), route="grid"), 6)
        assert report.all_pass, report.to_json()

    def test_unknown_route_rejected(self, market):
        with pytest.raises(ValueError, match="route"):
            harmonic_system(HarmonicParams(market), route="fd")

    def test_params_echo_passthrough(self, harmonic):
        report = run_all_checks(harmonic, 2, params_echo={"sigma": 0.2})
        assert report.params_echo == {"sigma": 0.2}

    @pytest.mark.parametrize("model, tols", [
        ("harmonic/exact", {}),
        ("harmonic/grid", {"ladder": 2e-5, "vacua": 1e-4, "theta_intertwining": 1e-4,
                           "number_operator": 1e-3}),
        ("barrier", {}),
    ])
    def test_report_repeats_exactly(self, market, model, tols):
        # tols: the entries the system's own tolerances override
        def report():
            if model == "barrier":
                system = barrier_system(BarrierParams(market, 0.0, 2.74))
            else:
                route = model.split("/")[1]
                system = harmonic_system(HarmonicParams(market, 0.36), route=route)
            assert system.tolerances == tols
            return run_all_checks(system, 6).to_json()

        first = report()
        assert '"all_pass": true' in first
        assert report() == first

    def test_grid_route_holds_at_most_four_operator_grid_blocks(self, market):
        # a block is 22 rows x 32001 points; the system's table on the operator
        # grid is one, held in a mapping of its own that tracemalloc does not see
        block = 22 * har.OPERATOR_GRID_POINTS * 8
        system = harmonic_system(HarmonicParams(market), route="grid")
        run_all_checks(system, 20)  # rules and lazily imported modules are not counted
        system = harmonic_system(HarmonicParams(market), route="grid")
        tracemalloc.start()
        try:
            run_all_checks(system, 20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak + block <= 4 * block

    def test_beta_zero_regime(self, market_beta0):
        report = run_all_checks(harmonic_system(HarmonicParams(market_beta0)), 6)
        assert report.all_pass, report.to_json()
