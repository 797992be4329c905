"""Model-independent ladder harness: result types, individual checks, and the
full battery on both concrete models."""

import dataclasses
import json
import math
import tracemalloc
from functools import partial

import numpy as np
import pytest

from pbk import grids, pb_core
from pbk.grids import (Expansion, GridFunction, GridSpec, apply_Theta, apply_Theta_inv,
                       unit_coefficients)
from pbk.market import MarketParams
from pbk.pb_core import (
    ALGEBRAIC_TOL,
    LADDER_N_MAX_CAP,
    NORM_N_MAX_CAP,
    TEST_COMBOS,
    CheckResult,
    DiagnosticReport,
    LadderSystem,
    _residual,
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
from pbk.quadrature import inner_product, legendre_rule
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


class FlatExpansion(Expansion):
    """Untilted coefficients of an orthonormal family: every moment matrix is I."""

    def moments(self, s, n):
        return np.eye(n)


def degenerate_system(eigens=lambda n: n * 1.0):
    """A system whose every expansion, the families included, has all zero
    coefficients."""
    return LadderSystem(
        label="degenerate",
        expansion=lambda tilt, coeffs: FlatExpansion(None, tilt, np.zeros(np.shape(coeffs))),
        lower_a=lambda f: f,
        raise_b=lambda f: f,
        lower_b_dag=lambda f: f,
        raise_a_dag=lambda f: f,
        eigens=eigens,
        beta=0.0,
        norm_residual=lambda products: 0.0,
    )


def with_psi_off(system):
    """system with its psi family at tilt -1.001 beta: every expansion it
    builds at tilt -beta is tilted by -0.001 beta more."""
    expansion = system.expansion

    def off(tilt, coeffs):
        out = expansion(tilt, coeffs)
        return out.tilted(-0.001 * system.beta) if tilt == -system.beta else out

    return dataclasses.replace(system, expansion=off)


class TestIndividualChecks:
    def test_degenerate_vacuum_rejected(self):
        with pytest.raises(ValueError, match="degenerate reference function with zero norm"):
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

    @pytest.mark.parametrize("model", ["harmonic", "barrier"])
    def test_broken_ladder_fails(self, request, model):
        system = request.getfixturevalue(model)

        def raise_b_off(f):
            out = system.raise_b(f)
            return dataclasses.replace(out, coeffs=1.001 * out.coeffs)

        broken = dataclasses.replace(system, raise_b=raise_b_off)
        result = check_ladder(broken, 4)
        assert not result.passed
        assert result.max_residual > 1e-4
        # the intertwining is coefficient algebra, 0.0 when the maps are
        # right, and it still sees the broken one
        assert check_theta_conjugacy(system, 4)[1].max_residual == 0.0
        intertwining = check_theta_conjugacy(broken, 4)[1]
        assert not intertwining.passed
        assert intertwining.max_residual > 1e-3

    @pytest.mark.parametrize("model", ["harmonic", "barrier"])
    def test_maps_keep_the_expansion_class_and_tilt(self, request, model):
        # both models' maps act on an expansion's coefficients at its own tilt;
        # raising adds exactly one coefficient, so nothing is dropped
        system = request.getfixturevalue(model)
        phi_side = (system.family_phi(6), system.test_functions)
        psi_side = (system.family_psi(6), apply_Theta(system, system.test_functions))
        for op, inputs, raises in ((system.lower_a, phi_side, False),
                                   (system.raise_b, phi_side, True),
                                   (system.lower_b_dag, psi_side, False),
                                   (system.raise_a_dag, psi_side, True)):
            for f in inputs:
                out = op(f)
                assert type(out) is type(f) and out.tilt == f.tilt
                assert out.coeffs.shape[:-1] == f.coeffs.shape[:-1]
                if raises:
                    assert out.coeffs.shape[-1] == f.coeffs.shape[-1] + 1

    @pytest.mark.parametrize("model", ["harmonic", "barrier"])
    def test_residual_across_tilts_is_refused(self, request, model):
        # Theta phi_n has tilt -beta and this psi family -1.001 beta: their
        # residual would need the norm of a sum of two tilts, and is refused
        system = request.getfixturevalue(model)
        off = with_psi_off(system)
        assert off.family_psi(4).tilt == pytest.approx(-1.001 * system.beta, rel=1e-15)
        with pytest.raises(ValueError, match="needs a reference of its tilt"):
            check_theta_conjugacy(off, 4)

    def test_residual_across_grids_is_refused(self, market):
        system = harmonic_system(HarmonicParams(market), route="grid")
        tests = system.test_functions
        left = apply_Theta(system, system.raise_b(system.lower_a(tests)))
        right = system.raise_a_dag(system.lower_b_dag(apply_Theta(system, tests)))
        assert _residual(left, 1.0, right, scale=tests) < 1e-6
        with pytest.raises(ValueError, match="on different grids"):
            _residual(left, 1.0, right.interior(1), scale=tests)

    @pytest.mark.parametrize("route", ["exact", "grid"])
    def test_broken_family_fails_biorthogonality(self, market, route):
        # in coefficient space M(0) is the identity, so the figure reads 0.0,
        # and a psi family tilted by -1.001 beta still fails
        system = harmonic_system(HarmonicParams(market), route)
        assert check_biorthogonality(system, LADDER_N_MAX_CAP).max_residual == 0.0
        result = check_biorthogonality(with_psi_off(system), LADDER_N_MAX_CAP)
        assert not result.passed
        assert result.max_residual > 1e-4

    def test_biorthogonality_small_block(self, barrier):
        sys_b = barrier
        result = check_biorthogonality(sys_b, 6)
        assert result.passed
        assert result.tolerance == ALGEBRAIC_TOL

    def test_quasi_basis_uses_both_resolutions(self, barrier):
        sys_b = barrier
        result = check_quasi_basis(sys_b, 40)
        assert result.passed

    def test_theta_returns_two_results(self, monkeypatch, harmonic):
        results = check_theta_conjugacy(harmonic, 4)
        assert [r.name for r in results] == ["theta_conjugacy", "theta_intertwining"]
        assert all(r.passed for r in results)
        # the test block is the varphi-combinations as one expansion, and its
        # metric image the same coefficients at tilt -beta
        tests = harmonic.test_functions
        image = apply_Theta(harmonic, tests)
        assert isinstance(image, har.HermiteExpansion)
        assert (tests.tilt, image.tilt) == (harmonic.beta, -harmonic.beta)
        np.testing.assert_array_equal(tests.coeffs, np.array(TEST_COMBOS))
        np.testing.assert_array_equal(image.coeffs, tests.coeffs)
        x = np.linspace(-2.0, 2.0, 41)
        np.testing.assert_allclose(image(x), np.exp(-2.0 * harmonic.beta * x) * tests(x),
                                   rtol=1e-14, atol=0.0)
        # positivity pairs the rows: one row with <f, Theta f> <= 0 fails the
        # check, by |<f, Theta f>| / <f, f> + tolerance. <f, Theta f> is the
        # battery's only product across tilts
        val, scale = grids.inner(tests, image), grids.inner(tests, tests).real

        def one_negative(f, g):
            out = grids.inner(f, g)
            return out * np.array([1.0, -1.0, 1.0]) if f.tilt != g.tilt else out

        monkeypatch.setattr(pb_core, "inner", one_negative)
        result = check_theta_conjugacy(harmonic, 4)[0]
        assert not result.passed
        assert result.max_residual == pytest.approx(val[1].real / scale[1] + ALGEBRAIC_TOL,
                                                     rel=1e-14)

    @pytest.mark.parametrize("case", ["harmonic", "harmonic-beta0", "barrier"])
    def test_nan_norm_product_is_refused(self, monkeypatch, market, market_beta0, case):
        # max(0.0, nan) is 0.0 in Python: the rules used to pass a NaN product as 0
        system = {"harmonic": lambda: harmonic_system(HarmonicParams(market)),
                  "harmonic-beta0": lambda: harmonic_system(HarmonicParams(market_beta0)),
                  "barrier": lambda: barrier_system(BarrierParams(market, 0.0, math.pi)),
                  }[case]()
        for products in ([1.0, math.nan], [math.nan, 1.0], [math.nan, math.nan]):
            assert math.isnan(system.norm_residual(np.array(products)))
        monkeypatch.setattr(pb_core, "inner", lambda f, g: np.array([1.0, math.nan]))
        with pytest.raises(ValueError, match="the norm_growth check's residual is not finite"):
            check_norm_growth(system, 1)

    def test_constant_behavior_tightens_tolerance(self, market_beta0):
        sys_h = harmonic_system(HarmonicParams(market_beta0))
        assert sys_h.norm_residual(np.array([1.0, 1.5])) == 0.5  # |p - 1|
        result = check_norm_growth(sys_h, 5)
        assert result.tolerance == 1e-10
        assert result.passed


# ---------------------------------------------------------------------------
# block checks against the per-member loop they replace


ORACLE_GRID_POINTS = 4001  # the barrier oracle's grid on (a, b)


def build_systems(market, market_beta0):
    """name -> (system, member, inner, grid): member(family, n) is one family
    function, inner(f, g) the inner product the per-member loops take, and
    grid the one they sample expansions on for their residual norms.

    The harmonic loops take grids.inner, the battery's own inner product,
    and the operator grid; the barrier loops take a 512-node Gauss-Legendre
    rule on (a, b) of the sampled functions and a grid of their own on
    (a, b), and their members are sine expansions, which the barrier maps
    analyze."""
    out = {}
    for label, mkt in (("beta -0.75", market), ("beta 0", market_beta0)):
        hp = HarmonicParams(mkt)
        for route in ("exact", "grid"):
            system = harmonic_system(hp, route=route)
            out[f"harmonic {route} {label}"] = (
                system, lambda family, n, _p=hp: (har.varphi_n, har.psi_n)[family](_p, n),
                grids.inner, har.operator_grid(hp))
        bp = BarrierParams(mkt, 0.0, math.pi)
        out[f"barrier (0, pi) {label}"] = (
            barrier_system(bp),
            lambda family, n, _p=bp: bar.SineExpansion(
                _p, (1.0, -1.0)[family] * _p.beta, unit_coefficients(n, bar.MAX_SINE_MODES)),
            partial(inner_product, rule=legendre_rule(512, bp.a, bp.b)),
            GridSpec.over(bp.a, bp.b, ORACLE_GRID_POINTS))
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


def block_rows(tests):
    """The test block's functions one at a time: its coefficient rows."""
    return [tests.with_coeffs(row) for row in tests.coeffs]


def oracle_checks(sys_, member, inner, grid, n_max):
    """Each block check's worst residual, one family member at a time, from
    samples on grid (an operator output on a grid of its own, on that)."""
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
    for f in block_rows(sys_.test_functions):
        roundtrip = apply_Theta_inv(sys_, apply_Theta(sys_, f))
        conjugacy = max(conjugacy, oracle_residual(roundtrip, 1.0, f, grid))
        val = inner(f, apply_Theta(sys_, f))
        scale = abs(inner(f, f))
        if val.real <= 0.0:
            conjugacy = max(conjugacy, abs(val.real) / scale + ALGEBRAIC_TOL)
        conjugacy = max(conjugacy, abs(val.imag) / scale)
        x, left, dx = oracle_samples(apply_Theta(sys_, sys_.raise_b(sys_.lower_a(f))), grid)
        _, right, _ = oracle_samples(
            sys_.raise_a_dag(sys_.lower_b_dag(apply_Theta(sys_, f))), grid)
        intertwining = max(intertwining, oracle_norm(left - right, dx) / oracle_norm(f(x), dx))
    norms = np.array([[math.sqrt(abs(inner(member(k, n), member(k, n))))
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
        # finite-difference figures agree relatively down to a rounding floor (they
        # are about 1e-9, and the two sums part by under 1e-15), algebraic ones absolutely
        bound = max(1e-8 * abs(oracle), 1e-14) if "grid" in name else 1e-13
        return abs(block - oracle) <= bound

    @pytest.mark.parametrize("name", BLOCK_NAMES)
    def test_operator_checks(self, cases, name):
        sys_, _, _, _, oracle = cases[name]
        n = self.N_MAX
        assert self.close(name, check_vacua(sys_).max_residual, oracle["vacua"])
        assert self.close(name, check_ladder(sys_, n).max_residual, oracle["ladder"])
        # the barrier maps shift coefficients, so its figures are rounding alone:
        # ladder 0 and number_operator 1.4e-14 in coefficient space, about
        # 1.3e-15 and 1.7e-14 on the oracle's grid
        assert self.close(name, check_number_operator(sys_, n).max_residual,
                          oracle["number_operator"])
        # the family part alone, then with the test block
        families_only = _residual(apply_Theta(sys_, sys_.family_phi(n)), 1.0, sys_.family_psi(n))
        assert abs(families_only - oracle["families_conjugacy"]) <= 1e-13
        conjugacy, intertwining = (c.max_residual for c in check_theta_conjugacy(sys_, n))
        assert abs(conjugacy - oracle["conjugacy"]) <= 1e-13
        assert self.close(name, intertwining, oracle["intertwining"])

    @pytest.mark.parametrize("name", BLOCK_NAMES)
    def test_norms_from_gram_diagonals(self, market, cases, name):
        sys_, _, _, _, oracle = cases[name]
        n = self.N_MAX
        products = oracle["norm_products"]
        for family in (sys_.family_phi(n), sys_.family_psi(n)):
            products = products / np.sqrt(np.abs(np.diagonal(grids.gram([family], [family]))))
        assert np.max(np.abs(products - 1.0)) <= 1e-13
        if name.startswith("harmonic") and "beta -0.75" in name:
            hp = HarmonicParams(market)
            law = np.array([math.sqrt(har.norm_squared_law(hp, k, "varphi")
                                      * har.norm_squared_law(hp, k, "psi"))
                            for k in range(n + 1)])
            worst = np.max(np.abs(oracle["norm_products"] - law) / law)
            assert abs(check_norm_growth(sys_, n).max_residual - worst) <= 1e-13


# ---------------------------------------------------------------------------
# the Gram-matrix checks against pairwise inner products


GRAM_SYSTEMS = {"harmonic beta -0.75": "harmonic exact beta -0.75",
                "harmonic beta 0": "harmonic exact beta 0",
                "barrier (0, pi)": "barrier (0, pi) beta -0.75"}


class TestGramChecks:
    """One Gram matrix per block against one inner product per pair: the
    system's own on the harmonic model, the Gauss-Legendre oracle rule of
    build_systems on the barrier."""

    @pytest.mark.parametrize("name", GRAM_SYSTEMS)
    def test_biorthogonality_matches_pairwise(self, market, market_beta0, name):
        sys_, member, inner, _ = build_systems(market, market_beta0)[GRAM_SYSTEMS[name]]
        n_max = LADDER_N_MAX_CAP
        phis = [member(0, n) for n in range(n_max + 1)]
        psis = [member(1, n) for n in range(n_max + 1)]
        gram = grids.gram(phis, psis)
        pairwise = np.array([[inner(phi, psi) for psi in psis] for phi in phis])
        assert gram.shape == (n_max + 1, n_max + 1)
        assert np.max(np.abs(gram - pairwise)) <= 1e-13
        result = check_biorthogonality(sys_, n_max)
        assert result.passed
        assert abs(result.max_residual
                   - np.max(np.abs(pairwise - np.eye(n_max + 1)))) <= 1e-13

    @pytest.mark.parametrize("name", GRAM_SYSTEMS)
    def test_quasi_basis_sums_match_pairwise(self, market, market_beta0, name):
        sys_, member, inner, _ = build_systems(market, market_beta0)[GRAM_SYSTEMS[name]]
        n_max = NORM_N_MAX_CAP
        worst = 0.0
        for f, g in sys_.quasi_pairs:
            direct = inner(f, g)
            total = mirrored = 0.0
            for n in range(n_max + 1):
                phi, psi = member(0, n), member(1, n)
                total += inner(f, phi) * inner(psi, g)
                mirrored += inner(f, psi) * inner(phi, g)
            worst = max(worst, abs(total - direct), abs(mirrored - direct))
        result = check_quasi_basis(sys_, n_max)
        assert result.passed
        assert abs(result.max_residual - worst) <= 1e-13


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
        ("harmonic/grid", {"ladder": 1e-6}),
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
        # the bound is in bytes: four blocks of 22 rows x 1001 points, 8 bytes
        # a sample, on the 1001-point grid, which peaks at 513,682 B. The
        # system's table on the operator grid is held in a mapping of its own
        # that tracemalloc does not see
        bound = 4 * 22 * 1001 * 8  # 704,704 B
        system = harmonic_system(HarmonicParams(market), route="grid")
        run_all_checks(system, 20)  # rules and lazily imported modules are not counted
        system = harmonic_system(HarmonicParams(market), route="grid")
        tracemalloc.start()
        try:
            run_all_checks(system, 20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound

    def test_beta_zero_regime(self, market_beta0):
        report = run_all_checks(harmonic_system(HarmonicParams(market_beta0)), 6)
        assert report.all_pass, report.to_json()


# ---------------------------------------------------------------------------
# a system of no model: the harness needs nothing beyond its contract


def lower_by_root(f):
    """c_k -> sqrt(k + 1) c_{k+1}, at the input's length (top coefficient 0)."""
    out = np.zeros(f.coeffs.shape)
    out[..., :-1] = np.sqrt(np.arange(1, f.coeffs.shape[-1])) * f.coeffs[..., 1:]
    return f.with_coeffs(out)


def raise_by_root(f):
    """c_k -> sqrt(k) c_{k-1}, one coefficient longer."""
    out = np.zeros(f.coeffs.shape[:-1] + (f.coeffs.shape[-1] + 1,))
    out[..., 1:] = np.sqrt(np.arange(1, f.coeffs.shape[-1] + 1)) * f.coeffs
    return f.with_coeffs(out)


def test_battery_runs_on_a_system_of_no_model():
    # an orthonormal family at beta 0 under the boson ladder: FlatExpansion's
    # identity moments, square-root shifts, e_n = n and the rule |p - 1|.
    # Every figure is 0.0 but the number operator's, sqrt(n) sqrt(n) - n
    system = LadderSystem(
        label="flat",
        expansion=partial(FlatExpansion, None),
        lower_a=lower_by_root,
        raise_b=raise_by_root,
        lower_b_dag=lower_by_root,
        raise_a_dag=raise_by_root,
        eigens=lambda n: n * 1.0,
        beta=0.0,
        norm_residual=lambda products: float(np.max(np.abs(products - 1.0))),
    )
    report = run_all_checks(system, 20)
    assert [c.name for c in report.checks] == EXPECTED_CHECKS
    assert report.all_pass, report.to_json()
    figures = {c.name: c.max_residual for c in report.checks}
    assert figures.pop("number_operator") <= 1e-14
    assert set(figures.values()) == {0.0}


# ---------------------------------------------------------------------------
# moment matrices shared for a system's lifetime

SYSTEMS = {
    "harmonic/exact": (har, lambda m: harmonic_system(HarmonicParams(m, 0.36), "exact")),
    "harmonic/grid": (har, lambda m: harmonic_system(HarmonicParams(m, 0.36), "grid")),
    "barrier": (bar, lambda m: barrier_system(BarrierParams(m, 0.0, 2.74))),
}


class TestSharedMoments:
    @staticmethod
    def count_builds(monkeypatch, module):
        """Every (s, n) the module's moments is called with, as systems build
        them: a stacked build's s as a tuple of its tilts."""
        builds = []
        original = module.moments

        def counted(params, s, n):
            builds.append((tuple(s.tolist()) if np.ndim(s) else s, n))
            return original(params, s, n)

        monkeypatch.setattr(module, "moments", counted)
        return builds

    @pytest.mark.parametrize("model", list(SYSTEMS))
    def test_each_tilt_is_built_once_per_system(self, monkeypatch, market, model):
        module, build = SYSTEMS[model]
        builds = self.count_builds(monkeypatch, module)
        system = build(market)
        first = run_all_checks(system, 20).to_json()
        beta = system.beta
        # 0, +-beta and +-2 beta in one stacked build at the quasi-basis
        # families' size
        assert builds == [((0.0, beta, -beta, 2 * beta, -2 * beta), NORM_N_MAX_CAP + 1)]
        builds.clear()
        assert run_all_checks(system, 20).to_json() == first
        assert builds == []
        # a second system builds its own, and reports the same
        assert run_all_checks(build(market), 20).to_json() == first
        assert len(builds) == 1

    @pytest.mark.parametrize("module, params", [
        (har, HarmonicParams(MarketParams(0.5, 0.125), 0.36)),
        (bar, BarrierParams(MarketParams(0.5, 0.125), 0.0, math.pi)),
    ])
    def test_signed_zeros_stack_apart_and_other_tilts_build_alone(self, monkeypatch, module,
                                                                  params):
        # at beta 0 the tilt set is 0.0 and -0.0, and each keeps its own matrix
        assert params.beta == 0.0
        fresh = {s.hex(): module.moments(params, s, 21) for s in (0.0, -0.0, 0.25)}
        builds = self.count_builds(monkeypatch, module)
        matrices = grids.shared_moments(module.moments, params, NORM_N_MAX_CAP + 1)
        for s in (-0.0, 0.0, 0.25, -0.0):
            block = matrices(s, 21)
            np.testing.assert_array_equal(block, fresh[s.hex()], strict=True)
            assert np.array_equal(np.signbit(block), np.signbit(fresh[s.hex()]))
        assert builds == [((0.0, -0.0), NORM_N_MAX_CAP + 1), (0.25, NORM_N_MAX_CAP + 1)]
        assert [math.copysign(1.0, s) for s in builds[0][0]] == [1.0, -1.0]

    @pytest.mark.parametrize("module, params", [
        (har, HarmonicParams(MarketParams(0.2, 0.05), 0.36)),
        (har, HarmonicParams(MarketParams(1.5, 0.1), -0.4)),
        (bar, BarrierParams(MarketParams(0.2, 0.05), 0.0, math.pi)),
        (bar, BarrierParams(MarketParams(0.25, 0.05), -0.5, 2.5)),
    ])
    def test_a_leading_block_is_a_fresh_build(self, module, params):
        matrices = grids.shared_moments(module.moments, params, NORM_N_MAX_CAP + 1)
        beta = params.beta
        for s in (0.0, -0.0, beta, -beta, 2 * beta, -2 * beta):
            for n in (1, 21, 42, 61):
                block = matrices(s, n)
                assert not block.flags.writeable
                np.testing.assert_array_equal(block, module.moments(params, s, n), strict=True)
                assert np.array_equal(np.signbit(block), np.signbit(module.moments(params, s, n)))
        # a larger n rebuilds, and smaller ones then read the larger matrix
        np.testing.assert_array_equal(matrices(beta, 80), module.moments(params, beta, 80))
        np.testing.assert_array_equal(matrices(beta, 42), module.moments(params, beta, 42))
