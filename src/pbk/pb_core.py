"""Generic numerical harness for biorthogonal ladder structures.

Any concrete model that supplies an expansion over its own modes, four
ladder maps and an eigenvalue sequence can be run through the same battery
of checks: vacuum annihilation, ladder relations, biorthogonality,
quasi-basis partial sums, metric conjugacy, and norm growth. The harness
never assumes how the maps are realized: finite differences, exact
coefficient recurrences, and spectral shifts all plug in as plain maps.

Everything the battery integrates is an expansion of the model's modes, a
grids.Expansion, so every inner product, Gram matrix and expansion residual
is taken in coefficient space (grids.inner, grids.gram) from the model's
moment matrix. The families are identity coefficient blocks at tilts
+-beta, and the dense set tested on is the same for every model: the
varphi-combinations TEST_COMBOS as one test block, which the metric checks
map whole and pair row by row, and two quasi-basis pairs of untilted mode
polynomials, QUASI_COMBOS.

The harness works on blocks: a family block holds members 0..n_max, one per
row, and each check is one operator application to a block plus one
residual per row, reduced with max.

Each check returns one or more report entries (name, max residual, tolerance,
pass flag); a DiagnosticReport collects them and serializes to JSON. The
system carries the tilt beta of its metric Theta = e^{-2 beta x} (applied by
grids.apply_Theta), its tolerances and its norm rule too.

Operator outputs are Expansions, or GridFunctions on a route that samples.
Residual conventions: ||out - c ref|| is relative to the norm of the target
family member (lowering phi_0, whose target is 0, to phi_0 itself); an
Expansion's norm is sqrt(d^T G(2t) d) from the model's moment matrix G, a
GridFunction's is taken on its own grid. Inner-product identities are
absolute against their exact values.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, List, Mapping, Optional, Tuple

import numpy as np

from .grids import (Expansion, GridFunction, apply_Theta, apply_Theta_inv, gram, inner, pad,
                    row_norm)

ALGEBRAIC_TOL = 1e-10
GRID_TOL = 1e-6
# each check's pass bound by the name the report prints; a system's own
# tolerances override entries
TOLERANCES = {"vacua": GRID_TOL, "ladder": 1e-8, "number_operator": GRID_TOL,
              "biorthogonality": ALGEBRAIC_TOL, "quasi_basis": 1e-6,
              "theta_conjugacy": ALGEBRAIC_TOL, "theta_intertwining": GRID_TOL,
              "norm_growth": 1e-8}

LADDER_N_MAX_CAP = 40
NORM_N_MAX_CAP = 60

# The dense set every battery tests on, read as coefficients of the model's
# own modes: finite varphi-combinations for the metric checks, and untilted
# mode polynomials for the quasi-basis pairs.
TEST_COMBOS = ((1.0, 0.0, 0.5, 0.0, 0.0),   # varphi_0 + 0.5 varphi_2
               (0.0, 1.0, 0.0, -0.3, 0.0),  # varphi_1 - 0.3 varphi_3
               (0.7, 0.0, 0.0, 0.0, 1.0))   # 0.7 varphi_0 + varphi_4
QUASI_COMBOS = ((1.0, 0.0, 0.5), (0.0, 1.0, 0.0, -0.3))


@dataclass(frozen=True)
class LadderSystem:
    """Everything the harness needs to know about one concrete model.

    ``expansion(tilt, coeffs)`` is e^{tilt x} sum_k coeffs[..., k] Phi_k
    over the model's modes: a grids.Expansion, one function per coefficient
    row, bound to whatever the model shares for the system's lifetime. The
    families, the test block and the quasi pairs are all built from it. The
    four operator fields take an expansion (a block or a single function)
    and return an Expansion or a GridFunction with the same rows, which the
    residuals measure by the module's conventions.

    ``eigens`` gives the eigenvalue e_n of the number-like operator for an
    int n, or one per entry of an int array: 0 first, then strictly
    increasing, as construction checks on n = 0..7. ``beta`` is the tilt of
    the metric Theta = e^{-2 beta x}, which maps phi_n to psi_n;
    ``norm_residual`` turns the norm products ||phi_n|| ||psi_n||, n = 0..n_max,
    into the norm check's residual; and ``tolerances`` overrides entries of
    TOLERANCES for this system.
    """

    label: str
    expansion: Callable[[float, np.ndarray], Expansion]
    lower_a: Callable
    raise_b: Callable
    lower_b_dag: Callable
    raise_a_dag: Callable
    eigens: Callable
    beta: float
    norm_residual: Callable[[np.ndarray], float]
    tolerances: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        e = self.eigens(np.arange(8))
        if e[0] != 0.0:
            raise ValueError(f"eigenvalue sequence must start at 0, got {e[0]}")
        if np.any(np.diff(e) <= 0.0):
            raise ValueError("eigenvalue sequence must be strictly increasing")

    def tolerance(self, check: str) -> float:
        """The pass bound of one check: the system's own entry, else the default."""
        return self.tolerances.get(check, TOLERANCES[check])

    def family_phi(self, n_max: int) -> Expansion:
        """varphi_0..varphi_{n_max} as one block: the identity at tilt beta."""
        return self.expansion(self.beta, np.eye(n_max + 1))

    def family_psi(self, n_max: int) -> Expansion:
        """psi_0..psi_{n_max} as one block: the identity at tilt -beta."""
        return self.expansion(-self.beta, np.eye(n_max + 1))

    @property
    def test_functions(self) -> Expansion:
        """The block the metric checks map and pair: TEST_COMBOS at tilt beta."""
        return self.expansion(self.beta, TEST_COMBOS)

    @property
    def quasi_pairs(self) -> Tuple[Tuple[Expansion, Expansion], ...]:
        """The (f, g) pairs the quasi-basis check resolves: the untilted
        QUASI_COMBOS, in both orders."""
        f, g = (self.expansion(0.0, c) for c in QUASI_COMBOS)
        return (f, g), (g, f)


@dataclass(frozen=True)
class CheckResult:
    name: str
    max_residual: float
    tolerance: float

    def __post_init__(self) -> None:
        if not np.isfinite(self.max_residual):
            raise ValueError(f"the {self.name} check's residual is not finite: {self.max_residual}")

    @property
    def passed(self) -> bool:
        return self.max_residual <= self.tolerance

    def to_dict(self) -> dict:
        return {
            "check": self.name,
            "max_residual": self.max_residual,
            "tolerance": self.tolerance,
            "pass": self.passed,
        }


@dataclass
class DiagnosticReport:
    checks: List[CheckResult]
    params_echo: dict

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "params_echo": self.params_echo,
            "checks": [c.to_dict() for c in self.checks],
            "all_pass": self.all_pass,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, allow_nan=False)


# ---------------------------------------------------------------------------
# block plumbing


def _grid_rows(f, out: GridFunction) -> np.ndarray:
    """f's rows at out's points: its own samples if it is a GridFunction on out's grid."""
    if not isinstance(f, GridFunction):
        return np.atleast_2d(f(out.x))
    if (f.x0, f.dx, f.n) != (out.x0, out.dx, out.n):
        raise ValueError("residual of two grid functions on different grids")
    return f.rows()


def _residual(out, coeff, reference, rows=slice(None), scale=None) -> float:
    """max over rows i of || out_i - coeff_i * ref_i || / || scale_i ||.

    ref and scale are the rows of reference and of scale (reference unless
    given) picked by rows; coeff holds one number per output row, or one for
    all. An Expansion is measured from coefficients against a reference of
    its own tilt. A GridFunction is measured on its own grid, against rows
    sampled or given there, one picked row copied at a time: a block on the
    operator grid is megabytes a copy.
    """
    scale = reference if scale is None else scale
    if isinstance(out, Expansion):
        if not (isinstance(reference, Expansion) and reference.tilt == out.tilt):
            raise ValueError(f"an expansion's residual needs a reference of its tilt {out.tilt}")
        ref = np.atleast_2d(reference.coeffs)[rows]
        size = max(out.coeffs.shape[-1], ref.shape[-1])
        coeff = np.broadcast_to(np.asarray(coeff), ref.shape[:1])[:, None]
        diff = out.with_coeffs(pad(out.coeffs, size) - coeff * pad(ref, size))
        num, den = (np.sqrt(np.abs(np.atleast_1d(inner(f, f)))) for f in (
            diff, scale.with_coeffs(np.atleast_2d(scale.coeffs)[rows])))
    else:
        ref = _grid_rows(reference, out)
        norms = ref if scale is reference else _grid_rows(scale, out)
        picked = np.arange(len(ref))[rows]
        coeff = np.broadcast_to(-np.asarray(coeff), picked.shape)
        samples = np.broadcast_to(out.rows(), (len(picked), out.n))
        num, den = np.empty((2, len(picked)))
        for i, k in enumerate(picked):
            diff = ref[k].astype(np.result_type(ref, samples))
            diff *= coeff[i]
            diff += samples[i]
            num[i], den[i] = row_norm(diff, out.dx), row_norm(norms[k], out.dx)
    if np.any(den == 0.0):
        raise ValueError("degenerate reference function with zero norm")
    return float(np.max(num / den))


# ---------------------------------------------------------------------------
# checks


def check_vacua(sys: LadderSystem) -> CheckResult:
    """a phi_0 = 0 and b^dag psi_0 = 0, relative to the vacua's own norms."""
    phi0 = sys.family_phi(0)
    psi0 = sys.family_psi(0)
    r_phi = _residual(sys.lower_a(phi0), 0.0, phi0)
    r_psi = _residual(sys.lower_b_dag(psi0), 0.0, psi0)
    return CheckResult("vacua", max(r_phi, r_psi), sys.tolerance("vacua"))


def check_ladder(sys: LadderSystem, n_max: int) -> CheckResult:
    """b phi_n = sqrt(e_{n+1}) phi_{n+1} and the three companion relations.

    Lowering sends row n to sqrt(e_n) times row max(n - 1, 0), which is zero
    at n = 0 since e_0 = 0; that residual is relative to phi_0 itself.
    """
    if n_max > LADDER_N_MAX_CAP:
        raise ValueError(f"ladder check capped at n_max={LADDER_N_MAX_CAP}, got {n_max}")
    phi, psi = sys.family_phi(n_max), sys.family_psi(n_max)
    root = np.sqrt(sys.eigens(np.arange(n_max + 2)))
    above = slice(1, None)
    below = np.maximum(np.arange(n_max + 1) - 1, 0)
    relations = (
        (sys.raise_b, phi, root[1:], sys.family_phi(n_max + 1), above),
        (sys.raise_a_dag, psi, root[1:], sys.family_psi(n_max + 1), above),
        (sys.lower_a, phi, root[:-1], phi, below),
        (sys.lower_b_dag, psi, root[:-1], psi, below),
    )
    worst = max(_residual(op(block), coeff, target, rows)
                for op, block, coeff, target, rows in relations)
    return CheckResult("ladder", worst, sys.tolerance("ladder"))


def check_number_operator(sys: LadderSystem, n_max: int) -> CheckResult:
    """(b a) phi_n = e_n phi_n and (a^dag b^dag) psi_n = e_n psi_n."""
    phi, psi = sys.family_phi(n_max), sys.family_psi(n_max)
    e = sys.eigens(np.arange(n_max + 1))
    worst = max(_residual(sys.raise_b(sys.lower_a(phi)), e, phi),
                _residual(sys.raise_a_dag(sys.lower_b_dag(psi)), e, psi))
    return CheckResult("number_operator", worst, sys.tolerance("number_operator"))


def check_biorthogonality(sys: LadderSystem, n_max: int) -> CheckResult:
    """<phi_n, psi_m> = delta_nm for all pairs up to n_max."""
    if n_max > LADDER_N_MAX_CAP:
        raise ValueError(
            f"biorthogonality check capped at n_max={LADDER_N_MAX_CAP}, got {n_max}"
        )
    matrix = gram([sys.family_phi(n_max)], [sys.family_psi(n_max)])
    worst = float(np.max(np.abs(matrix - np.eye(n_max + 1))))
    return CheckResult("biorthogonality", worst, sys.tolerance("biorthogonality"))


def check_quasi_basis(sys: LadderSystem, n_max: int) -> CheckResult:
    """Partial sums of both resolutions of <f, g> converge to the direct
    value, for each of the system's quasi pairs (f, g).

    One Gram matrix per side covers every pair: <f, phi_n> and <f, psi_n>
    for all f, <phi_n, g> and <psi_n, g> for all g; the direct values are the
    diagonal of one more, <f_i, g_j>.
    """
    families = [sys.family_phi(n_max), sys.family_psi(n_max)]
    fs, gs = zip(*sys.quasi_pairs)
    direct = np.diag(gram(fs, gs))
    f_phi, f_psi = np.split(gram(fs, families), 2, axis=1)
    phi_g, psi_g = np.split(gram(families, gs).T, 2, axis=1)
    total = np.sum(f_phi * psi_g, axis=1)
    mirrored = np.sum(f_psi * phi_g, axis=1)
    worst = float(np.max(np.abs(np.concatenate([total - direct, mirrored - direct]))))
    return CheckResult("quasi_basis", worst, sys.tolerance("quasi_basis"))


def check_theta_conjugacy(sys: LadderSystem, n_max: int) -> List[CheckResult]:
    """psi_n = Theta phi_n, positivity of <f, Theta f>, and Theta (ba) = (ba)^dag Theta.

    Returns two entries: the algebraic facts (pointwise conjugation, inverse
    roundtrip, positivity), and the intertwining residual, which has its own
    tolerance since it involves operator applications. The test block goes
    through the maps whole, and positivity reads the paired inner products
    <f_i, Theta f_i> and <f_i, f_i> of its rows.
    """
    tol = sys.tolerance("theta_conjugacy")
    families = _residual(apply_Theta(sys, sys.family_phi(n_max)), 1.0, sys.family_psi(n_max))
    tests = sys.test_functions
    image = apply_Theta(sys, tests)
    val = inner(tests, image)
    scale = np.abs(inner(tests, tests))
    negative = np.where(val.real <= 0.0, np.abs(val.real) / scale + tol, 0.0)
    algebraic = max(families, float(np.max(negative)), float(np.max(np.abs(val.imag) / scale)),
                    _residual(apply_Theta_inv(sys, image), 1.0, tests))
    left = apply_Theta(sys, sys.raise_b(sys.lower_a(tests)))
    right = sys.raise_a_dag(sys.lower_b_dag(image))
    intertwining = _residual(left, 1.0, right, scale=tests)
    return [
        CheckResult("theta_conjugacy", algebraic, tol),
        CheckResult("theta_intertwining", intertwining, sys.tolerance("theta_intertwining")),
    ]


def check_norm_growth(sys: LadderSystem, n_max: int) -> CheckResult:
    """Norm products ||phi_n|| ||psi_n|| against the system's norm rule.

    The norms are the square roots of the paired inner products
    <phi_n, phi_n> and <psi_n, psi_n>, one per row of each family block.
    """
    if n_max > NORM_N_MAX_CAP:
        raise ValueError(f"norm check capped at n_max={NORM_N_MAX_CAP}, got {n_max}")
    n_phi, n_psi = (np.sqrt(np.abs(inner(f, f)))
                    for f in (sys.family_phi(n_max), sys.family_psi(n_max)))
    return CheckResult("norm_growth", sys.norm_residual(n_phi * n_psi),
                       sys.tolerance("norm_growth"))


def run_all_checks(sys: LadderSystem, n_max: int,
                   params_echo: Optional[dict] = None) -> DiagnosticReport:
    """The full battery with one entry per check, ready for serialization."""
    checks: List[CheckResult] = [
        check_vacua(sys),
        check_ladder(sys, min(n_max, LADDER_N_MAX_CAP)),
        check_number_operator(sys, min(n_max, 20)),
        check_biorthogonality(sys, min(n_max, LADDER_N_MAX_CAP)),
        check_quasi_basis(sys, NORM_N_MAX_CAP),
    ]
    checks.extend(check_theta_conjugacy(sys, min(n_max, 20)))
    checks.append(check_norm_growth(sys, min(n_max, NORM_N_MAX_CAP)))
    return DiagnosticReport(checks, params_echo or {"system": sys.label})
