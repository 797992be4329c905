"""Generic numerical harness for biorthogonal ladder structures.

Any concrete model that supplies two eigenfamilies, four ladder maps, an
eigenvalue sequence, and an inner product can be run through the same battery
of checks: vacuum annihilation, ladder relations, biorthogonality,
quasi-basis partial sums, metric conjugacy, and norm growth. The harness
never assumes how the maps are realized: finite differences, exact
coefficient recurrences, and spectral shifts all plug in as plain maps.

The harness works on blocks: a family block holds members 0..n_max, one per
row, and each check is one operator application to a block plus one
residual per row, reduced with max.

Each check returns one or more report entries (name, max residual, tolerance,
pass flag); a DiagnosticReport collects them and serializes to JSON. The
system carries the tilt beta of its metric Theta = e^{-2 beta x} (applied by
grids.apply_Theta), its tolerances and its norm rule too.

Residual conventions: ladder and eigen-equation residuals are relative to the
norm of the target family member (for a zero target, to the input's norm);
quadrature identities are absolute against their exact integer values.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .grids import GridFunction, GridSpec, apply_Theta, apply_Theta_inv, grid_norm, row_norm

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


@dataclass(frozen=True)
class LadderSystem:
    """Everything the harness needs to know about one concrete model.

    family_phi(n_max) and family_psi(n_max) give members 0..n_max as one
    block: a callable whose values at points x have shape (n_max + 1,
    len(x)), one row per member. A single function (1-D values) is a block
    of one. The four operator fields take a block (or a single function)
    and return a callable or a GridFunction with the same rows. ``inner``
    is a callable (f, g) realizing the model's inner product, conjugate-linear
    in the first slot: a complex for two single functions, and for a block
    the products of its rows paired with the other slot's rows. ``gram`` is
    the same inner product on sequences of functions and blocks, (fs, gs) ->
    the array of <f_i, g_j> over all their rows, each evaluated once per rule.

    ``eigens`` gives the eigenvalue e_n of the number-like operator for an
    int n, or one per entry of an int array: 0 first, then strictly
    increasing, as construction checks on n = 0..7. ``beta`` is the tilt of
    the metric Theta = e^{-2 beta x}, which maps phi_n to psi_n;
    ``norm_residual`` turns the norm products ||phi_n|| ||psi_n||, n = 0..n_max,
    into the norm check's residual; and ``tolerances`` overrides entries of
    TOLERANCES for this system.
    """

    label: str
    family_phi: Callable[[int], Callable]
    family_psi: Callable[[int], Callable]
    lower_a: Callable
    raise_b: Callable
    lower_b_dag: Callable
    raise_a_dag: Callable
    eigens: Callable
    inner: Callable
    gram: Callable
    beta: float
    norm_residual: Callable[[np.ndarray], float]
    default_grid: GridSpec
    test_functions: Sequence[Callable] = field(default_factory=tuple)
    quasi_pairs: Sequence[Tuple[Callable, Callable]] = field(default_factory=tuple)
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


def _stack(fns: Sequence[Callable]) -> Callable:
    """Single functions as one block, one row each."""
    return lambda x: np.array([f(x) for f in fns])


def _on_grid(obj, grid: GridSpec) -> GridFunction:
    """An operator output or a block as samples: on its own grid, else on grid."""
    if isinstance(obj, GridFunction):
        return obj
    if callable(obj):
        return grid.sample(obj)
    raise TypeError(f"cannot evaluate object of type {type(obj).__name__} on a grid")


def _residual(out, coeff, reference: Callable, grid: GridSpec,
              rows=slice(None)) -> float:
    """max over rows i of || out_i - coeff_i * ref_i || / || ref_i ||.

    ref is reference evaluated on the output's grid, its rows picked by
    rows; coeff holds one number per output row, or one for all of them.
    The picked rows are copied one at a time: a block on the operator grid is
    megabytes a copy.
    """
    lhs = _on_grid(out, grid)
    ref = np.atleast_2d(reference(lhs.x))
    picked = np.arange(len(ref))[rows]
    coeff = np.broadcast_to(-np.asarray(coeff), picked.shape)
    samples = np.broadcast_to(lhs.rows(), (len(picked), lhs.n))
    ratios = np.empty(len(picked))
    for i, k in enumerate(picked):
        diff = ref[k].astype(np.result_type(ref, samples))
        ref_norm = row_norm(diff, lhs.dx)
        if ref_norm == 0.0:
            raise ValueError("degenerate reference function with zero norm")
        diff *= coeff[i]
        diff += samples[i]
        ratios[i] = row_norm(diff, lhs.dx) / ref_norm
    return float(np.max(ratios))


# ---------------------------------------------------------------------------
# checks


def check_vacua(sys: LadderSystem) -> CheckResult:
    """a phi_0 = 0 and b^dag psi_0 = 0, relative to the vacua's own norms."""
    grid = sys.default_grid
    phi0 = sys.family_phi(0)
    psi0 = sys.family_psi(0)
    for name, f in (("phi_0", phi0), ("psi_0", psi0)):
        if np.any(grid_norm(_on_grid(f, grid)) == 0.0):
            raise ValueError(f"degenerate vacuum: {name} has zero norm on the grid")
    r_phi = _residual(sys.lower_a(phi0), 0.0, phi0, grid)
    r_psi = _residual(sys.lower_b_dag(psi0), 0.0, psi0, grid)
    return CheckResult("vacua", max(r_phi, r_psi), sys.tolerance("vacua"))


def check_ladder(sys: LadderSystem, n_max: int) -> CheckResult:
    """b phi_n = sqrt(e_{n+1}) phi_{n+1} and the three companion relations.

    Lowering sends row n to sqrt(e_n) times row max(n - 1, 0), which is zero
    at n = 0 since e_0 = 0; that residual is relative to phi_0 itself.
    """
    if n_max > LADDER_N_MAX_CAP:
        raise ValueError(f"ladder check capped at n_max={LADDER_N_MAX_CAP}, got {n_max}")
    grid = sys.default_grid
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
    worst = max(_residual(op(block), coeff, target, grid, rows)
                for op, block, coeff, target, rows in relations)
    return CheckResult("ladder", worst, sys.tolerance("ladder"))


def check_number_operator(sys: LadderSystem, n_max: int) -> CheckResult:
    """(b a) phi_n = e_n phi_n and (a^dag b^dag) psi_n = e_n psi_n."""
    grid = sys.default_grid
    phi, psi = sys.family_phi(n_max), sys.family_psi(n_max)
    e = sys.eigens(np.arange(n_max + 1))
    worst = max(_residual(sys.raise_b(sys.lower_a(phi)), e, phi, grid),
                _residual(sys.raise_a_dag(sys.lower_b_dag(psi)), e, psi, grid))
    return CheckResult("number_operator", worst, sys.tolerance("number_operator"))


def check_biorthogonality(sys: LadderSystem, n_max: int) -> CheckResult:
    """<phi_n, psi_m> = delta_nm for all pairs up to n_max."""
    if n_max > LADDER_N_MAX_CAP:
        raise ValueError(
            f"biorthogonality check capped at n_max={LADDER_N_MAX_CAP}, got {n_max}"
        )
    gram = sys.gram([sys.family_phi(n_max)], [sys.family_psi(n_max)])
    worst = float(np.max(np.abs(gram - np.eye(n_max + 1))))
    return CheckResult("biorthogonality", worst, sys.tolerance("biorthogonality"))


def check_quasi_basis(sys: LadderSystem, test_pairs: Sequence[Tuple[Callable, Callable]],
                      n_max: int) -> CheckResult:
    """Partial sums of both resolutions of <f, g> converge to the direct value.

    One Gram matrix per side covers every pair: <f, phi_n> and <f, psi_n>
    for all f, <phi_n, g> and <psi_n, g> for all g.
    """
    if not test_pairs:
        return CheckResult("quasi_basis", 0.0, sys.tolerance("quasi_basis"))
    families = [sys.family_phi(n_max), sys.family_psi(n_max)]
    fs, gs = zip(*test_pairs)
    direct = np.array([sys.inner(f, g) for f, g in test_pairs])
    f_phi, f_psi = np.split(sys.gram(fs, families), 2, axis=1)
    phi_g, psi_g = np.split(sys.gram(families, gs).T, 2, axis=1)
    total = np.sum(f_phi * psi_g, axis=1)
    mirrored = np.sum(f_psi * phi_g, axis=1)
    worst = float(np.max(np.abs(np.concatenate([total - direct, mirrored - direct]))))
    return CheckResult("quasi_basis", worst, sys.tolerance("quasi_basis"))


def check_theta_conjugacy(sys: LadderSystem, n_max: int) -> List[CheckResult]:
    """psi_n = Theta phi_n, positivity of <f, Theta f>, and Theta (ba) = (ba)^dag Theta.

    Returns two entries: the algebraic facts (pointwise conjugation, inverse
    roundtrip, positivity), and the intertwining residual, which has its own
    tolerance since it involves operator applications. The test
    functions form one block for the maps, but their inner products go one
    at a time: their Gaussian decay rates differ, and a Gram block needs one.
    """
    grid, tol = sys.default_grid, sys.tolerance("theta_conjugacy")
    algebraic = _residual(apply_Theta(sys, sys.family_phi(n_max)), 1.0,
                          sys.family_psi(n_max), grid)
    for f in sys.test_functions:
        val = sys.inner(f, apply_Theta(sys, f))
        scale = abs(sys.inner(f, f))
        if val.real <= 0.0:
            algebraic = max(algebraic, abs(val.real) / scale + tol)
        algebraic = max(algebraic, abs(val.imag) / scale)
    intertwining = 0.0
    if sys.test_functions:
        tests = _stack(sys.test_functions)
        roundtrip = apply_Theta_inv(sys, apply_Theta(sys, tests))
        algebraic = max(algebraic, _residual(roundtrip, 1.0, tests, grid))
        left = _on_grid(apply_Theta(sys, sys.raise_b(sys.lower_a(tests))), grid)
        right = _on_grid(sys.raise_a_dag(sys.lower_b_dag(apply_Theta(sys, tests))), grid)
        if left.n != right.n:
            raise ValueError("intertwining sides landed on different grids")
        intertwining = float(np.max([
            row_norm(lhs - rhs, left.dx) / row_norm(test, left.dx)
            for lhs, rhs, test in zip(left.rows(), right.rows(), tests(left.x))]))
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
    n_phi, n_psi = (np.sqrt(np.abs(sys.inner(f, f)))
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
        check_quasi_basis(sys, sys.quasi_pairs, NORM_N_MAX_CAP),
    ]
    checks.extend(check_theta_conjugacy(sys, min(n_max, 20)))
    checks.append(check_norm_growth(sys, min(n_max, NORM_N_MAX_CAP)))
    return DiagnosticReport(checks, params_echo or {"system": sys.label})
