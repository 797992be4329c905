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
pass flag); a DiagnosticReport collects them and serializes to JSON.

Residual conventions: ladder and eigen-equation residuals are relative to the
norm of the target family member (for a zero target, to the input's norm);
quadrature identities are absolute against their exact integer values.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .grids import GridFunction, GridSpec, grid_norm

ALGEBRAIC_TOL = 1e-10
GRID_TOL = 1e-6
LADDER_TOL = 1e-8
QUASI_BASIS_TOL = 1e-6
NORM_LAW_TOL = 1e-8
NORM_CONSTANT_TOL = 1e-10

LADDER_N_MAX_CAP = 40
NORM_N_MAX_CAP = 60


@dataclass(frozen=True)
class EigenSequence:
    """The eigenvalue sequence of the number-like operator: 0 first, then increasing."""

    fn: Callable[[int], float]

    def __post_init__(self) -> None:
        if self.fn(0) != 0.0:
            raise ValueError(f"eigenvalue sequence must start at 0, got {self.fn(0)}")
        if np.any(np.diff(_sequence(self.fn, 7)) <= 0.0):
            raise ValueError("eigenvalue sequence must be strictly increasing")

    def __call__(self, n: int) -> float:
        return float(self.fn(n))


@dataclass(frozen=True)
class MetricOperator:
    """A positive invertible multiplication-type map with its inverse."""

    apply: Callable
    apply_inverse: Callable
    label: str


@dataclass(frozen=True)
class TestFunction:
    """A dense-set test function, tagged with its Gaussian envelope rate.

    The rate (|f(x)| ~ e^{-rate x^2}) lets whole-line inner products pick a
    quadrature scale that keeps the compensated integrand decaying.
    """

    fn: Callable
    label: str
    gaussian_decay_rate: Optional[float] = None

    def __call__(self, x):
        return self.fn(x)


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
    """

    label: str
    family_phi: Callable[[int], Callable]
    family_psi: Callable[[int], Callable]
    lower_a: Callable
    raise_b: Callable
    lower_b_dag: Callable
    raise_a_dag: Callable
    eigens: EigenSequence
    inner: Callable
    gram: Callable
    default_grid: GridSpec
    test_functions: Sequence[TestFunction] = field(default_factory=tuple)
    quasi_pairs: Sequence[Tuple[Callable, Callable]] = field(default_factory=tuple)
    norm_behavior: str = "increasing"  # or "constant" or "bounded"
    norm_product_law: Optional[Callable[[int], float]] = None
    norm_bounds: Optional[Tuple[float, float]] = None


@dataclass(frozen=True)
class CheckResult:
    name: str
    max_residual: float
    tolerance: float

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
        return json.dumps(self.to_dict(), indent=2)


# ---------------------------------------------------------------------------
# block plumbing


def _sequence(fn: Callable[[int], float], n_max: int) -> np.ndarray:
    """fn(0)..fn(n_max): the scalar sequences (eigenvalues, norm laws) of a block."""
    return np.array([float(fn(n)) for n in range(n_max + 1)])


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
    """
    lhs = _on_grid(out, grid)
    ref = np.atleast_2d(reference(lhs.x))[rows]
    ref_norm = grid_norm(lhs.with_samples(ref))
    if np.any(ref_norm == 0.0):
        raise ValueError("degenerate reference function with zero norm")
    # formed in ref's own array: a block on the operator grid is megabytes a copy
    diff = ref.astype(np.result_type(ref, lhs.samples), copy=False)
    diff *= -np.asarray(coeff)[..., None]
    diff += lhs.samples
    return float(np.max(grid_norm(lhs.with_samples(diff)) / ref_norm))


# ---------------------------------------------------------------------------
# checks


def check_vacua(sys: LadderSystem, tol: float = GRID_TOL) -> CheckResult:
    """a phi_0 = 0 and b^dag psi_0 = 0, relative to the vacua's own norms."""
    grid = sys.default_grid
    phi0 = sys.family_phi(0)
    psi0 = sys.family_psi(0)
    for name, f in (("phi_0", phi0), ("psi_0", psi0)):
        if np.any(grid_norm(_on_grid(f, grid)) == 0.0):
            raise ValueError(f"degenerate vacuum: {name} has zero norm on the grid")
    r_phi = _residual(sys.lower_a(phi0), 0.0, phi0, grid)
    r_psi = _residual(sys.lower_b_dag(psi0), 0.0, psi0, grid)
    return CheckResult("vacua", max(r_phi, r_psi), tol)


def check_ladder(sys: LadderSystem, n_max: int, tol: float = LADDER_TOL) -> CheckResult:
    """b phi_n = sqrt(e_{n+1}) phi_{n+1} and the three companion relations.

    Lowering sends row n to sqrt(e_n) times row max(n - 1, 0), which is zero
    at n = 0 since e_0 = 0; that residual is relative to phi_0 itself.
    """
    if n_max > LADDER_N_MAX_CAP:
        raise ValueError(f"ladder check capped at n_max={LADDER_N_MAX_CAP}, got {n_max}")
    grid = sys.default_grid
    phi, psi = sys.family_phi(n_max), sys.family_psi(n_max)
    root = np.sqrt(_sequence(sys.eigens, n_max + 1))
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
    return CheckResult("ladder", worst, tol)


def check_number_operator(sys: LadderSystem, n_max: int,
                          tol: float = GRID_TOL) -> CheckResult:
    """(b a) phi_n = e_n phi_n and (a^dag b^dag) psi_n = e_n psi_n."""
    grid = sys.default_grid
    phi, psi = sys.family_phi(n_max), sys.family_psi(n_max)
    e = _sequence(sys.eigens, n_max)
    worst = max(_residual(sys.raise_b(sys.lower_a(phi)), e, phi, grid),
                _residual(sys.raise_a_dag(sys.lower_b_dag(psi)), e, psi, grid))
    return CheckResult("number_operator", worst, tol)


def check_biorthogonality(sys: LadderSystem, n_max: int,
                          tol: float = ALGEBRAIC_TOL) -> CheckResult:
    """<phi_n, psi_m> = delta_nm for all pairs up to n_max."""
    if n_max > LADDER_N_MAX_CAP:
        raise ValueError(
            f"biorthogonality check capped at n_max={LADDER_N_MAX_CAP}, got {n_max}"
        )
    gram = sys.gram([sys.family_phi(n_max)], [sys.family_psi(n_max)])
    worst = float(np.max(np.abs(gram - np.eye(n_max + 1))))
    return CheckResult("biorthogonality", worst, tol)


def check_quasi_basis(sys: LadderSystem, test_pairs: Sequence[Tuple[Callable, Callable]],
                      n_max: int, tol: float = QUASI_BASIS_TOL) -> CheckResult:
    """Partial sums of both resolutions of <f, g> converge to the direct value.

    One Gram matrix per side covers every pair: <f, phi_n> and <f, psi_n>
    for all f, <phi_n, g> and <psi_n, g> for all g.
    """
    if not test_pairs:
        return CheckResult("quasi_basis", 0.0, tol)
    families = [sys.family_phi(n_max), sys.family_psi(n_max)]
    fs, gs = zip(*test_pairs)
    direct = np.array([sys.inner(f, g) for f, g in test_pairs])
    f_phi, f_psi = np.split(sys.gram(fs, families), 2, axis=1)
    phi_g, psi_g = np.split(sys.gram(families, gs).T, 2, axis=1)
    total = np.sum(f_phi * psi_g, axis=1)
    mirrored = np.sum(f_psi * phi_g, axis=1)
    worst = float(np.max(np.abs(np.concatenate([total - direct, mirrored - direct]))))
    return CheckResult("quasi_basis", worst, tol)


def check_theta_conjugacy(sys: LadderSystem, theta: MetricOperator, n_max: int,
                          tol: float = ALGEBRAIC_TOL,
                          intertwining_tol: float = GRID_TOL) -> List[CheckResult]:
    """psi_n = Theta phi_n, positivity of <f, Theta f>, and Theta (ba) = (ba)^dag Theta.

    Returns two entries: the algebraic facts (pointwise conjugation, inverse
    roundtrip, positivity) at ``tol``, and the intertwining residual at
    ``intertwining_tol`` since it involves operator applications. The test
    functions form one block for the maps, but their inner products go one
    at a time: their Gaussian decay rates differ, and a Gram block needs one.
    """
    grid = sys.default_grid
    algebraic = _residual(theta.apply(sys.family_phi(n_max)), 1.0,
                          sys.family_psi(n_max), grid)
    for f in sys.test_functions:
        val = sys.inner(f, theta.apply(f))
        scale = abs(sys.inner(f, f))
        if val.real <= 0.0:
            algebraic = max(algebraic, abs(val.real) / scale + tol)
        algebraic = max(algebraic, abs(val.imag) / scale)
    intertwining = 0.0
    if sys.test_functions:
        tests = _stack(sys.test_functions)
        roundtrip = theta.apply_inverse(theta.apply(tests))
        algebraic = max(algebraic, _residual(roundtrip, 1.0, tests, grid))
        left = _on_grid(theta.apply(sys.raise_b(sys.lower_a(tests))), grid)
        right = _on_grid(sys.raise_a_dag(sys.lower_b_dag(theta.apply(tests))), grid)
        if left.n != right.n:
            raise ValueError("intertwining sides landed on different grids")
        gap = grid_norm(left.with_samples(left.samples - right.samples))
        intertwining = float(np.max(gap / grid_norm(left.with_samples(tests(left.x)))))
    return [
        CheckResult("theta_conjugacy", algebraic, tol),
        CheckResult("theta_intertwining", intertwining, intertwining_tol),
    ]


def check_norm_growth(sys: LadderSystem, n_max: int,
                      tol: float = NORM_LAW_TOL) -> CheckResult:
    """Norm products ||phi_n|| ||psi_n||: closed-form match plus trend.

    The norms are the square roots of the paired inner products
    <phi_n, phi_n> and <psi_n, psi_n>, one per row of each family block.
    """
    if n_max > NORM_N_MAX_CAP:
        raise ValueError(f"norm check capped at n_max={NORM_N_MAX_CAP}, got {n_max}")
    n_phi, n_psi = (np.sqrt(np.abs(sys.inner(f, f)))
                    for f in (sys.family_phi(n_max), sys.family_psi(n_max)))
    products = n_phi * n_psi
    worst = 0.0
    tolerance = tol
    if sys.norm_product_law is not None:
        law = _sequence(sys.norm_product_law, n_max)
        worst = max(worst, float(np.max(np.abs(products - law) / law)))
    if sys.norm_behavior == "constant":
        tolerance = min(tol, NORM_CONSTANT_TOL)
        worst = max(worst, float(np.max(np.abs(products - 1.0))))
    elif sys.norm_behavior == "increasing":
        backsliding = np.max(products[:-1] - products[1:]) if n_max >= 1 else -1.0
        worst = max(worst, float(max(0.0, backsliding)))
    elif sys.norm_behavior == "bounded":
        if sys.norm_bounds is None:
            raise ValueError("bounded norm behavior requires norm_bounds")
        lo, hi = sys.norm_bounds
        overshoot = max(float(np.max(products - hi)), float(np.max(lo - products)))
        worst = max(worst, max(0.0, overshoot) / hi)
    else:
        raise ValueError(f"unknown norm behavior {sys.norm_behavior!r}")
    return CheckResult("norm_growth", worst, tolerance)


def run_all_checks(sys: LadderSystem, theta: MetricOperator, n_max: int,
                   params_echo: Optional[dict] = None,
                   ladder_tol: float = LADDER_TOL,
                   grid_tol: float = GRID_TOL,
                   number_tol: Optional[float] = None) -> DiagnosticReport:
    """The full battery with one entry per check, ready for serialization."""
    checks: List[CheckResult] = [
        check_vacua(sys, tol=grid_tol),
        check_ladder(sys, min(n_max, LADDER_N_MAX_CAP), tol=ladder_tol),
        check_number_operator(sys, min(n_max, 20),
                              tol=number_tol if number_tol is not None else grid_tol),
        check_biorthogonality(sys, min(n_max, LADDER_N_MAX_CAP)),
        check_quasi_basis(sys, sys.quasi_pairs, NORM_N_MAX_CAP),
    ]
    checks.extend(check_theta_conjugacy(sys, theta, min(n_max, 20),
                                        intertwining_tol=grid_tol))
    checks.append(check_norm_growth(sys, min(n_max, NORM_N_MAX_CAP)))
    return DiagnosticReport(checks, params_echo or {"system": sys.label})
