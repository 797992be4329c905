"""Generic numerical harness for biorthogonal ladder structures.

Any concrete model that supplies two eigenfamilies, four ladder maps, an
eigenvalue sequence, and an inner product can be run through the same battery
of checks: vacuum annihilation, ladder relations, biorthogonality,
quasi-basis partial sums, metric conjugacy, and norm growth. The harness
never assumes how the maps are realized: finite differences, exact
coefficient recurrences, and spectral shifts all plug in as plain
function-to-function maps.

Each check returns one or more report entries (name, max residual, tolerance,
pass flag); a DiagnosticReport collects them and serializes to JSON.

Residual conventions: ladder and eigen-equation residuals are relative to the
norm of the target family member (for a zero target, to the input's norm);
quadrature identities are absolute against their exact integer values.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .grids import GridFunction, GridSpec

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
    """The eigenvalue sequence of the number-like operator; must start at 0."""

    fn: Callable[[int], float]
    strictly_increasing: bool = True

    def __post_init__(self) -> None:
        if self.fn(0) != 0.0:
            raise ValueError(f"eigenvalue sequence must start at 0, got {self.fn(0)}")
        if self.strictly_increasing:
            probe = [self.fn(k) for k in range(8)]
            if any(b <= a for a, b in zip(probe, probe[1:])):
                raise ValueError("eigenvalue sequence flagged increasing but is not")

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

    The four operator fields take a function (or whatever the family members
    are) and return a function or a GridFunction. ``inner`` is a callable
    (f, g) -> complex realizing the model's inner product, conjugate-linear
    in the first slot. ``gram`` is the same inner product on blocks,
    (fs, gs) -> the array of <f_i, g_j>, each function evaluated once per
    rule; the biorthogonality and quasi-basis checks use it.
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

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)


# ---------------------------------------------------------------------------
# grid-norm plumbing


def _as_xy(obj, grid: GridSpec) -> Tuple[np.ndarray, np.ndarray, float]:
    """Evaluation points, values, and step of an operator output."""
    if isinstance(obj, GridFunction):
        return obj.x, obj.samples, obj.dx
    if callable(obj):
        x = grid.points
        return x, np.atleast_1d(np.asarray(obj(x))), grid.dx
    raise TypeError(f"cannot evaluate object of type {type(obj).__name__} on a grid")


def _norm(values: np.ndarray, dx: float) -> float:
    return float(np.sqrt(dx * np.sum(np.abs(values) ** 2)))


def _relative_residual(out, coeff: float, target: Optional[Callable],
                       reference: Callable, grid: GridSpec) -> float:
    """|| out - coeff * target || / || reference ||, all on the output's grid."""
    x, lhs, dx = _as_xy(out, grid)
    ref = np.asarray(reference(x))
    if target is None:
        rhs = 0.0
    else:
        rhs = coeff * (ref if target is reference else np.asarray(target(x)))
    ref_norm = _norm(ref, dx)
    if ref_norm == 0.0:
        raise ValueError("degenerate reference function with zero norm")
    return _norm(lhs - rhs, dx) / ref_norm


# ---------------------------------------------------------------------------
# checks


def check_vacua(sys: LadderSystem, grid: Optional[GridSpec] = None,
                tol: float = GRID_TOL) -> CheckResult:
    """a phi_0 = 0 and b^dag psi_0 = 0, relative to the vacua's own norms."""
    grid = grid or sys.default_grid
    phi0 = sys.family_phi(0)
    psi0 = sys.family_psi(0)
    for name, f in (("phi_0", phi0), ("psi_0", psi0)):
        x, vals, dx = _as_xy(f, grid)
        if _norm(vals, dx) == 0.0:
            raise ValueError(f"degenerate vacuum: {name} has zero norm on the grid")
    r_phi = _relative_residual(sys.lower_a(phi0), 0.0, None, phi0, grid)
    r_psi = _relative_residual(sys.lower_b_dag(psi0), 0.0, None, psi0, grid)
    return CheckResult("vacua", max(r_phi, r_psi), tol)


def check_ladder(sys: LadderSystem, n_max: int, grid: Optional[GridSpec] = None,
                 tol: float = LADDER_TOL) -> CheckResult:
    """b phi_n = sqrt(e_{n+1}) phi_{n+1} and the three companion relations."""
    if n_max > LADDER_N_MAX_CAP:
        raise ValueError(f"ladder check capped at n_max={LADDER_N_MAX_CAP}, got {n_max}")
    grid = grid or sys.default_grid
    worst = 0.0
    for n in range(n_max + 1):
        phi = sys.family_phi(n)
        psi = sys.family_psi(n)
        up = math.sqrt(sys.eigens(n + 1))
        down = math.sqrt(sys.eigens(n))
        phi_up = sys.family_phi(n + 1)
        psi_up = sys.family_psi(n + 1)
        phi_dn = sys.family_phi(n - 1) if n >= 1 else None
        psi_dn = sys.family_psi(n - 1) if n >= 1 else None
        worst = max(worst, _relative_residual(sys.raise_b(phi), up, phi_up, phi_up, grid))
        worst = max(worst, _relative_residual(sys.raise_a_dag(psi), up, psi_up, psi_up, grid))
        if n == 0:
            worst = max(worst, _relative_residual(sys.lower_a(phi), 0.0, None, phi, grid))
            worst = max(worst, _relative_residual(sys.lower_b_dag(psi), 0.0, None, psi, grid))
        else:
            worst = max(worst, _relative_residual(sys.lower_a(phi), down, phi_dn, phi_dn, grid))
            worst = max(worst, _relative_residual(sys.lower_b_dag(psi), down, psi_dn, psi_dn, grid))
    return CheckResult("ladder", worst, tol)


def check_number_operator(sys: LadderSystem, n_max: int, grid: Optional[GridSpec] = None,
                          tol: float = GRID_TOL) -> CheckResult:
    """(b a) phi_n = e_n phi_n and (a^dag b^dag) psi_n = e_n psi_n."""
    grid = grid or sys.default_grid
    worst = 0.0
    for n in range(n_max + 1):
        phi = sys.family_phi(n)
        psi = sys.family_psi(n)
        e_n = sys.eigens(n)
        worst = max(
            worst,
            _relative_residual(sys.raise_b(sys.lower_a(phi)), e_n, phi, phi, grid),
        )
        worst = max(
            worst,
            _relative_residual(sys.raise_a_dag(sys.lower_b_dag(psi)), e_n, psi, psi, grid),
        )
    return CheckResult("number_operator", worst, tol)


def _families(sys: LadderSystem, n_max: int) -> Tuple[list, list]:
    """phi_0..phi_{n_max} and psi_0..psi_{n_max}, for the Gram-matrix checks."""
    return ([sys.family_phi(n) for n in range(n_max + 1)],
            [sys.family_psi(n) for n in range(n_max + 1)])


def check_biorthogonality(sys: LadderSystem, n_max: int,
                          tol: float = ALGEBRAIC_TOL) -> CheckResult:
    """<phi_n, psi_m> = delta_nm for all pairs up to n_max."""
    if n_max > LADDER_N_MAX_CAP:
        raise ValueError(
            f"biorthogonality check capped at n_max={LADDER_N_MAX_CAP}, got {n_max}"
        )
    phis, psis = _families(sys, n_max)
    worst = float(np.max(np.abs(sys.gram(phis, psis) - np.eye(n_max + 1))))
    return CheckResult("biorthogonality", worst, tol)


def check_quasi_basis(sys: LadderSystem, test_pairs: Sequence[Tuple[Callable, Callable]],
                      n_max: int, tol: float = QUASI_BASIS_TOL) -> CheckResult:
    """Partial sums of both resolutions of <f, g> converge to the direct value."""
    phis, psis = _families(sys, n_max)
    worst = 0.0
    for f, g in test_pairs:
        direct = sys.inner(f, g)
        f_phi, f_psi = np.split(sys.gram([f], phis + psis)[0], 2)
        phi_g, psi_g = np.split(sys.gram(phis + psis, [g])[:, 0], 2)
        total = complex(np.sum(f_phi * psi_g))
        mirrored = complex(np.sum(f_psi * phi_g))
        worst = max(worst, abs(total - direct), abs(mirrored - direct))
    return CheckResult("quasi_basis", worst, tol)


def check_theta_conjugacy(sys: LadderSystem, theta: MetricOperator, n_max: int,
                          grid: Optional[GridSpec] = None,
                          tol: float = ALGEBRAIC_TOL,
                          intertwining_tol: float = GRID_TOL) -> List[CheckResult]:
    """psi_n = Theta phi_n, positivity of <f, Theta f>, and Theta (ba) = (ba)^dag Theta.

    Returns two entries: the algebraic facts (pointwise conjugation, inverse
    roundtrip, positivity) at ``tol``, and the intertwining residual at
    ``intertwining_tol`` since it involves operator applications.
    """
    grid = grid or sys.default_grid
    algebraic = 0.0
    for n in range(n_max + 1):
        phi = sys.family_phi(n)
        psi = sys.family_psi(n)
        algebraic = max(algebraic, _relative_residual(theta.apply(phi), 1.0, psi, psi, grid))
    for f in sys.test_functions:
        roundtrip = theta.apply_inverse(theta.apply(f))
        algebraic = max(algebraic, _relative_residual(roundtrip, 1.0, f, f, grid))
        val = sys.inner(f, theta.apply(f))
        scale = abs(sys.inner(f, f))
        if val.real <= 0.0:
            algebraic = max(algebraic, abs(val.real) / scale + tol)
        algebraic = max(algebraic, abs(val.imag) / scale)
    intertwining = 0.0
    for f in sys.test_functions:
        left = theta.apply(sys.raise_b(sys.lower_a(f)))
        right = sys.raise_a_dag(sys.lower_b_dag(theta.apply(f)))
        x, lv, dx = _as_xy(left, grid)
        _, rv, _ = _as_xy(right, grid)
        if len(lv) != len(rv):
            raise ValueError("intertwining sides landed on different grids")
        f_ref = _norm(np.asarray(f(x)), dx)
        intertwining = max(intertwining, _norm(lv - rv, dx) / f_ref)
    return [
        CheckResult("theta_conjugacy", algebraic, tol),
        CheckResult("theta_intertwining", intertwining, intertwining_tol),
    ]


def check_norm_growth(sys: LadderSystem, n_max: int,
                      tol: float = NORM_LAW_TOL) -> CheckResult:
    """Norm products ||phi_n|| ||psi_n||: closed-form match plus trend."""
    if n_max > NORM_N_MAX_CAP:
        raise ValueError(f"norm check capped at n_max={NORM_N_MAX_CAP}, got {n_max}")
    products = []
    for n in range(n_max + 1):
        phi = sys.family_phi(n)
        psi = sys.family_psi(n)
        n_phi = math.sqrt(abs(sys.inner(phi, phi)))
        n_psi = math.sqrt(abs(sys.inner(psi, psi)))
        products.append(n_phi * n_psi)
    products = np.array(products)
    worst = 0.0
    tolerance = tol
    if sys.norm_product_law is not None:
        law = np.array([sys.norm_product_law(n) for n in range(n_max + 1)])
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
                   quasi_pairs: Optional[Sequence[Tuple[Callable, Callable]]] = None,
                   params_echo: Optional[dict] = None,
                   ladder_tol: float = LADDER_TOL,
                   grid_tol: float = GRID_TOL,
                   number_tol: Optional[float] = None,
                   quasi_n_max: int = NORM_N_MAX_CAP) -> DiagnosticReport:
    """The full battery with one entry per check, ready for serialization."""
    if quasi_pairs is None:
        quasi_pairs = list(sys.quasi_pairs)
    checks: List[CheckResult] = [
        check_vacua(sys, tol=grid_tol),
        check_ladder(sys, min(n_max, LADDER_N_MAX_CAP), tol=ladder_tol),
        check_number_operator(sys, min(n_max, 20),
                              tol=number_tol if number_tol is not None else grid_tol),
        check_biorthogonality(sys, min(n_max, LADDER_N_MAX_CAP)),
        check_quasi_basis(sys, quasi_pairs, quasi_n_max),
    ]
    checks.extend(check_theta_conjugacy(sys, theta, min(n_max, 20),
                                        intertwining_tol=grid_tol))
    checks.append(check_norm_growth(sys, min(n_max, NORM_N_MAX_CAP)))
    return DiagnosticReport(checks, params_echo or {"system": sys.label})
