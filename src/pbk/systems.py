"""Ready-made LadderSystem bindings for the two concrete models.

The harmonic model plugs in either through exact Hermite-coefficient algebra
(route "exact") or through finite-difference operator application on a dense
grid (route "grid"). The barrier model always works in sine-coefficient
space, where its ladder maps are defined.

Generic test functions (plain callables) are sampled onto the operator grid
and differentiated numerically even under the exact route, since coefficient
algebra only applies to functions given as expansions.
"""

from __future__ import annotations

import math
from typing import Callable, Tuple

import numpy as np

from . import barrier as bar
from . import harmonic as har
from .grids import GridFunction, GridSpec
from .market import beta_is_degenerate
from .pb_core import EigenSequence, LadderSystem, MetricOperator, TestFunction
from .quadrature import adaptive_gram, adaptive_inner_product
from .specialfn import MAX_DEGREE

BARRIER_GRID_POINTS = 4001

TEST_WIDTHS = (0.5, 1.0, 2.0)
BARRIER_TEST_MODES = 4  # the barrier test functions combine varphi_0..varphi_4


def harmonic_test_functions():
    """Polynomials times Gaussians e^{-x^2/s^2}: the whole-line dense test set."""
    fns = []
    for s in TEST_WIDTHS:
        rate = 1.0 / s**2

        def gauss(x, _r=rate):
            return np.exp(-_r * np.asarray(x, dtype=float) ** 2)

        def x_gauss(x, _r=rate):
            x = np.asarray(x, dtype=float)
            return x * np.exp(-_r * x**2)

        fns.append(TestFunction(gauss, f"exp(-x^2/{s**2:g})", rate))
        fns.append(TestFunction(x_gauss, f"x*exp(-x^2/{s**2:g})", rate))
    return fns


def _decay_rate(f, default: float) -> float:
    rate = getattr(f, "gaussian_decay_rate", None)
    return default if rate is None else float(rate)


def _inner_and_gram(kind: str, rule: Callable) -> Tuple[Callable, Callable]:
    """The model's inner product and Gram matrix on one rule choice.

    rule(fs, gs) gives the rule's keyword arguments for a block of functions
    in each slot; an inner product is the block of one and one.
    """

    def inner(f, g):
        return adaptive_inner_product(f, g, kind, **rule([f], [g]))

    def gram(fs, gs) -> np.ndarray:
        return adaptive_gram(fs, gs, kind, **rule(fs, gs))

    return inner, gram


def _harmonic_quadrature(params: har.HarmonicParams) -> Tuple[Callable, Callable]:
    """Hermite rules centred on the eigenfunctions, scaled to the decay rates."""
    base = 1.0 / (2.0 * params.sigma**2)

    def block_rate(fns) -> float:
        rates = {_decay_rate(f, base) for f in fns}
        if len(rates) != 1:
            raise ValueError(f"a Gram block needs one Gaussian decay rate, got {rates}")
        return rates.pop()

    def rule(fs, gs) -> dict:
        rate = block_rate(fs) + block_rate(gs)
        return {"center": params.center, "scale": math.sqrt(2.0 / rate)}

    return _inner_and_gram("gauss_hermite", rule)


def _harmonic_op(params: har.HarmonicParams, op: Callable, grid: GridSpec,
                 exact: bool) -> Callable:
    def apply(f):
        if isinstance(f, GridFunction):
            return op(params, f)
        if exact and isinstance(f, har.HermiteExpansion):
            return op(params, f)
        return op(params, grid.sample(f))

    return apply


def _keep_rate(f, out):
    """Multiplication by a fixed exponential keeps the Gaussian envelope rate."""
    rate = getattr(f, "gaussian_decay_rate", None)
    if rate is not None and callable(out) and not isinstance(
        out, (har.HermiteExpansion, GridFunction)
    ):
        return TestFunction(out, "metric-image", float(rate))
    return out


def harmonic_system(params: har.HarmonicParams,
                    route: str = "exact") -> Tuple[LadderSystem, MetricOperator]:
    """The whole-line model bound to the harness.

    route "exact" applies ladder maps to eigenfamily members through their
    Hermite coefficients; route "grid" forces every application through
    second-order central differences (a cross-validation mode with
    correspondingly looser achievable residuals).
    """
    if route not in ("exact", "grid"):
        raise ValueError(f"route must be 'exact' or 'grid', got {route!r}")
    exact = route == "exact"
    op_grid = har.operator_grid(params)
    eval_grid = har.default_grid(params) if exact else op_grid

    def bind(op):
        return _harmonic_op(params, op, op_grid, exact)

    theta = MetricOperator(
        apply=lambda f: _keep_rate(f, har.apply_Theta(params, f)),
        apply_inverse=lambda f: _keep_rate(f, har.apply_Theta_inv(params, f)),
        label="Theta = exp(-2 beta x)",
    )
    tests = harmonic_test_functions()
    narrow = [f for f in tests if f.gaussian_decay_rate == 4.0]
    law = None
    if beta_is_degenerate(params.beta):
        behavior = "constant"
    else:
        behavior = "increasing"

        def law(n: int) -> float:
            return math.sqrt(
                har.norm_squared_law(params, n, "varphi")
                * har.norm_squared_law(params, n, "psi")
            )

    def family(tilt):
        return lambda n_max: har.HermiteExpansion(params, tilt, np.eye(n_max + 1))

    inner, gram = _harmonic_quadrature(params)
    system = LadderSystem(
        label=f"harmonic/{route}",
        family_phi=family(params.beta),
        family_psi=family(-params.beta),
        lower_a=bind(har.apply_A),
        raise_b=bind(har.apply_B),
        lower_b_dag=bind(har.apply_B_dag),
        raise_a_dag=bind(har.apply_A_dag),
        eigens=EigenSequence(lambda n: float(n)),
        inner=inner,
        gram=gram,
        default_grid=eval_grid,
        test_functions=tests,
        quasi_pairs=[(narrow[0], narrow[1]), (narrow[0], narrow[0])],
        norm_behavior=behavior,
        norm_product_law=law,
    )
    return system, theta


# ---------------------------------------------------------------------------
# barrier model


def barrier_test_functions(params: bar.BarrierParams, tables: Callable):
    """Small finite combinations of varphi-modes (exactly analyzable),
    evaluated through the system's bar.shared_tables."""
    combos = {
        "varphi[0]+0.5*varphi[2]": {0: 1.0, 2: 0.5},
        "varphi[1]-0.3*varphi[3]": {1: 1.0, 3: -0.3},
        "0.7*varphi[0]+varphi[4]": {0: 0.7, 4: 1.0},
    }
    fns = []
    for label, weights in combos.items():
        coeffs = np.zeros(BARRIER_TEST_MODES + 1)
        for k, v in weights.items():
            coeffs[k] = v
        vec = bar.SpectralVector(coeffs)
        fns.append(TestFunction(bar.synthesize_phi(params, vec, tables), label))
    return fns


def barrier_quasi_pairs(params: bar.BarrierParams):
    """Sine-polynomial pairs: the interval model's dense test set."""

    def f(x):
        return bar.Phi_n(params, 0)(x) + 0.5 * bar.Phi_n(params, 2)(x)

    def g(x):
        return bar.Phi_n(params, 1)(x) - 0.3 * bar.Phi_n(params, 3)(x)

    return [(f, g), (g, f)]


def barrier_system(params: bar.BarrierParams,
                   n_trunc: int = bar.DEFAULT_TRUNCATION
                   ) -> Tuple[LadderSystem, MetricOperator]:
    """The double-barrier model bound to the harness, in coefficient space.

    A family block is the synthesis of the identity coefficient matrix. The
    system owns one bar.shared_tables: every analysis and synthesis it makes
    reads one sine table per node set, built once for the system's lifetime.
    """
    if not BARRIER_TEST_MODES <= n_trunc <= MAX_DEGREE:
        raise ValueError(f"n_trunc must be at least {BARRIER_TEST_MODES}, the highest "
                         f"mode of the test functions, and at most {MAX_DEGREE}, "
                         f"got {n_trunc}")

    tables = bar.shared_tables(params, n_trunc)

    def family(synthesize):
        return lambda n_max: synthesize(
            params, bar.SpectralVector(np.eye(n_max + 1)), tables)

    def spectral(shift, analyze, synthesize):
        def apply(f):
            coeffs = analyze(params, f, n_trunc, tables=tables)
            return synthesize(params, shift(params, coeffs), tables)

        return apply

    theta = MetricOperator(
        apply=lambda f: bar.apply_S_psi(params, f),
        apply_inverse=lambda f: bar.apply_S_phi(params, f),
        label="S_psi = exp(-2 beta x)",
    )
    inner, gram = _inner_and_gram("gauss_legendre",
                                  lambda fs, gs: {"interval": (params.a, params.b)})
    system = LadderSystem(
        label="barrier/spectral",
        family_phi=family(bar.synthesize_phi),
        family_psi=family(bar.synthesize_psi),
        lower_a=spectral(bar.apply_A_hat, bar.analyze_phi, bar.synthesize_phi),
        raise_b=spectral(bar.apply_B_hat, bar.analyze_phi, bar.synthesize_phi),
        # on psi-coefficients B_hat^dag lowers like A_hat, A_hat^dag raises like B_hat
        lower_b_dag=spectral(bar.apply_A_hat, bar.analyze_psi, bar.synthesize_psi),
        raise_a_dag=spectral(bar.apply_B_hat, bar.analyze_psi, bar.synthesize_psi),
        eigens=EigenSequence(lambda n: bar.rho_coefficient(params, n)),
        inner=inner,
        gram=gram,
        default_grid=GridSpec.over(params.a, params.b, BARRIER_GRID_POINTS),
        test_functions=barrier_test_functions(params, tables),
        quasi_pairs=barrier_quasi_pairs(params),
        norm_behavior="bounded",
        norm_bounds=(1.0 - 1e-12, math.exp(abs(params.beta) * params.width)),
    )
    return system, theta
