"""Ready-made LadderSystem bindings for the two concrete models.

The harmonic model plugs in either through exact Hermite-coefficient algebra
(route "exact") or through finite-difference operator application on a dense
grid (route "grid"). The barrier model always works in sine-coefficient
space, where its ladder maps are defined. Each system owns its metric
Theta = e^{-2 beta x}, its tolerances and its norm rule, so the check
battery needs nothing else.

Generic test functions (plain callables) are sampled onto the operator grid
and differentiated numerically even under the exact route, since coefficient
algebra only applies to functions given as expansions.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Callable, Tuple

import numpy as np

from . import barrier as bar
from . import harmonic as har
from .grids import GridFunction, GridSpec, shared_mode_tables
from .market import beta_is_degenerate
from .pb_core import EigenSequence, LadderSystem, MetricOperator, TestFunction
from .quadrature import adaptive_gram, adaptive_inner_product, hermite_rule, legendre_rule
from .specialfn import MAX_DEGREE

BARRIER_GRID_POINTS = 4001

TEST_WIDTHS = (0.5, 1.0, 2.0)


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


def _inner_and_gram(rules: Callable) -> Tuple[Callable, Callable]:
    """The model's inner product and Gram matrix.

    rules(fs, gs) gives the rule family for a block of functions in each
    slot; an inner product is the block of one and one.
    """

    def inner(f, g):
        return adaptive_inner_product(f, g, rules([f], [g]))

    def gram(fs, gs) -> np.ndarray:
        return adaptive_gram(fs, gs, rules(fs, gs))

    return inner, gram


def _harmonic_quadrature(params: har.HarmonicParams) -> Tuple[Callable, Callable]:
    """Hermite rules centred on the eigenfunctions, scaled to the decay rates."""
    base = 1.0 / (2.0 * params.sigma**2)

    def block_rate(fns) -> float:
        rates = {_decay_rate(f, base) for f in fns}
        if len(rates) != 1:
            raise ValueError(f"a Gram block needs one Gaussian decay rate, got {rates}")
        return rates.pop()

    def rules(fs, gs) -> Callable:
        rate = block_rate(fs) + block_rate(gs)
        return partial(hermite_rule, center=params.center, scale=math.sqrt(2.0 / rate))

    return _inner_and_gram(rules)


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


def _harmonic_norm_residual(params: har.HarmonicParams) -> Callable[[np.ndarray], float]:
    """|p - 1| at beta = 0, where the families coincide; else the gap to the
    norm law plus any backsliding of the products, which grow with n. A NaN
    product gives a NaN residual, which CheckResult refuses."""
    if beta_is_degenerate(params.beta):
        return lambda products: float(np.max(np.abs(products - 1.0)))

    def residual(products: np.ndarray) -> float:
        law = np.array([math.sqrt(har.norm_squared_law(params, n, "varphi")
                                  * har.norm_squared_law(params, n, "psi"))
                        for n in range(products.size)])
        gap = np.max(np.abs(products - law) / law)
        return float(np.maximum(gap, np.max(products[:-1] - products[1:], initial=0.0)))

    return residual


def harmonic_system(params: har.HarmonicParams, route: str = "exact") -> LadderSystem:
    """The whole-line model bound to the harness.

    route "exact" applies ladder maps to eigenfamily members through their
    Hermite coefficients; route "grid" forces every application through
    second-order central differences (a cross-validation mode with
    correspondingly looser achievable residuals, set in its tolerances).

    A family block is the identity coefficient matrix. The system owns one
    grids.shared_mode_tables over har.mode_table, one row ahead: every family
    block and every expansion a map makes of one reads one Hermite table per
    node set, built once for the system's lifetime and grown only when more
    rows are asked for. Operator outputs sit on interiors of the operator
    grid and read column slices of its table.
    """
    if route not in ("exact", "grid"):
        raise ValueError(f"route must be 'exact' or 'grid', got {route!r}")
    exact = route == "exact"
    op_grid = har.operator_grid(params)
    eval_grid = har.default_grid(params) if exact else op_grid

    def bind(op):
        return _harmonic_op(params, op, op_grid, exact)

    # the grid route funnels everything through second-order central differences;
    # achievable residuals scale with h^2 times derivative magnitudes
    tolerances = {} if exact else {"ladder": 2e-5, "vacua": 1e-4, "number_operator": 1e-3,
                                   "theta_intertwining": 1e-4}
    if beta_is_degenerate(params.beta):
        tolerances["norm_growth"] = 1e-10  # products of 1, up to quadrature rounding
    tests = harmonic_test_functions()
    narrow = [f for f in tests if f.gaussian_decay_rate == 4.0]

    def one_row_ahead(p, n, x):
        """Rows 0..n + 1: a raised block asks for the next row on the same points."""
        return har.mode_table(p, min(n + 1, MAX_DEGREE), x)

    tables = shared_mode_tables(one_row_ahead, params, 0, op_grid)

    def family(tilt):
        return lambda n_max: har.HermiteExpansion(params, tilt, np.eye(n_max + 1), tables)

    inner, gram = _harmonic_quadrature(params)
    return LadderSystem(
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
        metric=MetricOperator(lambda f: _keep_rate(f, har.apply_Theta(params, f)),
                              lambda f: _keep_rate(f, har.apply_Theta_inv(params, f))),
        norm_residual=_harmonic_norm_residual(params),
        default_grid=eval_grid,
        test_functions=tests,
        quasi_pairs=[(narrow[0], narrow[1]), (narrow[0], narrow[0])],
        tolerances=tolerances,
    )


# ---------------------------------------------------------------------------
# barrier model


def barrier_test_functions(params: bar.BarrierParams, tables: Callable):
    """Small finite combinations of varphi-modes (exactly analyzable),
    evaluated through the system's shared tables."""
    combos = {"varphi[0]+0.5*varphi[2]": [1.0, 0.0, 0.5, 0.0, 0.0],
              "varphi[1]-0.3*varphi[3]": [0.0, 1.0, 0.0, -0.3, 0.0],
              "0.7*varphi[0]+varphi[4]": [0.7, 0.0, 0.0, 0.0, 1.0]}
    return [TestFunction(bar.synthesize_phi(params, bar.SpectralVector(np.array(c)), tables),
                         label) for label, c in combos.items()]


def barrier_quasi_pairs(params: bar.BarrierParams):
    """Sine-polynomial pairs: the interval model's dense test set."""

    def f(x):
        return bar.Phi_n(params, 0)(x) + 0.5 * bar.Phi_n(params, 2)(x)

    def g(x):
        return bar.Phi_n(params, 1)(x) - 0.3 * bar.Phi_n(params, 3)(x)

    return [(f, g), (g, f)]


def barrier_system(params: bar.BarrierParams) -> LadderSystem:
    """The double-barrier model bound to the harness, in coefficient space.

    A family block is the synthesis of the identity coefficient matrix. The
    system owns one grids.shared_mode_tables over bar.mode_table: every
    analysis and synthesis it makes reads one sine table per node set, built
    once for the system's lifetime. The ladder maps act on bar.DEFAULT_TRUNCATION + 1 coefficients. The norm
    products lie between 1 and e^{|beta| L}; the residual is their overshoot
    of those bounds, relative to the upper one.
    """
    tables = shared_mode_tables(bar.mode_table, params, bar.DEFAULT_TRUNCATION)

    def family(synthesize):
        return lambda n_max: synthesize(
            params, bar.SpectralVector(np.eye(n_max + 1)), tables)

    def spectral(shift, analyze, synthesize):
        def apply(f):
            coeffs = analyze(params, f, tables=tables)
            return synthesize(params, shift(params, coeffs), tables)

        return apply

    rules = partial(legendre_rule, a=params.a, b=params.b)
    growth = abs(params.beta) * params.width  # e^growth is not a float above 709.78
    lo, hi = 1.0 - 1e-12, math.exp(growth) if growth < 709.78 else math.inf

    def norm_residual(products: np.ndarray) -> float:
        """The overshoot of the bounds; NaN for a NaN product, as CheckResult refuses."""
        return float(np.max(np.maximum(products - hi, lo - products), initial=0.0)) / hi

    inner, gram = _inner_and_gram(lambda fs, gs: rules)
    return LadderSystem(
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
        metric=MetricOperator(partial(bar.apply_S_psi, params), partial(bar.apply_S_phi, params)),
        norm_residual=norm_residual,
        default_grid=GridSpec.over(params.a, params.b, BARRIER_GRID_POINTS),
        test_functions=barrier_test_functions(params, tables),
        quasi_pairs=barrier_quasi_pairs(params),
    )
