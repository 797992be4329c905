"""Ready-made LadderSystem bindings for the two concrete models.

The harmonic model plugs in either through exact Hermite-coefficient algebra
(route "exact") or through finite differences on a dense grid (route "grid"):
fourth order for the ladder maps, second order for the generators. The
barrier model always works in sine-coefficient space, where its ladder maps
are defined. Each system carries its model's beta, the tilt of the metric
Theta = e^{-2 beta x} both share, its eigenvalue function, its tolerances
and its norm rule, so the check battery needs nothing else.

The harmonic test functions are TestFunctions, tagged with the Gaussian
envelope rate that picks the quadrature scale. They are sampled onto the
operator grid and differentiated numerically even under the exact route,
since coefficient algebra only applies to functions given as expansions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Tuple

import numpy as np

from . import barrier as bar
from . import harmonic as har
from .grids import GridFunction, GridSpec, multiply_exponential, shared_mode_tables
from .market import beta_is_degenerate
from .pb_core import LadderSystem
from .quadrature import adaptive_gram, adaptive_inner_product, hermite_rule, legendre_rule
from .specialfn import MAX_DEGREE

BARRIER_GRID_POINTS = 4001

TEST_WIDTHS = (0.5, 1.0, 2.0)


@dataclass(frozen=True)
class TestFunction:
    """A dense-set test function, tagged with its Gaussian envelope rate.

    The rate (|f(x)| ~ e^{-rate x^2}) lets whole-line inner products pick a
    quadrature scale that keeps the compensated integrand decaying. An
    exponential tilt leaves the rate alone, so a metric image keeps it.
    """

    fn: Callable
    gaussian_decay_rate: float

    def __call__(self, x):
        return self.fn(x)

    def tilted(self, rate: float) -> "TestFunction":
        """e^{rate x} times the function, with the same envelope rate."""
        return TestFunction(multiply_exponential(self.fn, rate), self.gaussian_decay_rate)


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

        fns.append(TestFunction(gauss, rate))
        fns.append(TestFunction(x_gauss, rate))
    return fns


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
    """Hermite rules centred on the eigenfunctions, scaled to the decay rates:
    a TestFunction's own, else the eigenfunctions' 1 / (2 sigma^2)."""
    base = 1.0 / (2.0 * params.sigma**2)

    def block_rate(fns) -> float:
        rates = {getattr(f, "gaussian_decay_rate", base) for f in fns}
        if len(rates) != 1:
            raise ValueError(f"a Gram block needs one Gaussian decay rate, got {rates}")
        return rates.pop()

    def rules(fs, gs) -> Callable:
        rate = block_rate(fs) + block_rate(gs)
        return partial(hermite_rule, center=params.center, scale=math.sqrt(2.0 / rate))

    return _inner_and_gram(rules)


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
    Hermite coefficients; route "grid" forces every application through the
    fourth-order central first derivative on the operator grid (a
    cross-validation mode whose ladder residuals get a looser tolerance).

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
        def apply(f):
            if isinstance(f, GridFunction) or (exact and isinstance(f, har.HermiteExpansion)):
                return op(params, f)
            return op(params, op_grid.sample(f))

        return apply

    # the grid route funnels every ladder map through the fourth-order central
    # first derivative; its residuals scale with h^4 times derivative magnitudes
    tolerances = {} if exact else {"ladder": 1e-6}
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
        eigens=lambda n: n * 1.0,
        inner=inner,
        gram=gram,
        beta=params.beta,
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
    combos = ([1.0, 0.0, 0.5, 0.0, 0.0],   # varphi_0 + 0.5 varphi_2
              [0.0, 1.0, 0.0, -0.3, 0.0],  # varphi_1 - 0.3 varphi_3
              [0.7, 0.0, 0.0, 0.0, 1.0])   # 0.7 varphi_0 + varphi_4
    return [bar.synthesize_phi(params, bar.SpectralVector(np.array(c)), tables)
            for c in combos]


def barrier_system(params: bar.BarrierParams) -> LadderSystem:
    """The double-barrier model bound to the harness, in coefficient space.

    A family block is the synthesis of the identity coefficient matrix. The
    system owns one grids.shared_mode_tables over bar.mode_table: every
    analysis and synthesis it makes, and the untilted sine polynomials of its
    quasi-basis pairs, read one sine table per node set, built once for the
    system's lifetime. The ladder maps act on bar.DEFAULT_TRUNCATION + 1
    coefficients. The norm products lie between 1 and e^{|beta| L}; the
    residual is their overshoot of those bounds, relative to the upper one.
    """
    tables = shared_mode_tables(bar.mode_table, params, bar.DEFAULT_TRUNCATION)

    def sines(coeffs):  # the interval model's dense test set, untilted
        return bar.synthesize(params, bar.SpectralVector(np.array(coeffs)), 0.0, tables)

    f, g = sines([1.0, 0.0, 0.5]), sines([0.0, 1.0, 0.0, -0.3])

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
        eigens=partial(bar.rho_coefficient, params),
        inner=inner,
        gram=gram,
        beta=params.beta,
        norm_residual=norm_residual,
        default_grid=GridSpec.over(params.a, params.b, BARRIER_GRID_POINTS),
        test_functions=barrier_test_functions(params, tables),
        quasi_pairs=[(f, g), (g, f)],
    )
