"""Ready-made LadderSystem bindings for the two concrete models.

The harmonic model plugs in either through exact Hermite-coefficient algebra
(route "exact") or through finite differences on a dense grid (route "grid"):
fourth order for the ladder maps, second order for the generators. The
barrier model always works in sine-coefficient space, where its ladder maps
are defined. Each system carries its model's beta, the tilt of the metric
Theta = e^{-2 beta x} both share, its eigenvalue function, its tolerances
and its norm rule, so the check battery needs nothing else.

Both systems test on the same dense set, finite combinations of their own
modes (TEST_COMBOS, QUASI_COMBOS): one test block of varphi-combinations
and two quasi-basis pairs of untilted mode polynomials. Every function
either battery integrates is an expansion of its model's modes, a
harmonic.HermiteExpansion or a barrier.SineExpansion, so both take their
inner products and Gram matrices in coefficient space (grids.inner,
grids.gram) from the model's moment matrix, with no quadrature rule, and
pb_core takes the residuals of the expansions the maps return from it too.
Only the harmonic grid route's maps sample, onto its operator grid.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Callable

import numpy as np

from . import barrier as bar
from . import harmonic as har
from .grids import GridFunction, gram, inner, shared_mode_tables
from .market import beta_is_degenerate
from .pb_core import LadderSystem
# not called here: perfbench/tracing.py patches this name in this module
from .quadrature import adaptive_inner_product  # noqa: F401
from .specialfn import MAX_DEGREE

# The dense set both batteries test on, read as coefficients of each model's
# own modes: finite varphi-combinations for the metric checks, and untilted
# mode polynomials for the quasi-basis pairs.
TEST_COMBOS = ((1.0, 0.0, 0.5, 0.0, 0.0),   # varphi_0 + 0.5 varphi_2
               (0.0, 1.0, 0.0, -0.3, 0.0),  # varphi_1 - 0.3 varphi_3
               (0.7, 0.0, 0.0, 0.0, 1.0))   # 0.7 varphi_0 + varphi_4
QUASI_COMBOS = ((1.0, 0.0, 0.5), (0.0, 1.0, 0.0, -0.3))


def _family(expansion: Callable, tilt: float) -> Callable:
    """family(n_max): members 0..n_max at tilt, as the identity coefficient matrix."""
    return lambda n_max: expansion(tilt, np.eye(n_max + 1))


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

    A family block is the identity coefficient matrix. Inner products and
    Gram matrices are grids.inner and grids.gram, from har.moments, and so
    are the exact route's residuals: its battery evaluates nothing. The grid
    route samples each map input onto the operator grid and each reference
    on an output's grid, through one grids.shared_mode_tables over
    har.mode_table, one row ahead: one Hermite table per node set, built once
    for the system's lifetime and grown only when more rows are asked for.
    Operator outputs sit on interiors of the operator grid and read column
    slices of its table.
    """
    if route not in ("exact", "grid"):
        raise ValueError(f"route must be 'exact' or 'grid', got {route!r}")
    exact = route == "exact"
    op_grid = har.operator_grid(params)

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
        tolerances["norm_growth"] = 1e-10  # products of 1, up to rounding

    def one_row_ahead(p, n, x):
        """Rows 0..n + 1: a raised block asks for the next row on the same points."""
        return har.mode_table(p, min(n + 1, MAX_DEGREE), x)

    expansion = partial(har.HermiteExpansion, params,
                        tables=shared_mode_tables(one_row_ahead, params, 0, op_grid))
    f, g = (expansion(0.0, c) for c in QUASI_COMBOS)
    return LadderSystem(
        label=f"harmonic/{route}",
        family_phi=_family(expansion, params.beta),
        family_psi=_family(expansion, -params.beta),
        lower_a=bind(har.apply_A),
        raise_b=bind(har.apply_B),
        lower_b_dag=bind(har.apply_B_dag),
        raise_a_dag=bind(har.apply_A_dag),
        eigens=lambda n: n * 1.0,
        inner=inner,
        gram=gram,
        beta=params.beta,
        norm_residual=_harmonic_norm_residual(params),
        test_functions=expansion(params.beta, TEST_COMBOS),
        quasi_pairs=[(f, g), (g, f)],
        tolerances=tolerances,
    )


# ---------------------------------------------------------------------------
# barrier model


def barrier_system(params: bar.BarrierParams) -> LadderSystem:
    """The double-barrier model bound to the harness, in coefficient space.

    A family block is the identity coefficient matrix. Each map analyzes
    its input through bar.analyze_phi or bar.analyze_psi and acts on
    bar.DEFAULT_TRUNCATION + 1 coefficients. Every function the battery
    handles is a bar.SineExpansion, so inner products, Gram matrices and
    residuals all come from the closed-form bar.moments: the battery
    evaluates no function and builds no sine table. The norm products lie
    between 1 and e^{|beta| L}; the residual is their overshoot of those
    bounds, relative to the upper one.
    """
    expansion = partial(bar.SineExpansion, params)

    def spectral(shift, analyze, tilt):
        def apply(f):
            return expansion(tilt, shift(params, analyze(params, f)).coeffs)

        return apply

    growth = abs(params.beta) * params.width  # e^growth is not a float above 709.78
    lo, hi = 1.0 - 1e-12, math.exp(growth) if growth < 709.78 else math.inf

    def norm_residual(products: np.ndarray) -> float:
        """The overshoot of the bounds; NaN for a NaN product, as CheckResult refuses."""
        return float(np.max(np.maximum(products - hi, lo - products), initial=0.0)) / hi

    f, g = (expansion(0.0, c) for c in QUASI_COMBOS)
    return LadderSystem(
        label="barrier/spectral",
        family_phi=_family(expansion, params.beta),
        family_psi=_family(expansion, -params.beta),
        lower_a=spectral(bar.apply_A_hat, bar.analyze_phi, params.beta),
        raise_b=spectral(bar.apply_B_hat, bar.analyze_phi, params.beta),
        # on psi-coefficients B_hat^dag lowers like A_hat, A_hat^dag raises like B_hat
        lower_b_dag=spectral(bar.apply_A_hat, bar.analyze_psi, -params.beta),
        raise_a_dag=spectral(bar.apply_B_hat, bar.analyze_psi, -params.beta),
        eigens=partial(bar.rho_coefficient, params),
        inner=inner,
        gram=gram,
        beta=params.beta,
        norm_residual=norm_residual,
        test_functions=expansion(params.beta, TEST_COMBOS),
        quasi_pairs=[(f, g), (g, f)],
    )
