"""Ready-made LadderSystem bindings for the two concrete models.

The harmonic model plugs in either through exact Hermite-coefficient algebra
(route "exact") or through finite differences on a dense grid (route "grid"):
eighth order for the ladder maps, second order for the generators. The
barrier model always works in sine-coefficient space, where its ladder maps
are defined. Each system carries its model's beta, the tilt of the metric
Theta = e^{-2 beta x} both share, its eigenvalue function, its tolerances
and its norm rule, so the check battery needs nothing else.

Each system's expansion is its model's expansion class, a
harmonic.HermiteExpansion or a barrier.SineExpansion, bound to the model's
params and to one grids.shared_moments over the model's moments: the
battery's tilts 0, +-beta and +-2 beta are built in one stacked call, once
for the system's lifetime, at the NORM_N_MAX_CAP + 1 coefficients of the
quasi-basis families, the largest the battery pairs, and read as leading
blocks. pb_core builds the families, the test block and the quasi pairs
from it and takes every inner product, Gram matrix and expansion residual
in coefficient space. Only the harmonic grid route's maps sample, onto its
operator grid.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Callable

import numpy as np

from . import barrier as bar
from . import harmonic as har
from .grids import GridFunction, shared_mode_tables, shared_moments
from .market import beta_is_degenerate
from .pb_core import NORM_N_MAX_CAP, LadderSystem
# not called here: perfbench/tracing.py patches this name in this module
from .quadrature import adaptive_inner_product  # noqa: F401
from .specialfn import MAX_DEGREE


def _harmonic_norm_residual(params: har.HarmonicParams) -> Callable[[np.ndarray], float]:
    """|p - 1| at beta = 0, where the families coincide; else the gap to the
    norm law plus any backsliding of the products, which grow with n. A NaN
    product gives a NaN residual, which CheckResult refuses."""
    if beta_is_degenerate(params.beta):
        return lambda products: float(np.max(np.abs(products - 1.0)))

    def residual(products: np.ndarray) -> float:
        n = np.arange(products.size)
        law = np.sqrt(har.norm_squared_law(params, n, "varphi")
                      * har.norm_squared_law(params, n, "psi"))
        gap = np.max(np.abs(products - law) / law)
        return float(np.maximum(gap, np.max(products[:-1] - products[1:], initial=0.0)))

    return residual


def harmonic_system(params: har.HarmonicParams, route: str = "exact") -> LadderSystem:
    """The whole-line model bound to the harness.

    route "exact" applies ladder maps to eigenfamily members through their
    Hermite coefficients; route "grid" forces every application through the
    eighth-order central first derivative on the 1001-point operator grid (a
    cross-validation mode whose ladder residuals get a looser tolerance).

    The system's expansions are HermiteExpansions, so inner products, Gram
    matrices and the exact route's residuals come from har.moments: its
    battery evaluates nothing. The grid route samples each map input onto
    the operator grid and each reference on an output's grid, through one
    grids.shared_mode_tables over har.mode_table, one row ahead, that every
    expansion of the system carries: one Hermite table per node set, built
    once for the system's lifetime and grown only when more rows are asked
    for. Operator outputs sit on interiors of the operator grid and read
    column slices of its table.
    """
    if route not in ("exact", "grid"):
        raise ValueError(f"route must be 'exact' or 'grid', got {route!r}")
    exact = route == "exact"
    op_grid = har.operator_grid(params)

    def bind(op):
        if exact:
            return partial(op, params)
        return lambda f: op(params, f if isinstance(f, GridFunction) else op_grid.sample(f))

    # the grid route funnels every ladder map through the eighth-order central
    # first derivative; its residuals scale with h^8 times derivative magnitudes
    tolerances = {} if exact else {"ladder": 1e-6}
    if beta_is_degenerate(params.beta):
        tolerances["norm_growth"] = 1e-10  # products of 1, up to rounding

    def one_row_ahead(p, n, x):
        """Rows 0..n + 1: a raised block asks for the next row on the same points."""
        return har.mode_table(p, min(n + 1, MAX_DEGREE), x)

    return LadderSystem(
        label=f"harmonic/{route}",
        expansion=partial(har.HermiteExpansion, params,
                          tables=shared_mode_tables(one_row_ahead, params, op_grid),
                          matrices=shared_moments(har.moments, params, NORM_N_MAX_CAP + 1)),
        lower_a=bind(har.apply_A),
        raise_b=bind(har.apply_B),
        lower_b_dag=bind(har.apply_B_dag),
        raise_a_dag=bind(har.apply_A_dag),
        eigens=lambda n: n * 1.0,
        beta=params.beta,
        norm_residual=_harmonic_norm_residual(params),
        tolerances=tolerances,
    )


# ---------------------------------------------------------------------------
# barrier model


def barrier_system(params: bar.BarrierParams) -> LadderSystem:
    """The double-barrier model bound to the harness, in coefficient space.

    Each map checks its input's tilt through bar.analyze_phi or
    bar.analyze_psi, which return an expansion at the family's own tilt as it
    is and refuse any other with a ValueError, and shifts its coefficients:
    lowering keeps their count, raising adds one. The system's expansions are
    bar.SineExpansions, so inner products, Gram matrices and residuals all
    come from the closed-form bar.moments: the battery evaluates no function
    and builds no sine table. The norm products lie between 1 and
    e^{|beta| L}; the residual is their overshoot of those bounds, relative
    to the upper one.
    """
    def spectral(shift, analyze):
        return lambda f: shift(params, analyze(params, f))

    growth = abs(params.beta) * params.width  # e^growth is not a float above 709.78
    lo, hi = 1.0 - 1e-12, math.exp(growth) if growth < 709.78 else math.inf

    def norm_residual(products: np.ndarray) -> float:
        """The overshoot of the bounds; NaN for a NaN product, as CheckResult refuses."""
        return float(np.max(np.maximum(products - hi, lo - products), initial=0.0)) / hi

    return LadderSystem(
        label="barrier/spectral",
        expansion=partial(bar.SineExpansion, params,
                          matrices=shared_moments(bar.moments, params, NORM_N_MAX_CAP + 1)),
        lower_a=spectral(bar.apply_A_hat, bar.analyze_phi),
        raise_b=spectral(bar.apply_B_hat, bar.analyze_phi),
        # on psi-coefficients B_hat^dag lowers like A_hat, A_hat^dag raises like B_hat
        lower_b_dag=spectral(bar.apply_A_hat, bar.analyze_psi),
        raise_a_dag=spectral(bar.apply_B_hat, bar.analyze_psi),
        eigens=partial(bar.rho_coefficient, params),
        beta=params.beta,
        norm_residual=norm_residual,
    )
