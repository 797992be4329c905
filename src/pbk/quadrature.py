"""Inner products on the line and on an interval.

Two rule families cover every integral in the package: Gauss-Hermite for
whole-line integrals of rapidly decaying functions, and Gauss-Legendre for
integrals over a finite interval (a, b).

The Hermite rule is stored with its weight function already factored out:
the stored weights are w_i * e^{x_i^2} (computed in log space so that large
rules do not underflow), optionally pushed through an affine map
x = scale * u + center. A plain weighted dot product of the stored weights
against integrand samples then approximates the ordinary integral
int f(x) dx, provided the integrand decays fast enough to be captured by
the rule's effective support. Choosing `scale` comparable to the integrand's
Gaussian width makes the compensated integrand polynomial-like and the rule
rapidly convergent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Optional, Tuple

import numpy as np
from scipy.special import roots_hermite

ADAPTIVE_START = 64
ADAPTIVE_CAP = 4096
MIN_REL_TOL = 1e-13


class QuadratureEvaluationError(ValueError):
    """An integrand produced a non-finite sample."""


class QuadratureConvergenceError(RuntimeError):
    """Adaptive node doubling hit the cap without the estimates settling.

    Carries the last two estimates so the caller can judge how bad the
    disagreement is.
    """

    def __init__(self, last: complex, previous: complex, rel_tol: float):
        self.last = last
        self.previous = previous
        self.rel_tol = rel_tol
        super().__init__(
            f"no convergence at {ADAPTIVE_CAP} nodes: "
            f"last={last!r}, previous={previous!r}, rel_tol={rel_tol}"
        )


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and strictly positive weights for a weighted dot-product integral."""

    kind: str
    nodes: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)
    interval: Optional[Tuple[float, float]] = None

    def __post_init__(self) -> None:
        if self.kind not in ("gauss_hermite", "gauss_legendre"):
            raise ValueError(f"unknown rule kind {self.kind!r}")
        object.__setattr__(self, "nodes", np.asarray(self.nodes, dtype=float))
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=float))
        if self.nodes.shape != self.weights.shape or self.nodes.ndim != 1:
            raise ValueError("nodes and weights must be 1-d arrays of equal length")
        if np.any(np.diff(self.nodes) <= 0.0):
            raise ValueError("nodes must be strictly increasing")
        if np.any(self.weights <= 0.0):
            raise ValueError("weights must be positive")
        if self.kind == "gauss_legendre":
            if self.interval is None:
                raise ValueError("gauss_legendre rule requires an interval")
            a, b = self.interval
            if not a < b:
                raise ValueError(f"interval must satisfy a < b, got ({a}, {b})")


@lru_cache(maxsize=32)
def _hermite_nodes(n: int) -> Tuple[np.ndarray, np.ndarray]:
    return roots_hermite(n)


@lru_cache(maxsize=32)
def _legendre_nodes(n: int) -> Tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(n)


def hermite_rule(n: int, center: float = 0.0, scale: float = 1.0) -> QuadratureRule:
    """Gauss-Hermite rule with the e^{-x^2} weight compensated away.

    Parameters
    ----------
    n : int
        Number of nodes requested.
    center, scale : float
        Affine map x = scale * u + center applied to the raw nodes; the
        weights pick up a factor `scale`.

    Notes
    -----
    The compensation w_i -> w_i e^{u_i^2} is evaluated as exp(log w_i + u_i^2).
    Raw weights that underflow to zero (|u| beyond ~27 on the largest rules)
    are dropped together with their nodes; integrands admissible for this
    rule are far below double precision there.
    """
    if scale <= 0.0:
        raise ValueError(f"scale must be positive, got {scale}")
    u, w = _hermite_nodes(n)
    keep = w > 0.0
    u, w = u[keep], w[keep]
    compensated = np.exp(np.log(w) + u * u)
    return QuadratureRule("gauss_hermite", scale * u + center, scale * compensated)


def legendre_rule(n: int, a: float, b: float) -> QuadratureRule:
    """Gauss-Legendre rule mapped to the interval (a, b)."""
    if not a < b:
        raise ValueError(f"interval must satisfy a < b, got ({a}, {b})")
    u, w = _legendre_nodes(n)
    half = 0.5 * (b - a)
    return QuadratureRule("gauss_legendre", a + half * (u + 1.0), half * w, interval=(a, b))


def inner_product(f: Callable, g: Callable, rule: QuadratureRule) -> complex:
    """<f, g> = int conj(f(x)) g(x) dx approximated by the rule.

    Parameters
    ----------
    f, g : callables
        Vectorized functions of a real array. The product conj(f) * g must
        decay within the rule's effective support (Hermite) or be bounded on
        the rule's interval (Legendre).

    Raises
    ------
    QuadratureEvaluationError
        If either function returns a non-finite sample; the message names
        the offending node.
    """
    fv = np.asarray(f(rule.nodes))
    gv = np.asarray(g(rule.nodes))
    for name, vals in (("f", fv), ("g", gv)):
        bad = ~np.isfinite(vals)
        if np.any(bad):
            where = rule.nodes[np.argmax(bad)]
            raise QuadratureEvaluationError(
                f"integrand {name} returned a non-finite sample at x={where!r}"
            )
    total = np.sum(rule.weights * np.conj(fv) * gv)
    return complex(total)


@lru_cache(maxsize=128)
def _make_rule(kind: str, n: int, center: float, scale: float,
               interval: Optional[Tuple[float, float]]) -> QuadratureRule:
    """One rule per adaptive step, shared between calls with read-only arrays."""
    if kind == "gauss_hermite":
        rule = hermite_rule(n, center=center, scale=scale)
    elif kind == "gauss_legendre":
        if interval is None:
            raise ValueError("gauss_legendre needs an interval")
        rule = legendre_rule(n, *interval)
    else:
        raise ValueError(f"unknown rule kind {kind!r}")
    rule.nodes.setflags(write=False)
    rule.weights.setflags(write=False)
    return rule


def adaptive_inner_product(
    f: Callable,
    g: Callable,
    kind: str,
    rel_tol: float,
    *,
    center: float = 0.0,
    scale: float = 1.0,
    interval: Optional[Tuple[float, float]] = None,
) -> complex:
    """Inner product with node doubling from 64 up to 4096 nodes.

    Successive estimates must differ by less than rel_tol relative to
    max(1, |estimate|); the unit floor makes the criterion meaningful for
    integrals that vanish (orthogonality checks). Returns the last estimate.

    Raises
    ------
    QuadratureConvergenceError
        If the cap is reached while the last two estimates still disagree.
    """
    if rel_tol < MIN_REL_TOL:
        raise ValueError(f"rel_tol must be >= {MIN_REL_TOL}, got {rel_tol}")
    previous = None
    estimate = None
    n = ADAPTIVE_START
    while n <= ADAPTIVE_CAP:
        rule = _make_rule(kind, n, center, scale, interval)
        previous, estimate = estimate, inner_product(f, g, rule)
        if previous is not None:
            denom = max(1.0, abs(estimate), abs(previous))
            if abs(estimate - previous) <= rel_tol * denom:
                return estimate
        n *= 2
    raise QuadratureConvergenceError(estimate, previous, rel_tol)
