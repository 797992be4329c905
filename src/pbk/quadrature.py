"""Inner products on the line and on an interval.

Two rule families cover every integral in the package: Gauss-Hermite for
whole-line integrals of rapidly decaying functions, and Gauss-Legendre for
integrals over a finite interval (a, b).

The Hermite rule is built here, by Newton's method on the normalized
Hermite recurrence, and stored with its weight function already factored
out: the stored weights are w_i e^{x_i^2} = 1 / (n psi_{n-1}(x_i)^2), formed
directly so that large rules do not underflow, optionally pushed through an
affine map x = scale * u + center. Nodes whose raw weight w_i is not a
normal double (|x| beyond about 26.5) are dropped. A plain weighted dot
product of the stored weights against integrand samples then approximates
the ordinary integral int f(x) dx, provided the integrand decays fast
enough to be captured by the rule's effective support. Choosing `scale`
comparable to the integrand's Gaussian width makes the compensated
integrand polynomial-like and the rule rapidly convergent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .specialfn import _hermite_pair

ADAPTIVE_START = 64
ADAPTIVE_CAP = 4096
ADAPTIVE_REL_TOL = 1e-12


class QuadratureEvaluationError(ValueError):
    """An integrand produced a non-finite sample."""


class QuadratureConvergenceError(RuntimeError):
    """Adaptive node doubling hit the cap without the estimates settling.

    Carries the last two estimates so the caller can judge how bad the
    disagreement is.
    """

    def __init__(self, last: complex, previous: complex):
        self.last = last
        self.previous = previous
        super().__init__(
            f"no convergence at {ADAPTIVE_CAP} nodes: "
            f"last={last!r}, previous={previous!r}, rel_tol={ADAPTIVE_REL_TOL}"
        )


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and strictly positive weights for a weighted dot-product integral."""

    nodes: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "nodes", np.asarray(self.nodes, dtype=float))
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=float))
        if self.nodes.shape != self.weights.shape or self.nodes.ndim != 1:
            raise ValueError("nodes and weights must be 1-d arrays of equal length")
        if np.any(np.diff(self.nodes) <= 0.0):
            raise ValueError("nodes must be strictly increasing")
        if np.any(self.weights <= 0.0):
            raise ValueError("weights must be positive")


# Raw Gauss-Hermite weights are below sqrt(pi) e^{-x^2}, so no node with
# x^2 beyond this bound keeps a normal raw weight; its guess is not refined.
_HERMITE_X2_LIMIT = 720.0
_HERMITE_NEWTON_CAP = 16


def _tricomi_guesses(n: int) -> np.ndarray:
    """Tricomi's estimates of the positive zeros of H_n, ascending.

    With nu = 2n + 1 and m = n // 2, the k-th zero is close to
    sqrt(nu t - (5 / (4 (1 - t)^2) - 1 / (1 - t) - 1/4) / (3 nu)), where
    t = cos(T / 2)^2 and T - sin T = (4m - 4k + 3) pi / nu (Gatteschi 2002,
    eq. 2.1; Townsend, Trogdon & Olver 2015).
    """
    m = n // 2
    nu = 2.0 * n + 1.0
    rhs = (4.0 * m - 4.0 * np.arange(1, m + 1) + 3.0) * math.pi / nu
    theta = np.full(m, 0.5 * math.pi)
    for _ in range(10):
        theta = theta - (theta - np.sin(theta) - rhs) / (1.0 - np.cos(theta))
    t = np.cos(0.5 * theta) ** 2
    return np.sqrt(nu * t - (1.25 / (1.0 - t) ** 2 - 1.0 / (1.0 - t) - 0.25) / (3.0 * nu))


@lru_cache(maxsize=32)
def _hermite_nodes(n: int) -> Tuple[np.ndarray, np.ndarray]:
    """Gauss-Hermite nodes and compensated weights w e^{x^2}, ascending.

    Newton's method on psi_n, with psi_n' = sqrt(2n) psi_{n-1} - x psi_n,
    runs on the nonnegative nodes at once until no step moves a node by more
    than a few ulps. The compensated weight 1 / (n psi_{n-1}^2) is taken as
    2 / psi_n'^2 from the last step's slope: psi_n'' = (x^2 - 2n - 1) psi_n
    vanishes at a zero, so the weight does not inherit the node's rounding.
    Nodes whose raw weight w is not a normal double are dropped. O(n) memory.
    """
    if n < 1:
        raise ValueError(f"a Gauss-Hermite rule needs n >= 1 nodes, got {n}")
    x = _tricomi_guesses(n)
    if n % 2:
        x = np.concatenate(([0.0], x))
    x = x[x * x < _HERMITE_X2_LIMIT]
    for _ in range(_HERMITE_NEWTON_CAP):
        prev, cur = _hermite_pair(n, x)
        slope = math.sqrt(2.0 * n) * prev - x * cur
        step = cur / slope
        x = x - step
        if np.all(np.abs(step) <= 4.0 * np.finfo(float).eps * np.maximum(x, 1.0)):
            break
    else:
        raise ArithmeticError(f"Gauss-Hermite nodes for n={n} did not settle "
                              f"in {_HERMITE_NEWTON_CAP} Newton steps")
    w = 2.0 / (slope * slope)
    keep = w * np.exp(-x * x) >= np.finfo(float).tiny
    x, w = x[keep], w[keep]
    first = n % 2  # the zero node of an odd rule is not mirrored
    return (np.concatenate((-x[first:][::-1], x)),
            np.concatenate((w[first:][::-1], w)))


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
    The compensated weight w_i e^{u_i^2} is formed directly as
    1 / (n psi_{n-1}(u_i)^2), never from the raw weight w_i. Nodes whose raw
    weight is not a normal double (|u| beyond about 26.5, from n = 371 on)
    are dropped; integrands admissible for this rule are far below double
    precision there.
    """
    if scale <= 0.0:
        raise ValueError(f"scale must be positive, got {scale}")
    u, w = _hermite_nodes(n)
    return QuadratureRule(scale * u + center, scale * w)


def legendre_rule(n: int, a: float, b: float) -> QuadratureRule:
    """Gauss-Legendre rule mapped to the interval (a, b)."""
    if not a < b:
        raise ValueError(f"interval must satisfy a < b, got ({a}, {b})")
    u, w = _legendre_nodes(n)
    half = 0.5 * (b - a)
    return QuadratureRule(a + half * (u + 1.0), half * w)


def _samples(fn: Callable, name: str, nodes: np.ndarray) -> np.ndarray:
    vals = np.asarray(fn(nodes))
    bad = ~np.isfinite(vals)
    if np.any(bad):
        where = nodes[np.nonzero(bad)[-1][0]]
        raise QuadratureEvaluationError(
            f"integrand {name} returned a non-finite sample at x={where!r}"
        )
    return vals


def inner_product(f: Callable, g: Callable, rule: QuadratureRule):
    """<f, g> = int conj(f(x)) g(x) dx approximated by the rule.

    Parameters
    ----------
    f, g : callables
        Vectorized functions of a real array. The product conj(f) * g must
        decay within the rule's effective support (Hermite) or be bounded on
        the rule's interval (Legendre). Rows are paired: row i of a block
        (values of shape (k, nodes)) goes with row i of the other slot, and a
        single function with every row. Two single functions give a complex,
        anything else the array of the k paired products.

    Raises
    ------
    QuadratureEvaluationError
        If either function returns a non-finite sample; the message names
        the offending node.
    """
    fv = _samples(f, "f", rule.nodes)
    gv = _samples(g, "g", rule.nodes)
    total = np.sum(rule.weights * np.conj(fv) * gv, axis=-1)
    return total if total.ndim else complex(total)


def gram_matrix(fs: Sequence[Callable], gs: Sequence[Callable],
                rule: QuadratureRule) -> np.ndarray:
    """The matrix of <f_i, g_j> on one rule: conj(F) diag(w) G^T.

    Every function is sampled once. A function gives one row of F (or G),
    a block (values of shape (k, nodes)) its k rows, in order.
    Raises QuadratureEvaluationError like `inner_product`.
    """
    f_rows = _rows(fs, "f", rule.nodes)
    g_rows = _rows(gs, "g", rule.nodes)
    return (np.conj(f_rows) * rule.weights) @ g_rows.T


def _rows(fns: Sequence[Callable], name: str, nodes: np.ndarray) -> np.ndarray:
    """Each function's samples as one row, each block's as its rows, stacked."""
    return np.concatenate([np.atleast_2d(_samples(fn, f"{name}[{i}]", nodes))
                           for i, fn in enumerate(fns)])


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


def _adaptive(estimate: Callable, kind: str, center: float, scale: float,
              interval: Optional[Tuple[float, float]]):
    """The node doubling of both adaptive entry points; estimate(rule) may
    return a scalar or an array, and every entry must pass the test."""
    previous = None
    current = None
    n = ADAPTIVE_START
    while n <= ADAPTIVE_CAP:
        rule = _make_rule(kind, n, center, scale, interval)
        previous, current = current, estimate(rule)
        if previous is not None:
            change = np.abs(current - previous)
            denom = np.maximum(1.0, np.maximum(np.abs(current), np.abs(previous)))
            if np.all(change <= ADAPTIVE_REL_TOL * denom):
                return current
        n *= 2
    worst = np.argmax(change / denom)
    raise QuadratureConvergenceError(complex(np.ravel(current)[worst]),
                                     complex(np.ravel(previous)[worst]))


def adaptive_inner_product(
    f: Callable,
    g: Callable,
    kind: str,
    *,
    center: float = 0.0,
    scale: float = 1.0,
    interval: Optional[Tuple[float, float]] = None,
):
    """`inner_product` with node doubling from 64 up to 4096 nodes.

    Successive estimates of every paired row must differ by less than
    ADAPTIVE_REL_TOL relative to max(1, |estimate|, |previous|); the unit
    floor makes the criterion meaningful for integrals that vanish
    (orthogonality checks). Returns the last estimate.

    Raises
    ------
    QuadratureConvergenceError
        If the cap is reached while the last two estimates still disagree;
        it carries the worst row's last two estimates.
    """
    return _adaptive(lambda rule: inner_product(f, g, rule), kind, center, scale,
                     interval)


def adaptive_gram(
    fs: Sequence[Callable],
    gs: Sequence[Callable],
    kind: str,
    *,
    center: float = 0.0,
    scale: float = 1.0,
    interval: Optional[Tuple[float, float]] = None,
) -> np.ndarray:
    """The matrix of <f_i, g_j> by the node doubling of `adaptive_inner_product`.

    Every entry must settle by the same test; the rule of the last doubling
    serves the whole block, and each function is sampled once per rule.

    Raises
    ------
    QuadratureConvergenceError
        If the cap is reached while some entry still disagrees; it carries
        that entry's last two estimates.
    """
    return _adaptive(lambda rule: gram_matrix(fs, gs, rule), kind, center, scale,
                     interval)
