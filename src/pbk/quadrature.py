"""Inner products on an interval, by Gauss-Legendre rules.

Gauss-Legendre rules mapped to a finite interval (a, b), memoized per node
count and interval. A plain weighted dot product of a rule's weights against
integrand samples approximates the ordinary integral of a bounded integrand
over (a, b); adaptive_inner_product doubles the node count until successive
estimates settle.

No command evaluates a rule: both models' batteries take their inner
products from expansion coefficients (grids.inner, grids.gram), and prices
are sums over closed-form payoff coefficients. The rules serve as an
independent reference, and perfbench/tracing.py patches legendre_rule,
inner_product and adaptive_inner_product at their lookup sites.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Tuple

import numpy as np

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
        for name in ("nodes", "weights"):  # read-only copies: a cached rule is shared
            values = np.array(getattr(self, name), dtype=float)
            values.setflags(write=False)
            object.__setattr__(self, name, values)
        if self.nodes.shape != self.weights.shape or self.nodes.ndim != 1:
            raise ValueError("nodes and weights must be 1-d arrays of equal length")
        if np.any(np.diff(self.nodes) <= 0.0):
            raise ValueError("nodes must be strictly increasing")
        if np.any(self.weights <= 0.0):
            raise ValueError("weights must be positive")


@lru_cache(maxsize=32)
def _legendre_nodes(n: int) -> Tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(n)


@lru_cache(maxsize=128)
def legendre_rule(n: int, a: float, b: float) -> QuadratureRule:
    """Gauss-Legendre rule mapped to the interval (a, b) (cached)."""
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
            f"integrand {name} returned a non-finite sample at x={float(where)}"
        )
    return vals


def inner_product(f: Callable, g: Callable, rule: QuadratureRule):
    """<f, g> = int conj(f(x)) g(x) dx approximated by the rule.

    Parameters
    ----------
    f, g : callables
        Vectorized functions of a real array. The product conj(f) * g must
        be bounded on the rule's interval. Rows are paired: row i of a block
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


def _adaptive(estimate: Callable, rules: Callable):
    """The node doubling of adaptive_inner_product; estimate(rules(n)) may
    return a scalar or an array, and every entry must pass the test."""
    previous = None
    current = None
    n = ADAPTIVE_START
    while n <= ADAPTIVE_CAP:
        previous, current = current, estimate(rules(n))
        if previous is not None:
            change = np.abs(current - previous)
            denom = np.maximum(1.0, np.maximum(np.abs(current), np.abs(previous)))
            if np.all(change <= ADAPTIVE_REL_TOL * denom):
                return current
        n *= 2
    worst = np.argmax(change / denom)
    raise QuadratureConvergenceError(complex(np.ravel(current)[worst]),
                                     complex(np.ravel(previous)[worst]))


def adaptive_inner_product(f: Callable, g: Callable, rules: Callable):
    """`inner_product` with node doubling from 64 up to 4096 nodes, on the
    rules of one family: rules(n) gives the n-node QuadratureRule, for example
    `partial(legendre_rule, a=0.0, b=1.0)`.

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
    return _adaptive(lambda rule: inner_product(f, g, rule), rules)
