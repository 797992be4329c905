"""Special functions evaluated by stable recurrences.

Everything downstream (eigenfunctions, closed-form kernels, norm laws) is
built from three families: normalized Hermite functions, generalized
Laguerre polynomials, and the Jacobi theta function theta3. All of them are
computed by three-term recurrences rather than explicit coefficient sums,
which is what keeps them usable up to degree 200 without catastrophic
cancellation. The Hermite functions are never formed from the raw
polynomials H_n, which overflow around n ~ 170 for the argument ranges we
need.
"""

from __future__ import annotations

import math

import numpy as np

MAX_DEGREE = 200

# theta3 terms are added while q**(m*m) >= this; below it they cannot move
# a double-precision partial sum of order 1.
THETA_TERM_CUTOFF = 1e-16


def _check_degree(n: int) -> None:
    if not isinstance(n, (int, np.integer)):
        raise TypeError(f"degree must be an integer, got {type(n).__name__}")
    if n < 0:
        raise ValueError(f"degree must be nonnegative, got {n}")
    if n > MAX_DEGREE:
        raise ValueError(f"degree {n} exceeds the supported cap {MAX_DEGREE}")


def laguerre(n: int, k: int, x):
    """Generalized Laguerre polynomial L_n^k(x).

    laguerre(n, 0, x) is the ordinary Laguerre polynomial. The recurrence
    (m+1) L_{m+1}^k = (2m+1+k-x) L_m^k - (m+k) L_{m-1}^k is stable for the
    nonpositive arguments used by the norm-growth law (all terms positive).
    """
    _check_degree(n)
    if k < -n:
        raise ValueError(f"superscript k={k} must be >= -n = {-n}")
    x = np.asarray(x, dtype=float)
    l_prev = np.ones_like(x)
    if n == 0:
        return l_prev if l_prev.ndim else float(l_prev)
    l = 1.0 + k - x
    for m in range(1, n):
        l, l_prev = ((2.0 * m + 1.0 + k - x) * l - (m + k) * l_prev) / (m + 1.0), l
    return l if l.ndim else float(l)


def theta3(u, q: float):
    """Jacobi theta function theta3(u, q) = 1 + 2 sum_m q^(m^2) cos(2 m u).

    The nome must satisfy 0 <= q < 1. Terms are added until q^(m^2) drops
    below 1e-16; for q <= 0.9 that is at most a handful of terms. The
    argument u may be a scalar or an ndarray (radians).
    """
    if not 0.0 <= q < 1.0:
        raise ValueError(f"nome q must satisfy 0 <= q < 1, got {q}")
    u = np.asarray(u, dtype=float)
    total = np.ones_like(u)
    m = 1
    while True:
        term = q ** (m * m)
        if term < THETA_TERM_CUTOFF:
            break
        total = total + 2.0 * term * np.cos(2.0 * m * u)
        m += 1
    return total if total.ndim else float(total)


def hermite_function(n: int, u):
    """Normalized Hermite function psi_n(u) = H_n(u) e^{-u^2/2} / sqrt(2^n n! sqrt(pi)).

    Computed by the normalized recurrence
    psi_{k+1} = sqrt(2/(k+1)) u psi_k - sqrt(k/(k+1)) psi_{k-1},
    which keeps every intermediate at unit L2 scale, so n = 200 is fine where
    the raw polynomial route would overflow. For |u| large enough that
    e^{-u^2/2} underflows, the result is 0. Scalar u gives a float.
    """
    _check_degree(n)
    values = _hermite_pair(n, np.atleast_1d(np.asarray(u, dtype=float)))[1]
    return values if np.ndim(u) else float(values[0])


def _hermite_pair(n: int, u: np.ndarray):
    """psi_{n-1}(u) and psi_n(u), with psi_{-1} = 0, for any degree n >= 0.

    The recurrence of `hermite_function_sequence` in its operation order, so
    psi_n is bit-identical to row n of the table, but only two rows are kept.
    """
    prev = np.zeros_like(u)
    cur = math.pi ** -0.25 * np.exp(-0.5 * u * u)
    if n >= 1:
        prev, cur = cur, math.sqrt(2.0) * u * cur
    for k in range(1, n):
        prev, cur = cur, math.sqrt(2.0 / (k + 1)) * u * cur - math.sqrt(k / (k + 1.0)) * prev
    return prev, cur


def hermite_function_sequence(n_max: int, u) -> np.ndarray:
    """All normalized Hermite functions psi_0..psi_{n_max} at u, stacked on axis 0.

    Returns an array of shape (n_max + 1,) + u.shape. This is the workhorse
    for spectral sums: one recurrence pass serves every degree at once.
    """
    _check_degree(n_max)
    u = np.atleast_1d(np.asarray(u, dtype=float))
    out = np.empty((n_max + 1,) + u.shape)
    out[0] = math.pi ** -0.25 * np.exp(-0.5 * u * u)
    if n_max >= 1:
        out[1] = math.sqrt(2.0) * u * out[0]
    for k in range(1, n_max):
        out[k + 1] = math.sqrt(2.0 / (k + 1)) * u * out[k] - math.sqrt(k / (k + 1.0)) * out[k - 1]
    return out
