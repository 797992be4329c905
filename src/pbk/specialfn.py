"""Special functions evaluated by stable recurrences.

Everything downstream (eigenfunctions, closed-form kernels, norm laws) is
built from three families: normalized Hermite functions, Laguerre
polynomials, and the Jacobi theta function theta3. All of them are
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
KEPT_DECAY = -math.log(THETA_TERM_CUTOFF)  # a term is kept while its decay rate is below
THETA_TRANSFORM_RATE = math.pi / 2.0  # theta3 is transformed for -ln q below this
# A Hermite table on at most this many points runs its recurrence in Python
# floats, point by point; numpy's per-row dispatch costs more below it.
FEW_POINTS = 16
# the factors sqrt(2/(k+1)) and sqrt(k/(k+1)) of step k = 1..MAX_DEGREE-1
_HERMITE_STEPS = [(math.sqrt(2.0 / (k + 1)), math.sqrt(k / (k + 1.0)))
                  for k in range(1, MAX_DEGREE)]


def _check_degree(n: int) -> None:
    if not isinstance(n, (int, np.integer)):
        raise TypeError(f"degree must be an integer, got {type(n).__name__}")
    if n < 0:
        raise ValueError(f"degree must be nonnegative, got {n}")
    if n > MAX_DEGREE:
        raise ValueError(f"degree {n} exceeds the supported cap {MAX_DEGREE}")


def laguerre_sequence(n_max: int, x) -> np.ndarray:
    """Laguerre polynomials L_0(x)..L_{n_max}(x) in one array of shape
    (n_max + 1,) + x.shape.

    The recurrence (m+1) L_{m+1} = (2m+1-x) L_m - m L_{m-1} is stable for the
    nonpositive arguments used by the norm-growth law (all terms positive).
    """
    _check_degree(n_max)
    x = np.asarray(x, dtype=float)[()]  # a scalar x steps as a numpy scalar, faster
    out = np.empty((n_max + 1,) + np.shape(x))
    out[0] = 1.0
    if n_max:
        out[1] = 1.0 - x
    for m in range(1, n_max):
        out[m + 1] = ((2.0 * m + 1.0 - x) * out[m] - m * out[m - 1]) / (m + 1.0)
    return out


def theta3(u, ell: float):
    """Jacobi theta function 1 + 2 sum_m q^(m^2) cos(2 m u) of the nome q = e^{-ell}.

    The rate ell must be positive; ell = inf is q = 0. The rate keeps the
    digits of a q near 1. The argument u may be a scalar or an ndarray
    (radians). For ell >= pi/2 the series is summed while q^(m^2) >= 1e-16,
    at most four terms; its rounding, about e^{pi^2 / (4 ell)} / 2 ulps of
    the value, grows without bound as q -> 1. Below, the Jacobi imaginary
    transformation (Whittaker & Watson ch. 21) gives a sum of positive
    Gaussians, sqrt(pi / ell) sum_m e^{-(u - m pi)^2 / ell}, good to a few ulps.
    """
    if not ell > 0.0:
        raise ValueError(f"rate ell = -ln q must be positive, got {ell}")
    u = np.asarray(u, dtype=float)
    if ell < THETA_TRANSFORM_RATE:
        reduced = u - math.pi * np.round(u / math.pi)  # theta3 has period pi in u
        m = 1  # images -m..m; the next one is below 1e-16 of the nearest
        while (m + 1) * m * math.pi**2 / ell <= KEPT_DECAY:
            m += 1
        total = math.sqrt(math.pi / ell) * sum(
            np.exp(-(reduced - j * math.pi) ** 2 / ell) for j in range(-m, m + 1))
    else:
        q = math.exp(-ell)
        total, m = np.ones_like(u), 1
        while q ** (m * m) >= THETA_TERM_CUTOFF:
            total = total + 2.0 * q ** (m * m) * np.cos(2.0 * m * u)
            m += 1
    return total if total.ndim else float(total)


def hermite_function_sequence(n_max: int, u) -> np.ndarray:
    """All normalized Hermite functions psi_0..psi_{n_max} at u, stacked on axis 0.

    Returns an array of shape (n_max + 1,) + u.shape, a scalar u counting as
    one point; row n is psi_n(u). This is the workhorse for spectral sums:
    one recurrence pass serves every degree at once. The normalized
    recurrence psi_{k+1} = sqrt(2/(k+1)) u psi_k - sqrt(k/(k+1)) psi_{k-1}
    keeps every row at unit L2 scale, so n_max = 200 is fine where the raw
    polynomials H_n would overflow; where e^{-u^2/2} underflows, the rows
    are 0.

    On at most FEW_POINTS points, rows 2..n_max are formed in Python floats,
    one point at a time: the same IEEE operations in the same order, so the
    rows are the numpy loop's bit for bit.
    """
    _check_degree(n_max)
    u = np.atleast_1d(np.asarray(u, dtype=float))
    out = np.empty((n_max + 1,) + u.shape)
    out[0] = math.pi ** -0.25 * np.exp(-0.5 * u * u)
    if n_max == 0:
        return out
    out[1] = math.sqrt(2.0) * u * out[0]
    steps = _HERMITE_STEPS[: n_max - 1]
    if u.size > FEW_POINTS:
        for k, (up, down) in enumerate(steps, 1):
            out[k + 1] = up * u * out[k] - down * out[k - 1]
        return out
    columns = out.reshape(n_max + 1, -1)  # a view: out is contiguous
    for j, (uj, prev, cur) in enumerate(zip(u.ravel().tolist(), columns[0].tolist(),
                                            columns[1].tolist())):
        column = []
        for up, down in steps:
            prev, cur = cur, up * uj * cur - down * prev
            column.append(cur)
        columns[2:, j] = column
    return out
