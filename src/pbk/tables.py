"""Mode tables kept per params object and node set.

The diagnostic checks evaluate eigenfamily members, and the ladder maps'
images of them, on a handful of node sets (the quadrature rules and the
evaluation grid) thousands of times. Row k of a mode table does not depend
on how many rows were built: the Hermite rows come from a fixed recurrence,
the sine rows elementwise. So one table per (params, nodes), built at the
largest degree asked for so far, serves every smaller request bit for bit.

The tables live in a WeakKeyDictionary keyed by the params object and are
freed with it; a ``pbk diagnose`` run's params die with the run. Node sets
above MAX_CACHED_NODES points (the finite-difference operator grids) are
rebuilt on every call, since keeping them would hold megabytes for one run.
"""

from __future__ import annotations

import weakref
from typing import Callable

import numpy as np

MAX_CACHED_NODES = 8192

_TABLES: "weakref.WeakKeyDictionary[object, dict]" = weakref.WeakKeyDictionary()


def mode_table(params, nodes: np.ndarray, n_max: int,
               build: Callable[[int, np.ndarray], np.ndarray]) -> np.ndarray:
    """Rows 0..n_max of build(n_max, nodes), shared read-only per (params, nodes)."""
    if nodes.size > MAX_CACHED_NODES or n_max < 0:
        return build(n_max, nodes)
    tables = _TABLES.setdefault(params, {})
    key = (nodes.shape, nodes.tobytes())
    table = tables.get(key)
    if table is None or len(table) <= n_max:
        table = build(n_max, nodes)
        table.setflags(write=False)
        tables[key] = table
    return table[: n_max + 1]
