"""Mode tables kept per params object and node set.

The diagnostic checks evaluate eigenfamily members, and the ladder maps'
images of them, on a handful of node sets (the quadrature rules and the
evaluation grid) thousands of times. Row k of a mode table does not depend
on how many rows were built: the Hermite rows come from a fixed recurrence,
the sine rows elementwise. So one table per (params, nodes), built at the
largest degree asked for so far, serves every smaller request bit for bit.

The tables live in WeakKeyDictionaries keyed by the params object and are
freed with it; a ``pbk diagnose`` run's params die with the run. A node set
above MAX_CACHED_NODES points is kept only when it is the params' operator
grid or a trim of it (the finite-difference outputs one and two steps in):
one table over the whole grid serves every trim as a column slice, since
its columns are elementwise too. Any other large node set is rebuilt on
every call. MAX_CACHED_NODES = 0 switches every table off.
"""

from __future__ import annotations

import weakref
from typing import Callable, Optional

import numpy as np

MAX_CACHED_NODES = 8192

_TABLES: "weakref.WeakKeyDictionary[object, dict]" = weakref.WeakKeyDictionary()
# one (grid nodes, table) pair per params: its only large table
_GRID_TABLES: "weakref.WeakKeyDictionary[object, tuple]" = weakref.WeakKeyDictionary()


def _trim(grid: np.ndarray, nodes: np.ndarray) -> Optional[slice]:
    """The columns of grid equal to nodes when nodes is grid less k points each end."""
    k, odd = divmod(grid.size - nodes.size, 2)
    if nodes.ndim != 1 or k < 0 or odd:
        return None
    columns = slice(k, grid.size - k)
    return columns if np.array_equal(grid[columns], nodes) else None


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


def grid_table(params, nodes: np.ndarray, n_max: int,
               build: Callable[[int, np.ndarray], np.ndarray],
               grid: Callable[[], np.ndarray]) -> np.ndarray:
    """`mode_table`, with a large node set served from the params' grid table.

    grid() gives the node set of the params' operator grid; it is called only
    while that grid has no table. A large node set that is neither the grid
    nor a trim of it is rebuilt, as in `mode_table`.
    """
    if nodes.size <= MAX_CACHED_NODES or MAX_CACHED_NODES <= 0 or n_max < 0:
        return mode_table(params, nodes, n_max, build)
    grid_nodes, table = _GRID_TABLES.get(params, (None, None))
    if grid_nodes is None:
        grid_nodes = grid()
    columns = _trim(grid_nodes, nodes)
    if columns is None:
        return build(n_max, nodes)
    if table is None or len(table) <= n_max:
        table = None  # the smaller table goes before the new one is built
        _GRID_TABLES.pop(params, None)
        table = build(n_max, grid_nodes)
        table.setflags(write=False)
        _GRID_TABLES[params] = (grid_nodes, table)
    return table[: n_max + 1, columns]
