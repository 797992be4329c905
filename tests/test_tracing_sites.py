"""Every lookup site the benchmark's tracer patches still exists in pbk.

perfbench/tracing.py replaces pbk functions at the attributes their callers
look them up through. A refactor that renames or drops one of those
attributes would silently remove a span from the traced benchmark, so the
site tables are read here (the file is executed from its source, nothing is
written) and each (module, attribute) pair is resolved. The counts two of
its hooks take are guarded too: the kernel table's length and the Hermite
recurrences per spectral evaluation.
"""

import importlib
import math
import pathlib
import runpy

import numpy as np
import pytest

import pbk.harmonic
import pbk.kernels
from pbk.harmonic import HarmonicParams
from pbk.kernels import kernel_rows, kernel_values
from pbk.market import MarketParams
from pbk.pricing import Payoff, price_spectral

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
SITES = runpy.run_path(str(TRACING))
HP = HarmonicParams(MarketParams(0.2, 0.05))


@pytest.mark.parametrize(
    "module, attr",
    sorted({(m, a) for m, a, _ in SITES["FUNCTION_SITES"] + SITES["SYNTHESIS_SITES"]}),
)
def test_site_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))


def test_expansion_call_site_resolves():
    assert callable(pbk.harmonic.HermiteExpansion.__call__)



def test_kernel_table_length_is_the_row_count():
    table = kernel_rows(HP, [-0.1, 0.0, 0.1], [0.05, 0.2], [0.3, 1.0])
    assert len(table) == 3 * 2 * 2 * 2 * 2 == table.value.size


def test_one_hermite_recurrence_per_spectral_evaluation(monkeypatch):
    calls = []
    original = pbk.kernels.hermite_function_sequence

    def counted(*args):
        calls.append(np.shape(args[1]))
        return original(*args)

    monkeypatch.setattr(pbk.kernels, "hermite_function_sequence", counted)
    xs, xps = np.array([-0.1, 0.0, 0.1]), np.array([0.05, 0.2])
    kernel_values(HP, "p1", "spectral", xs[:, None], xps[None, :], 0.5)
    assert calls == [(5,)]
    calls.clear()
    kernel_rows(HP, xs, xps, [0.3, 1.0])
    assert calls == [(5,)] * 4  # one per (tau, which) of the spectral method
    for strike, panels in ((math.exp(0.05), 2), (1e6, 1)):
        calls.clear()
        price_spectral(HP, "p1", Payoff.call(strike), 0.05, 0.5, nodes=64)
        assert calls == [(1 + 64 * panels,)]
