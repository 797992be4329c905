"""Every lookup site the benchmark's tracer patches still exists in pbk.

perfbench/tracing.py replaces pbk functions at the attributes their callers
look them up through. A refactor that renames or drops one of those
attributes would silently remove a span from the traced benchmark, so the
site tables are read here (the file is executed from its source, nothing is
written) and each (module, attribute) pair is resolved.
"""

import importlib
import pathlib
import runpy

import pytest

import pbk.harmonic

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
SITES = runpy.run_path(str(TRACING))


@pytest.mark.parametrize(
    "module, attr",
    sorted({(m, a) for m, a, _ in SITES["FUNCTION_SITES"] + SITES["SYNTHESIS_SITES"]}),
)
def test_site_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))


def test_expansion_call_site_resolves():
    assert callable(pbk.harmonic.HermiteExpansion.__call__)
