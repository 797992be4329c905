"""Every lookup site the benchmark's tracer patches still exists in pbk.

perfbench/tracing.py replaces pbk functions at the attributes their callers
look them up through. A refactor that renames or drops one of those
attributes would silently remove a span from the traced benchmark, so the
site tables are read here (the file is executed from its source, nothing is
written) and each (module, attribute) pair is resolved. The counts its
hooks take are guarded too: the kernel table's length, the mode tables per
spectral evaluation, and the spectral or closed calls per kernel value. So
are the barrier system's calls through the traced analysis attributes,
both systems' inner products, which call no traced quadrature attribute,
a battery run under the tracer itself, and the Monte Carlo calls
perfbench/workload.py makes directly: a signature or path-count rule that
changed under them would fail here, not inside a benchmark run.
"""

import importlib
import inspect
import math
import pathlib
import runpy
from collections import Counter

import numpy as np
import pytest

import pbk.barrier
import pbk.grids
import pbk.harmonic
import pbk.kernels
import pbk.pb_core
import pbk.pricing
import pbk.quadrature
import pbk.systems
from pbk.barrier import BarrierParams
from pbk.harmonic import HarmonicParams
from pbk.kernels import kernel_rows, kernel_values
from pbk.market import MarketParams
from pbk.pb_core import check_ladder, run_all_checks
from pbk.pricing import MCConfig, Payoff, price_spectral
from pbk.systems import barrier_system, harmonic_system

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
SITES = runpy.run_path(str(PERFBENCH / "tracing.py"))
WORKLOAD = runpy.run_path(str(PERFBENCH / "workload.py"))
HP = HarmonicParams(MarketParams(0.2, 0.05))
BP = BarrierParams(MarketParams(0.2, 0.05), math.log(80.0), math.log(120.0))


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


KERNEL_SITES = ("harmonic_spectral_values", "barrier_spectral_values",
                "harmonic_closed_value", "barrier_closed_value")


@pytest.mark.parametrize("model, params, x", [("harmonic", HP, 0.0), ("barrier", BP, 4.6)],
                         ids=["harmonic", "barrier"])
@pytest.mark.parametrize("method, site", [("spectral", "spectral_values"),
                                          ("closed", "closed_value")])
def test_one_traced_kernel_call_per_kernel_value(monkeypatch, model, params, x, method,
                                                 site):
    """kernel_values looks the model's spectral and closed functions up
    through pbk.kernels on every call, so kernels.spectral_values_calls and
    kernels.closed_value_calls keep counting: a model record that captured
    the functions once would leave those spans empty."""
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    for name in KERNEL_SITES:
        monkeypatch.setattr(pbk.kernels, name, counted(name, getattr(pbk.kernels, name)))
    kernel_values(params, "p1", method, x, x + 0.05, 0.5)
    assert calls == {f"{model}_{site}": 1}
    kernel_values(params, "p2", method, x, np.array([x - 0.05, x + 0.05]), 0.5)
    assert calls == {f"{model}_{site}": 2}


def count_tables(monkeypatch, module, attr):
    """The shapes of the point arrays module.attr is called on, in call order."""
    calls = []
    original = getattr(module, attr)

    def counted(*args):
        calls.append(np.shape(args[-1]))
        return original(*args)

    monkeypatch.setattr(module, attr, counted)
    return calls


def check_one_table_per_evaluation(monkeypatch, params, xs, xps, calls):
    kernel_values(params, "p1", "spectral", xs[:, None], xps[None, :], 0.5)
    assert calls == [(5,)]
    calls.clear()
    kernel_rows(params, xs, xps, [0.3, 1.0])
    assert calls == [(5,)]  # one for every (tau, which) of the spectral method
    spot = float(np.mean(xs))
    for strike in (math.exp(spot + 0.05), 1e6):
        calls.clear()
        price_spectral(params, "p1", Payoff.call(strike), spot, 0.5)
        assert calls == [(2,)]  # the spot and the log-strike


def test_one_hermite_recurrence_per_spectral_evaluation(monkeypatch):
    calls = count_tables(monkeypatch, pbk.harmonic, "hermite_function_sequence")
    check_one_table_per_evaluation(monkeypatch, HP, np.array([-0.1, 0.0, 0.1]),
                                   np.array([0.05, 0.2]), calls)


@pytest.mark.parametrize("route, n_max, builds", [
    ("exact", 40, {}),
    ("grid", 20, {(pbk.harmonic.OPERATOR_GRID_POINTS,): 2}),
])
def test_one_hermite_table_per_node_set_per_harmonic_system(monkeypatch, route, n_max,
                                                            builds):
    """The exact route builds no table: its residuals, like every inner
    product, are taken from coefficients. On the grid route the operator
    grid's table is built once for each row count it grows to (the vacua
    need rows 0..1, the blocks more), and never again: operator outputs on
    the operator grid's interior read its table, and a second battery on the
    same system builds nothing."""
    calls = count_tables(monkeypatch, pbk.harmonic, "hermite_function_sequence")
    system = harmonic_system(HP, route)
    run_all_checks(system, n_max)
    assert Counter(calls) == builds
    calls.clear()
    run_all_checks(system, n_max)
    assert calls == []


@pytest.mark.parametrize("route", ["exact", "grid"])
def test_harmonic_system_tables_go_through_the_traced_attributes(monkeypatch, route):
    """Tables are built through pbk.harmonic.hermite_function_sequence and read
    through HermiteExpansion.__call__, so specialfn.hermite_sequence_calls and
    harmonic.expansion_evals keep counting on the grid route; the exact route
    evaluates no expansion, and both read 0."""
    evals = []
    call = pbk.harmonic.HermiteExpansion.__call__

    def counted(self, x):
        evals.append(np.shape(x))
        return call(self, x)

    monkeypatch.setattr(pbk.harmonic.HermiteExpansion, "__call__", counted)
    tables = count_tables(monkeypatch, pbk.harmonic, "hermite_function_sequence")
    check_ladder(harmonic_system(HP, route), 4)
    if route == "exact":
        assert tables == evals == []
    else:
        assert tables and len(evals) > len(tables)


def test_one_sine_table_per_spectral_evaluation(monkeypatch):
    calls = count_tables(monkeypatch, pbk.barrier, "mode_table")
    check_one_table_per_evaluation(monkeypatch, BP, np.array([4.45, 4.6, 4.7]),
                                   np.array([4.5, 4.75]), calls)


def test_barrier_system_calls_the_traced_attributes(monkeypatch):
    """The system's maps look each analysis up through pbk.barrier, so
    barrier.analyze_calls keeps counting. It builds its expansions itself:
    synthesize_phi and synthesize_psi are not called, so the tracer's plain
    functions around what they return never reach the battery, and
    barrier.synthesized_evals reads 0."""
    calls = Counter()

    def counted(attr, fn):
        def wrapper(*args, **kwargs):
            calls[attr] += 1
            return fn(*args, **kwargs)

        return wrapper

    for attr in ("analyze_phi", "analyze_psi", "synthesize_phi", "synthesize_psi"):
        monkeypatch.setattr(pbk.barrier, attr, counted(attr, getattr(pbk.barrier, attr)))
    system = barrier_system(BP)
    check_ladder(system, 4)
    assert calls["analyze_phi"] > 0 and calls["analyze_psi"] > 0
    assert calls["synthesize_phi"] == calls["synthesize_psi"] == 0


@pytest.mark.parametrize("build, params", [(harmonic_system, HP), (barrier_system, BP)],
                         ids=["harmonic", "barrier"])
def test_system_inner_products_call_the_traced_attributes(monkeypatch, build, params):
    """Both systems take their inner products in coefficient space, with no
    quadrature at all: neither adaptive_inner_product, looked up through
    pbk.systems, nor inner_product, looked up through pbk.quadrature, is
    called, so quadrature.adaptive_calls and nodes_evaluated read 0. The
    tracer's nodes hook still reads the rule third."""
    assert list(inspect.signature(pbk.quadrature.inner_product).parameters)[2] == "rule"
    calls = []

    def counted(name):
        def wrapper(*args, **kwargs):
            calls.append(name)
            raise AssertionError(f"{name} was called")

        return wrapper

    monkeypatch.setattr(pbk.systems, "adaptive_inner_product", counted("adaptive"))
    monkeypatch.setattr(pbk.quadrature, "inner_product", counted("inner_product"))
    system = build(params)
    tests = system.test_functions
    assert pbk.grids.inner(tests, tests).shape == (len(pbk.pb_core.TEST_COMBOS),)
    run_all_checks(system, 4)
    assert calls == []


@pytest.mark.parametrize("build, params", [(harmonic_system, HP), (barrier_system, BP)],
                         ids=["harmonic", "barrier"])
def test_traced_battery_reports_as_untraced(build, params):
    """Under perfbench's Tracer every site is wrapped, and synthesize_phi and
    synthesize_psi return plain functions; the battery's report is the same
    bit for bit, and the barrier maps still record their analyses."""
    untraced = run_all_checks(build(params), 20).to_json()
    tracer = SITES["Tracer"]()
    tracer.install()
    tracer.enabled = True
    try:
        traced = run_all_checks(build(params), 20).to_json()
    finally:
        tracer.uninstall()
    assert traced == untraced
    spans = tracer.summary()
    assert spans["pb_core.check_ladder"]["calls"] == 1
    assert ("barrier.analyze" in spans) == (build is barrier_system)
    for name in ("quadrature.adaptive", "quadrature.inner_product",
                 "quadrature.legendre_rule", "barrier.synthesized_eval"):
        assert name not in spans, name


def test_benchmark_monte_carlo_calls_are_accepted():
    # bridge_block_times calls the block with ten positional arguments, and
    # the tracer counts path steps as args[1] * args[8].steps
    names = list(inspect.signature(pbk.pricing._simulate_block).parameters)
    assert len(names) == 10 and (names[1], names[8]) == ("size", "cfg")
    cfg = MCConfig(paths=WORKLOAD["MC_PATHS"], steps=8, seed=1)
    sums = pbk.pricing._simulate_block(0, 64, math.log(100.0), math.log(80.0),
                                       math.log(120.0), 0.2, 0.05, 0.25, cfg,
                                       Payoff("call", 100.0))
    assert len(sums) == 2 and sums[0] > 0.0
    # one block per timed call, and three for the PBK_THREADS check
    for paths in (WORKLOAD["MC_PATHS"], 2 * WORKLOAD["MC_PATHS"] + 1000):
        assert MCConfig(paths=paths).paths == paths
