"""Spans around the calls into each pbk module, recorded from outside pbk.

A wrapper replaces a function at the attribute its caller looks it up
through (for example ``pbk.cli.price_mc_barrier``, the name ``cli`` imported,
or ``pbk.systems.adaptive_inner_product``), so pbk itself is untouched.
Each call records a span (name, start, end, parent) in memory; the spans are
written out once, when the run ends, and the per-layer figures are derived
from them afterwards.

Only single-threaded calls are traced: the parent of a span is the span open
on the one call stack.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# (module, attribute, span name): every lookup site of the traced functions.
# Names are "<layer>.<what>"; the layer is the pbk module the work belongs to.
FUNCTION_SITES = (
    ("pbk.cli", "price_spectral", "pricing.price_spectral"),
    ("pbk.cli", "price_mc_barrier", "pricing.price_mc_barrier"),
    ("pbk.pricing", "_simulate_block", "pricing.mc_block"),
    ("pbk.cli", "kernel_rows", "kernels.kernel_rows"),
    ("pbk.pricing", "harmonic_spectral_values", "kernels.spectral_values"),
    ("pbk.pricing", "barrier_spectral_values", "kernels.spectral_values"),
    ("pbk.kernels", "harmonic_spectral_values", "kernels.spectral_values"),
    ("pbk.kernels", "barrier_spectral_values", "kernels.spectral_values"),
    ("pbk.kernels", "harmonic_closed_value", "kernels.closed_value"),
    ("pbk.kernels", "barrier_closed_value", "kernels.closed_value"),
    ("pbk.kernels", "hermite_function_sequence", "specialfn.hermite_sequence"),
    ("pbk.harmonic", "hermite_function_sequence", "specialfn.hermite_sequence"),
    ("pbk.kernels", "theta3", "specialfn.theta3"),
    ("pbk.pricing", "legendre_rule", "quadrature.legendre_rule"),
    ("pbk.barrier", "legendre_rule", "quadrature.legendre_rule"),
    ("pbk.quadrature", "legendre_rule", "quadrature.legendre_rule"),
    ("pbk.systems", "adaptive_inner_product", "quadrature.adaptive"),
    ("pbk.quadrature", "inner_product", "quadrature.inner_product"),
    ("pbk.cli", "run_all_checks", "pb_core.run_all_checks"),
    ("pbk.pb_core", "check_vacua", "pb_core.check_vacua"),
    ("pbk.pb_core", "check_ladder", "pb_core.check_ladder"),
    ("pbk.pb_core", "check_number_operator", "pb_core.check_number_operator"),
    ("pbk.pb_core", "check_biorthogonality", "pb_core.check_biorthogonality"),
    ("pbk.pb_core", "check_quasi_basis", "pb_core.check_quasi_basis"),
    ("pbk.pb_core", "check_theta_conjugacy", "pb_core.check_theta_conjugacy"),
    ("pbk.pb_core", "check_norm_growth", "pb_core.check_norm_growth"),
    ("pbk.cli", "harmonic_system", "systems.build"),
    ("pbk.cli", "barrier_system", "systems.build"),
    ("pbk.barrier", "analyze_phi", "barrier.analyze"),
    ("pbk.barrier", "analyze_psi", "barrier.analyze"),
    ("pbk.harmonic", "derivative", "grids.difference"),
    ("pbk.harmonic", "second_derivative", "grids.difference"),
    ("pbk.grids", "derivative", "grids.difference"),
    ("pbk.grids", "second_derivative", "grids.difference"),
)
# functions whose returned callables are traced on every evaluation
SYNTHESIS_SITES = (
    ("pbk.barrier", "synthesize_phi", "barrier.synthesized_eval"),
    ("pbk.barrier", "synthesize_psi", "barrier.synthesized_eval"),
)
EXPANSION_SPAN = "harmonic.expansion_eval"
PBK_LAYERS = ("cli", "pricing", "kernels", "specialfn", "quadrature", "pb_core",
              "systems", "barrier", "harmonic", "grids")


class Tracer:
    """In-memory span recorder plus counters, installable over pbk."""

    def __init__(self) -> None:
        self.names: list = []
        self.starts: list = []
        self.ends: list = []
        self.parents: list = []
        self.counts: Counter = Counter()
        self.enabled = False
        self._stack: list = []
        self._restore: list = []

    def _open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(time.perf_counter())
        return index

    def _close(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def traced(self, name: str, fn, on_result=None):
        """fn wrapped in a span; on_result(args, result) may update counters."""
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            index = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index)
            if on_result is not None:
                on_result(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _patch(self, owner, attr: str, replacement) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        """Replace every lookup site; `uninstall` puts the originals back."""
        import importlib

        import pbk.harmonic

        counts = self.counts

        def nodes(args, result):
            counts["quadrature.nodes_evaluated"] += args[2].nodes.size

        def path_steps(args, result):
            counts["pricing.mc_path_steps"] += args[1] * args[8].steps

        def rows(args, result):
            counts["kernels.rows"] += len(result)

        hooks = {"quadrature.inner_product": nodes, "pricing.mc_block": path_steps,
                 "kernels.kernel_rows": rows}
        for module_name, attr, name in FUNCTION_SITES:
            module = importlib.import_module(module_name)
            self._patch(module, attr,
                        self.traced(name, getattr(module, attr), hooks.get(name)))
        for module_name, attr, name in SYNTHESIS_SITES:
            module = importlib.import_module(module_name)
            self._patch(module, attr, self._tracing_factory(name, getattr(module, attr)))
        cls = pbk.harmonic.HermiteExpansion
        self._patch(cls, "__call__", self.traced(EXPANSION_SPAN, cls.__call__))

    def _tracing_factory(self, name: str, factory):
        def make(*args, **kwargs):
            return self.traced(name, factory(*args, **kwargs))

        return make

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- derived figures ---------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds and self seconds.

        Self time is a span's duration minus the durations of its direct
        children, so every traced second is counted once across all names.
        """
        child_time = defaultdict(float)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child_time[parent] += self.ends[i] - self.starts[i]
        out: dict = {}
        for i, name in enumerate(self.names):
            entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            duration = self.ends[i] - self.starts[i]
            entry["calls"] += 1
            entry["total_s"] += duration
            entry["self_s"] += duration - child_time[i]
        return out

    def dump(self, path) -> None:
        """Write every span as [name, start, end, parent] plus the counters."""
        origin = self.starts[0] if self.starts else 0.0
        spans = [[n, s - origin, e - origin, p] for n, s, e, p
                 in zip(self.names, self.starts, self.ends, self.parents)]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": spans, "counts": dict(self.counts)}, handle)
