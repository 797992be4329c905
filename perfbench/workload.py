"""One benchmark workload, run in this one process through ``pbk.cli.main``.

    python3 perfbench/workload.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/workload.py --workload NAME --seed N --setup-probe

The process imports pbk, builds the workload's argv lists from the seed and
prints ``ready``; a setup probe exits there. Otherwise it runs whole rounds
of the same CLI calls until --seconds have passed, checks every output
against references computed without pbk (``references.py``), prints the
workload's own figures and, as its last line, a JSON object with the counts
and the raw measurements that ``run.py`` turns into metrics.

With --trace 1, untraced and traced rounds alternate: the traced ones give
the per-layer figures, and the pair gives the tracing overhead.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import random
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"

# Market of the CLI defaults (beta = -0.75) and the degenerate one, sigma^2 = 2r
# (beta = 0), where both eigenfamilies coincide.
MARKETS = (("beta-0.75", "0.2", "0.05"), ("beta0", "0.2", "0.02"))
MC_PATHS = 8192  # one Monte Carlo block per call
MC_STEPS = 512
# Spectral results must match the references to this relative error; the
# absolute floor is relative to the payoff scale (prices) or the table peak
# (kernels). Converged sums agree to about 1e-13 on every input used here.
RTOL = 1e-9
ATOL = 1e-12
# An independent Monte Carlo price is checked at 5 standard errors: the
# benchmark makes about a thousand Monte Carlo calls per measurement session,
# and a 3-sigma limit would flag a few correct ones by chance.
MC_Z_CHECK = 5.0
CLI_Z_LIMIT = 3.0
TRUNCATION_FAULT = ("spectral sum truncated at n_trunc = 128: price_spectral "
                    "discards the tail, kernel_rows only reports it")


@dataclass
class Op:
    """One CLI call of a round, with the check of its output."""

    label: str
    argv: List[str]
    check: Callable[["Op", int, str, Dict[str, str]], List[str]]
    info: dict = field(default_factory=dict)
    fault: str = ""  # named in the run output when this op fails
    reference: Optional[object] = None  # filled on first check


# ---------------------------------------------------------------------------
# checks (run outside the timed calls)


def _within(value: float, ref: float, scale: float) -> bool:
    return abs(value - ref) <= RTOL * abs(ref) + ATOL * scale


_SCHEMAS: dict = {}


def _schema_problems(report: dict, name: str) -> List[str]:
    import jsonschema

    if name not in _SCHEMAS:
        with open(ROOT / "docs" / name, encoding="utf-8") as handle:
            _SCHEMAS[name] = json.load(handle)
    try:
        jsonschema.validate(report, _SCHEMAS[name])
    except jsonschema.ValidationError as exc:
        return [f"schema {name}: {exc.message}"]
    return []


def _price_reference(op: Op) -> dict:
    import references as ref

    i = op.info
    sign = -1.0 if (i["which"] == "p2") != i["flip"] else 1.0
    if i["model"] == "barrier":
        value = ref.barrier_price(i["kind"], i["strike"], i["s0"], i["lower"],
                                  i["upper"], i["sigma"], i["r"], i["tau"], sign)
        if sign < 0:
            return {"value": value}
        return {"value": value, "vanilla": ref.black_scholes(
            i["kind"], i["s0"], i["strike"], i["sigma"], i["r"], i["tau"])}
    value = ref.harmonic_price(i["kind"], i["strike"], i["x"], i["sigma"], i["r"],
                               i["tau"], sign)
    return {"value": value}


def check_price(op: Op, rc: int, text: str, outputs: Dict[str, str]) -> List[str]:
    report = json.loads(text)
    problems = _schema_problems(report, "pricing_result.schema.json")
    if op.reference is None:
        op.reference = _price_reference(op)
    expect = op.reference
    i = op.info
    value = report["result"]["value"]
    scale = i["strike"]
    if not _within(value, expect["value"], scale):
        problems.append(f"price {value!r} vs reference {expect['value']!r}")
    if value < -ATOL * scale:
        problems.append(f"negative price {value!r} of a non-negative payoff")
    # the knock-out bound holds for p1, the discounted killed density
    if "vanilla" in expect and value > expect["vanilla"] + ATOL * scale:
        problems.append(f"knock-out price {value!r} above vanilla {expect['vanilla']!r}")
    partner = i.get("partner")
    if partner is not None:
        other = json.loads(outputs[partner])["result"]["value"]
        if other != value:
            problems.append(f"p2 {value!r} != p1 at -beta {other!r} ({partner})")
    if "oracle" in report:
        mc = report["oracle"]
        stderr = mc.get("stderr")
        if stderr is None:
            problems.append("Monte Carlo price without a standard error")
        else:
            z_ref = (mc["value"] - expect["value"]) / stderr
            if abs(z_ref) > MC_Z_CHECK:
                problems.append(f"Monte Carlo {mc['value']!r} is {z_ref:.2f} standard "
                                f"errors from the reference {expect['value']!r}")
            z = (value - mc["value"]) / stderr
            if report.get("z_score") != z:
                problems.append(f"z_score {report.get('z_score')!r} != {z!r}")
            if rc != (1 if abs(z) > CLI_Z_LIMIT else 0):
                problems.append(f"exit code {rc} for z = {z:.3f}")
    elif rc != 0:
        problems.append(f"exit code {rc}")
    return problems


def _kernel_reference(op: Op, rows: List[dict]) -> List[float]:
    import references as ref

    i = op.info
    refs = []
    for row in rows:
        sign = 1.0 if row["which"] == "p1" else -1.0
        if i["flip"]:
            sign = -sign
        x, xp, tau = float(row["x"]), float(row["x_prime"]), float(row["tau"])
        if i["model"] == "harmonic":
            value = ref.mehler_kernel(x, xp, tau, i["sigma"], i["r"], sign)
        else:
            value = ref.killed_density(x, xp, tau, i["sigma"], i["r"], i["a"],
                                       i["b"], sign)
        refs.append(float(value))
    return refs


def check_kernel(op: Op, rc: int, text: str, outputs: Dict[str, str]) -> List[str]:
    if rc != 0:
        return [f"exit code {rc}"]
    rows = list(csv.DictReader(io.StringIO(text)))
    problems = []
    if len(rows) != op.info["rows"]:
        problems.append(f"{len(rows)} rows, expected {op.info['rows']}")
        return problems
    for column, points in op.info["points"].items():
        if any(min(abs(float(row[column]) - p) for p in points) > 1e-12 for row in rows):
            problems.append(f"{column} values off the requested points")
    if op.reference is None:
        op.reference = _kernel_reference(op, rows)
    peak = max(abs(v) for v in op.reference)
    bad = [(row, expect) for row, expect in zip(rows, op.reference)
           if not _within(float(row["value"]), expect, peak)]
    if bad:
        worst = max(abs(float(row["value"]) - expect) / max(abs(expect), ATOL * peak)
                    for row, expect in bad)
        kinds = sorted({row["method"] for row, _ in bad})
        problems.append(f"{len(bad)} of {len(rows)} rows off the reference "
                        f"({'/'.join(kinds)}), worst relative error {worst:.3g}")
    partner = op.info.get("partner")
    if partner is not None:
        other = list(csv.DictReader(io.StringIO(outputs[partner])))
        if [r["value"] for r in other] != [r["value"] for r in rows]:
            problems.append(f"p2 rows differ from p1 at -beta ({partner})")
    return problems


def check_diagnose(op: Op, rc: int, text: str, outputs: Dict[str, str]) -> List[str]:
    report = json.loads(text)
    problems = _schema_problems(report, "diagnostic_report.schema.json")
    if rc != 0:
        problems.append(f"exit code {rc}")
    if report.get("all_pass") is not True:
        failing = [c["check"] for c in report.get("checks", []) if not c["pass"]]
        problems.append(f"all_pass false: {failing}")
    return problems


# ---------------------------------------------------------------------------
# workloads: argv lists from the seed


def _num(value: float) -> str:
    return repr(float(value))


def price_mc_ops(rng: random.Random) -> List[Op]:
    """Criterion-08 triangle (barriers 80/120) plus one wide-barrier case."""
    cases = [(80.0, 120.0, k, tau) for tau in (0.25, 0.5) for k in (90.0, 100.0, 110.0)]
    cases.append((50.0, 200.0, 100.0, 0.5))
    ops = []
    for lower, upper, strike, tau in cases:
        s0 = round(100.0 + rng.uniform(-0.5, 0.5), 4)
        seed = rng.randrange(1, 2**31)
        argv = ["price", "--model", "barrier", "--payoff", "call", "--strike",
                _num(strike), "--s0", _num(s0), "--lower", _num(lower), "--upper",
                _num(upper), "--tau", _num(tau), "--oracle", "mc", "--paths",
                str(MC_PATHS), "--steps", str(MC_STEPS), "--seed", str(seed)]
        info = {"model": "barrier", "kind": "call", "strike": strike, "s0": s0,
                "lower": lower, "upper": upper, "tau": tau, "sigma": 0.2, "r": 0.05,
                "which": "p1", "flip": False, "mc_seed": seed,
                "width": f"{lower:g}/{upper:g}"}
        ops.append(Op(f"mc {lower:g}/{upper:g} K{strike:g} tau{tau:g}", argv,
                      check_price, info))
    return ops


def _price_op(label, market, model, kind, strike, tau, which="p1", flip=False,
              partner=None, fault="", **where) -> Op:
    name, sigma, r = market
    argv = ["price", "--model", model, "--sigma", sigma, "--r", r, "--payoff", kind,
            "--strike", _num(strike), "--tau", _num(tau), "--which", which]
    if model == "barrier":
        argv += ["--s0", _num(where["s0"]), "--lower", _num(where["lower"]),
                 "--upper", _num(where["upper"])]
    else:
        argv.append(f"--x={_num(where['x'])}")
    if flip:
        argv.append("--flip-beta")
    info = {"model": model, "kind": kind, "strike": strike, "tau": tau,
            "sigma": float(sigma), "r": float(r), "which": which, "flip": flip,
            "partner": partner, **where}
    return Op(f"{name} {label}", argv, check_price, info, fault)


def _kernel_op(label, market, model, xs, x_primes, taus, which="both",
               method="both", flip=False, partner=None, fault="", a=None, b=None) -> Op:
    """xs and x_primes are (lo, hi, count) ranges, taus a list."""
    name, sigma, r = market
    argv = ["kernel", "--model", model, "--sigma", sigma, "--r", r,
            "--x={}:{}:{}".format(_num(xs[0]), _num(xs[1]), xs[2]),
            "--x-prime={}:{}:{}".format(_num(x_primes[0]), _num(x_primes[1]),
                                        x_primes[2]),
            "--tau", ",".join(_num(t) for t in taus), "--which", which,
            "--method", method]
    if model == "barrier":
        argv += ["--a", _num(a), "--b", _num(b)]
    if flip:
        argv.append("--flip-beta")
    rows = (xs[2] * x_primes[2] * len(taus) * (2 if which == "both" else 1)
            * (2 if method == "both" else 1))
    def points(lo, hi, count):
        return [lo + (hi - lo) * k / max(count - 1, 1) for k in range(count)]

    info = {"model": model, "sigma": float(sigma), "r": float(r), "flip": flip,
            "partner": partner, "rows": rows, "a": a, "b": b,
            "points": {"x": points(*xs), "x_prime": points(*x_primes),
                       "tau": list(taus)}}
    return Op(f"{name} {label}", argv, check_kernel, info, fault)


def kernel_price_ops(rng: random.Random) -> List[Op]:
    """Kernel tables and spectral prices over both models and both markets.

    Barrier maturities stop where 128 sine modes still converge (tau >= 0.01
    on 80/120, >= 0.05 on 50/200, >= 0.25 on (0, pi)); harmonic maturities
    start at 0.25, except for the two short-tau harmonic calls that exercise
    the truncation fault. Those two have fixed inputs, so they fail in every
    round of every run.
    """
    def jit(value, rel):
        return round(value * (1.0 + rng.uniform(-rel, rel)), 6)

    a, b = math.log(80.0), math.log(120.0)
    ops = []
    for market in MARKETS:
        name = market[0]
        s0 = jit(100.0, 0.005)
        x = round(rng.uniform(-0.02, 0.02), 6)
        shift = round(rng.uniform(-0.02, 0.02), 6)
        xp = round(0.05 + rng.uniform(-0.02, 0.02), 6)
        narrow = {"s0": s0, "lower": 80.0, "upper": 120.0}
        wide = {"s0": s0, "lower": 50.0, "upper": 200.0}
        ops += [
            _kernel_op("kernel harmonic +-1sigma", market, "harmonic",
                       (-0.2 + shift, 0.2 + shift, 9), (xp, xp, 1), (0.25, 0.5, 1.0, 2.0)),
            _kernel_op("kernel harmonic p2", market, "harmonic",
                       (-0.2 + shift, 0.2 + shift, 9), (xp, xp, 1), (0.5,), which="p2",
                       method="spectral", partner=f"{name} kernel harmonic p1 flip"),
            _kernel_op("kernel harmonic p1 flip", market, "harmonic",
                       (-0.2 + shift, 0.2 + shift, 9), (xp, xp, 1), (0.5,), which="p1",
                       method="spectral", flip=True),
            _kernel_op("kernel harmonic short tau", market, "harmonic",
                       (-0.2, 0.2, 5), (-0.2, 0.2, 5), (0.1,), fault=TRUNCATION_FAULT),
            _kernel_op("kernel barrier 80/120", market, "barrier",
                       (a + 0.04, b - 0.04, 7), (4.6 + shift, 4.6 + shift, 1),
                       (0.01, 0.05, 0.5, 2.0), a=a, b=b),
            _kernel_op("kernel barrier 80/120 p2", market, "barrier",
                       (a + 0.04, b - 0.04, 7), (4.6 + shift, 4.6 + shift, 1), (0.5,),
                       which="p2", method="closed", a=a, b=b,
                       partner=f"{name} kernel barrier 80/120 p1 flip"),
            _kernel_op("kernel barrier 80/120 p1 flip", market, "barrier",
                       (a + 0.04, b - 0.04, 7), (4.6 + shift, 4.6 + shift, 1), (0.5,),
                       which="p1", method="closed", flip=True, a=a, b=b),
            _kernel_op("kernel barrier 0/pi", market, "barrier",
                       (0.5, 2.6, 8), (1.5 + shift, 1.5 + shift, 1), (0.25, 1.0, 2.0),
                       a=0.0, b=3.14159),
        ]
        for kind, strike, tau in (("call", 100.0, 0.01), ("put", 98.0, 0.05),
                                  ("digital_call", 103.0, 0.25), ("call", 105.0, 0.5),
                                  ("put", 100.0, 2.0)):
            ops.append(_price_op(f"price barrier 80/120 {kind} tau{tau:g}", market,
                                 "barrier", kind, jit(strike, 0.01), tau, **narrow))
        for kind, strike, tau in (("call", 100.0, 0.05), ("put", 90.0, 0.5),
                                  ("digital_call", 110.0, 2.0)):
            ops.append(_price_op(f"price barrier 50/200 {kind} tau{tau:g}", market,
                                 "barrier", kind, jit(strike, 0.01), tau, **wide))
        for kind, strike, tau in (("call", 1.0, 0.25), ("put", 1.05, 0.5),
                                  ("digital_call", 0.95, 1.0), ("call", 1.1, 2.0)):
            ops.append(_price_op(f"price harmonic {kind} tau{tau:g}", market,
                                 "harmonic", kind, jit(strike, 0.01), tau, x=x))
        strike = jit(100.0, 0.01)
        ops.append(_price_op("price barrier p2", market, "barrier", "call", strike,
                             0.5, which="p2", partner=f"{name} price barrier p1 flip",
                             **narrow))
        ops.append(_price_op("price barrier p1 flip", market, "barrier", "call",
                             strike, 0.5, flip=True, **narrow))
        strike = jit(1.0, 0.01)
        ops.append(_price_op("price harmonic p2", market, "harmonic", "call", strike,
                             0.5, which="p2", partner=f"{name} price harmonic p1 flip",
                             x=x))
        ops.append(_price_op("price harmonic p1 flip", market, "harmonic", "call",
                             strike, 0.5, flip=True, x=x))
        ops.append(_price_op("price harmonic short tau", market, "harmonic", "call",
                             1.0, 0.01, fault=TRUNCATION_FAULT, x=0.0))
    return ops


DIAGNOSE_CONFIGS = (
    ("harmonic_exact", ["--model", "harmonic", "--nmax", "40"]),
    ("harmonic_grid", ["--model", "harmonic", "--route", "grid", "--nmax", "20"]),
    ("barrier", ["--model", "barrier", "--a", "0", "--b", "3.14159"]),
)


def diagnose_ops(rng: random.Random) -> List[Op]:
    """The three configurations in both markets; the inputs are fixed."""
    ops = []
    for name, sigma, r in MARKETS:
        for config, args in DIAGNOSE_CONFIGS:
            argv = ["diagnose", *args, "--sigma", sigma, "--r", r]
            ops.append(Op(f"{name} diagnose {config}", argv, check_diagnose,
                          {"config": config}))
    return ops


WORKLOADS = {"price-mc": price_mc_ops, "kernel-price": kernel_price_ops,
             "diagnose": diagnose_ops}


def build_ops(workload: str, seed: int) -> List[Op]:
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))


# ---------------------------------------------------------------------------
# running


class Runner:
    def __init__(self, cli, ops: List[Op], out_dir: Path):
        self.cli = cli
        self.ops = ops
        self.out_dir = out_dir
        self.times: Dict[str, List[float]] = {op.label: [] for op in ops}
        self.attempted = 0
        self.failed = 0
        self.peak_rss_mb = 0.0
        self.failures: Dict[str, List[str]] = {}

    def call(self, argv: List[str], path: Path):
        """One timed CLI call; returns (exit code, seconds)."""
        start = time.perf_counter()
        rc = self.cli.main(argv + ["--out", str(path)])
        return rc, time.perf_counter() - start

    def round(self, tracer=None) -> float:
        """Run every op once; returns the summed wall time of the calls."""
        outputs, codes, total = {}, {}, 0.0
        for n, op in enumerate(self.ops):
            path = self.out_dir / f"op{n}.out"
            if path.exists():
                path.unlink()
            try:
                if tracer is not None:
                    with tracer.span("cli.main"):
                        rc, elapsed = self.call(op.argv, path)
                else:
                    rc, elapsed = self.call(op.argv, path)
                text = path.read_text(encoding="utf-8") if path.exists() else ""
            except Exception:  # a crash inside pbk fails this op, not the run
                rc, elapsed, text = None, 0.0, traceback.format_exc(limit=3)
            total += elapsed
            if tracer is None:
                self.times[op.label].append(elapsed)
            outputs[op.label], codes[op.label] = text, rc
        if not self.peak_rss_mb:
            # Rounds repeat the same calls, so the first round's peak is the
            # calls' peak; read it before the checks load the references.
            self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        for op in self.ops:
            self.attempted += 1
            rc, text = codes[op.label], outputs[op.label]
            try:
                problems = (["crashed: " + text.strip().splitlines()[-1]] if rc is None
                            else op.check(op, rc, text, outputs))
            except (ValueError, KeyError, TypeError) as exc:
                problems = [f"unreadable output: {exc!r}"]
            if problems:
                self.failed += 1
                self.failures.setdefault(op.label, problems)
        return total

    def best_times(self) -> Dict[str, float]:
        """Each call's fastest time over the rounds.

        The machine is shared and its speed swings by up to 2x for seconds at
        a time; the fastest of a call's repeats is the time it takes when
        nothing else interferes, and it moved least between runs (see README).
        """
        return {label: min(t) for label, t in self.times.items() if t}


def check_mc_determinism(cli, out_dir: Path, seed: int) -> List[str]:
    """A three-block Monte Carlo price must not depend on PBK_THREADS."""
    argv = ["price", "--model", "barrier", "--strike", "100", "--s0", "100",
            "--lower", "80", "--upper", "120", "--tau", "0.25", "--oracle", "mc",
            "--paths", str(2 * MC_PATHS + 1000), "--steps", "64", "--seed", str(seed)]
    results = {}
    try:
        for threads in ("1", "2"):
            os.environ["PBK_THREADS"] = threads
            path = out_dir / f"threads{threads}.out"
            cli.main(argv + ["--out", str(path)])
            oracle = json.loads(path.read_text(encoding="utf-8"))["oracle"]
            results[threads] = (oracle["value"], oracle.get("stderr"))
    except (OSError, ValueError, KeyError) as exc:
        return [f"Monte Carlo determinism check could not run: {exc!r}"]
    finally:
        os.environ.pop("PBK_THREADS", None)
    if results["1"] != results["2"]:
        return [f"Monte Carlo differs between PBK_THREADS=1 {results['1']} "
                f"and PBK_THREADS=2 {results['2']}"]
    return []


def bridge_block_times(ops: List[Op]) -> Dict[str, dict]:
    """Seconds of one Monte Carlo block with the bridge weight on and off.

    Same (seed, block) key, so both see the same normals; one op per barrier
    width, twice on and twice off, alternating.
    """
    import pbk.pricing as pricing

    out = {}
    for op in ops:
        i = op.info
        if i["width"] in out:
            continue
        on, off = [], []
        for _ in range(2):
            for bridge, sink in ((True, on), (False, off)):
                cfg = pricing.MCConfig(paths=MC_PATHS, steps=MC_STEPS,
                                       seed=i["mc_seed"], bridge_correction=bridge)
                start = time.perf_counter()
                pricing._simulate_block(
                    0, MC_PATHS, math.log(i["s0"]), math.log(i["lower"]),
                    math.log(i["upper"]), i["sigma"], i["r"], i["tau"], cfg,
                    pricing.Payoff("call", i["strike"]))
                sink.append(time.perf_counter() - start)
        out[i["width"]] = {"on_s": statistics.median(on), "off_s": statistics.median(off)}
    return out


def mc_peak_mb(op: Op) -> float:
    """tracemalloc peak of one Monte Carlo call, in MB."""
    import tracemalloc

    import pbk.pricing as pricing

    i = op.info
    cfg = pricing.MCConfig(paths=MC_PATHS, steps=MC_STEPS, seed=i["mc_seed"])
    tracemalloc.start()
    try:
        pricing.price_mc_barrier(pricing.Payoff("call", i["strike"]), i["s0"],
                                 (i["lower"], i["upper"]), i["sigma"], i["r"],
                                 i["tau"], cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / 1e6


# ---------------------------------------------------------------------------
# workload figures printed for people (the JSON metrics come from run.py)


def workload_figures(workload: str, ops: List[Op], best: Dict[str, float]) -> dict:
    figures = {}
    if workload == "price-mc":
        for width in sorted({op.info["width"] for op in ops}):
            times = [best[op.label] for op in ops if op.info["width"] == width]
            figures[f"verified_price_s[{width}]"] = (statistics.median(times), "s")
        all_times = [best[op.label] for op in ops]
        figures["verified_price_s"] = (statistics.median(all_times), "s")
        figures["mc_path_steps_per_s"] = (
            MC_PATHS * MC_STEPS * len(ops) / sum(all_times), "1/s")
    elif workload == "kernel-price":
        prices = [best[op.label] for op in ops if op.argv[0] == "price"]
        kernels = [op for op in ops if op.argv[0] == "kernel"]
        figures["spectral_prices_per_s"] = (len(prices) / sum(prices), "1/s")
        figures["kernel_rows_per_s"] = (
            sum(op.info["rows"] for op in kernels)
            / sum(best[op.label] for op in kernels), "1/s")
    else:
        for config, _ in DIAGNOSE_CONFIGS:
            times = [best[op.label] for op in ops if op.info["config"] == config]
            figures[f"diagnose_{config}_s"] = (statistics.mean(times), "s")
    return figures


def layer_figures(summary: dict, counts: dict, rounds: int, traced_s: float,
                  extras: dict) -> dict:
    """Per-layer figures from the traced rounds, per round unless named."""
    from tracing import PBK_LAYERS

    def calls(name):
        return summary.get(name, {}).get("calls", 0) / rounds

    def total(name):
        return summary.get(name, {}).get("total_s", 0.0) / rounds

    def share(name):
        return 100.0 * summary.get(name, {}).get("total_s", 0.0) / traced_s

    def per_call(name):
        entry = summary.get(name)
        return entry["total_s"] / entry["calls"] if entry else 0.0

    f = {"cli.self_s": (summary.get("cli.main", {}).get("self_s", 0.0) / rounds, "s")}
    for layer in PBK_LAYERS:
        own = sum(e["self_s"] for n, e in summary.items()
                  if n.split(".")[0] == layer)
        f[f"{layer}.self_pct"] = (100.0 * own / traced_s, "%")
    f["pricing.price_mc_barrier_s"] = (per_call("pricing.price_mc_barrier"), "s")
    f["pricing.price_mc_barrier_pct"] = (share("pricing.price_mc_barrier"), "%")
    f["pricing.price_mc_barrier_calls"] = (calls("pricing.price_mc_barrier"), "count")
    f["pricing.mc_block_s"] = (per_call("pricing.mc_block"), "s")
    f["pricing.mc_block_pct"] = (share("pricing.mc_block"), "%")
    f["pricing.mc_blocks"] = (calls("pricing.mc_block"), "count")
    f["pricing.mc_path_steps"] = (counts.get("pricing.mc_path_steps", 0) / rounds, "count")
    bridge = extras.get("bridge", {})
    if bridge:
        on = statistics.mean(v["on_s"] for v in bridge.values())
        off = statistics.mean(v["off_s"] for v in bridge.values())
        f["pricing.mc_bridge_block_s"] = (on - off, "s")
        f["pricing.mc_bridge_pct"] = (100.0 * (on - off) / on, "%")
    else:
        f["pricing.mc_bridge_block_s"] = (0.0, "s")
        f["pricing.mc_bridge_pct"] = (0.0, "%")
    f["pricing.mc_peak_mb"] = (extras.get("mc_peak_mb", 0.0), "MB")
    f["pricing.price_spectral_s"] = (per_call("pricing.price_spectral"), "s")
    f["pricing.price_spectral_pct"] = (share("pricing.price_spectral"), "%")
    f["pricing.price_spectral_calls"] = (calls("pricing.price_spectral"), "count")
    rows = counts.get("kernels.rows", 0)
    f["kernels.kernel_rows_row_us"] = (
        1e6 * summary["kernels.kernel_rows"]["total_s"] / rows if rows else 0.0, "us")
    f["kernels.kernel_rows_pct"] = (share("kernels.kernel_rows"), "%")
    f["kernels.rows"] = (rows / rounds, "count")
    for name, short in (("kernels.closed_value", "closed_value"),
                        ("kernels.spectral_values", "spectral_values"),
                        ("specialfn.hermite_sequence", "hermite_sequence"),
                        ("specialfn.theta3", "theta3"),
                        ("quadrature.adaptive", "adaptive"),
                        ("barrier.analyze", "analyze"),
                        ("grids.difference", "difference")):
        layer = name.split(".")[0]
        f[f"{layer}.{short}_calls"] = (calls(name), "count")
        f[f"{layer}.{short}_s"] = (total(name), "s")
        f[f"{layer}.{short}_pct"] = (share(name), "%")
    f["quadrature.inner_product_calls"] = (calls("quadrature.inner_product"), "count")
    f["quadrature.nodes_evaluated"] = (
        counts.get("quadrature.nodes_evaluated", 0) / rounds, "count")
    f["quadrature.legendre_rule_calls"] = (calls("quadrature.legendre_rule"), "count")
    for check in ("vacua", "ladder", "number_operator", "biorthogonality",
                  "quasi_basis", "theta_conjugacy", "norm_growth"):
        f[f"pb_core.check_{check}_s"] = (total(f"pb_core.check_{check}"), "s")
        f[f"pb_core.check_{check}_pct"] = (share(f"pb_core.check_{check}"), "%")
    f["systems.build_s"] = (total("systems.build"), "s")
    f["systems.build_pct"] = (share("systems.build"), "%")
    f["barrier.synthesized_evals"] = (calls("barrier.synthesized_eval"), "count")
    f["barrier.synthesized_eval_s"] = (total("barrier.synthesized_eval"), "s")
    f["barrier.synthesized_eval_pct"] = (share("barrier.synthesized_eval"), "%")
    f["harmonic.expansion_evals"] = (calls("harmonic.expansion_eval"), "count")
    f["harmonic.expansion_eval_s"] = (total("harmonic.expansion_eval"), "s")
    f["harmonic.expansion_eval_pct"] = (share("harmonic.expansion_eval"), "%")
    return f


# ---------------------------------------------------------------------------


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true")
    args = p.parse_args(argv)
    if args.seconds is None and not args.setup_probe:
        p.error("--seconds is required unless --setup-probe is given")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    os.environ.pop("PBK_THREADS", None)  # one pricing worker
    import pbk.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"pbk imported from {cli.__file__}, not from {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    ops = build_ops(args.workload, args.seed)
    print("ready", flush=True)
    if args.setup_probe:
        return 0

    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import tracing

    out_dir = OUT_DIR / f"run-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    runner = Runner(cli, ops, out_dir)
    problems = []
    if args.workload == "price-mc":
        problems += check_mc_determinism(cli, out_dir, args.seed)

    tracer = tracing.Tracer() if args.trace else None
    untraced, traced = [], []
    start = time.perf_counter()
    while True:
        untraced.append(runner.round())
        if tracer is not None:
            tracer.install()
            tracer.enabled = True
            try:
                traced.append(runner.round(tracer))
            finally:
                tracer.enabled = False
                tracer.uninstall()
        # stop where the expected end of another round is past --seconds
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * elapsed / len(untraced) >= args.seconds:
            break
    measured_s = time.perf_counter() - start

    best = runner.best_times()
    result = {
        "attempted": runner.attempted,
        "failed": runner.failed,
        "rounds": len(untraced),
        "measured_s": measured_s,
        "round_s": sum(best.values()),
        "call_geomean_s": math.exp(statistics.fmean(math.log(t) for t in best.values())),
        "peak_rss_mb": runner.peak_rss_mb,
        "problems": problems,
    }
    print(f"# workload {args.workload}, seed {args.seed}: {len(ops)} calls per round, "
          f"{len(untraced)} untraced and {len(traced)} traced rounds in {measured_s:.1f} s")
    for label, reasons in sorted(runner.failures.items()):
        op = next(o for o in ops if o.label == label)
        print(f"# FAILED {label}: {'; '.join(reasons)}")
        if op.fault:
            print(f"#   known fault: {op.fault}")
        else:
            problems.append(f"{label} failed without a named fault")
    for reason in problems:
        print(f"# PROBLEM {reason}")
    figures = workload_figures(args.workload, ops, best)
    for name, (value, unit) in figures.items():
        print(f"# {name} = {value:.6g} {unit}")

    if tracer is not None:
        extras = {}
        if args.workload == "price-mc":
            extras["bridge"] = bridge_block_times(ops)
            extras["mc_peak_mb"] = mc_peak_mb(ops[0])
        traced_s = sum(traced)
        layers = layer_figures(tracer.summary(), tracer.counts, len(traced),
                               traced_s, extras)
        layers["trace.overhead_pct"] = (
            100.0 * (min(traced) / min(untraced) - 1.0), "%")
        print("# per-layer figures, per traced round; pricing.price_mc_barrier_s, "
              "mc_block_s and price_spectral_s are per call or block, "
              "kernels.kernel_rows_row_us per row:")
        for name, (value, unit) in layers.items():
            print(f"#   {name} = {value:.6g} {unit}")
        tracer.dump(OUT_DIR / f"trace-{args.workload}.json")
        result["layers"] = {name: value for name, (value, _) in layers.items()}
    for path in out_dir.iterdir():
        path.unlink()
    out_dir.rmdir()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
