#!/usr/bin/env python3
"""Replay the benchmark's CLI calls in two source trees and compare outputs.

    python3 tools/replay_outputs.py PARENT CHANGE --seeds 1,2 \
        [--workloads price-mc,kernel-price,diagnose]

For every seed and workload, each argv that the tree's
``perfbench/workload.py`` builds with ``build_ops`` is run in process through
``pbk.cli.main`` with ``--out``, in a child process per tree that imports pbk
from ``TREE/src``. So is each argv of GRID_SWEEP, the harmonic grid route over
a grid of markets and mode counts. Each argv of REFUSALS, which the parser or
a command refuses, fails or answers with help, is run without ``--out``: its
standard output is captured and a ``SystemExit`` gives its exit code. For
each argv one line says: identical; exit code or stderr differs; output
differs (text that is no report); text differs, with the fields whose
strings, booleans or nulls changed; or the largest relative numeric move,
|a - b| / max(|a|, |b|), by field. Kernel tables are compared by column and
method; a JSON report by the path of each leaf in it. The last lines give,
for each diagnose check, how many of its figures rose, fell or held over
every argv that reports it in both trees, each field's largest move over all
argvs, and each tree's total line count of ``src/pbk/*.py``.

The exit status is 1 when any argv's exit code, stderr, plain-text output,
set of fields (a field dropped or added, or a field with a different count
of leaves) or any leaf that is not a number differs, and 0 otherwise:
numeric moves are only reported, so the status of a run checks a claim that
only numbers moved, or with no move lines that nothing did.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import os
import subprocess
import sys
import tempfile
from collections import defaultdict
from pathlib import Path
from typing import Optional

WORKLOADS = ("price-mc", "kernel-price", "diagnose")
# the kinds of difference that fail the replay
STRUCTURAL = ("exit code or stderr differs", "output differs", "leaves differ in count",
              "fields differ", "text differs")
NUMERIC = ("value", "tail_estimate", "rel_disagreement")  # a kernel table's number columns
# argvs that a command refuses or reports as failing a check, then ones that
# the parser refuses or answers with help
REFUSALS = (
    "price --model harmonic --x nan",
    "price --model harmonic --tau 0.01",
    "kernel --model barrier --a 0 --b 3 --x 3.5 --x-prime 1 --tau 0.5",
    "kernel --model harmonic --x inf --tau 0.5",
    "diagnose --model harmonic --a 1",
    "kernel --model barrier --a 0 --b 1 --w 1",
    "diagnose --model barrier --a 0 --b 1 --route grid",
    "kernel --model barrier --a 0 --b 3 --x 1.2 --x-prime 1.5 --tau 1e-7 --method spectral",
    "diagnose --model barrier --a 0 --b 12",
    "diagnose --model barrier --a 0 --b 5e-4",
    "diagnose --model harmonic --sigma 0.01",
    "diagnose --model barrier --a 0 --b 900",
    "diagnose --model harmonic --sigma 50",
    "diagnose --model barrier --b 3",
    "kernel --model barrier --a 3 --b 0",
    "price --model barrier --lower 0 --upper 120",
    "price --model barrier --lower 120 --upper 80",
    "kernel --model harmonic --x 0.1:0.2",
    "price --model barrier --lower 80 --upper 120 --bogus",
    "price --model barrier --lower 80 --upper 120 --stri 100",
    "price --model barrier --lower 80 --upper 120 stray",
    "price --strike 100",
    "kernel --model harmonic --which p3",
    "",
    "quote --model harmonic",
    "price --help",
    "--help",
)
# the harmonic grid route over markets and mode counts, each run with --out
GRID_SWEEP = tuple(
    f"diagnose --model harmonic --route grid --nmax {nmax} --sigma {sigma} --r {r}"
    for sigma in ("0.02", "0.05", "0.1", "0.2", "0.3162278", "0.5", "1.2", "3", "5")
    for r in ("0.02", "0.05", "0.1") for nmax in (20, 40))


def collect(tree: Path, seeds, workloads) -> list:
    """Every (workload, seed, label, argv, exit code, stderr, output) of the tree."""
    sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]
    os.environ.pop("PBK_THREADS", None)
    import workload as bench  # the tree's perfbench/workload.py
    from pbk.cli import main

    runs = []
    with tempfile.TemporaryDirectory() as scratch:
        out = Path(scratch) / "out"

        def run(name, seed, label, argv):
            if out.exists():
                out.unlink()
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = main(argv + ["--out", str(out)])
            text = out.read_text(encoding="utf-8") if out.exists() else ""
            runs.append({"workload": name, "seed": seed, "label": label, "argv": argv,
                         "code": code, "stderr": err.getvalue(), "output": text})

        for seed in seeds:
            for name in workloads:
                for op in bench.build_ops(name, seed):
                    run(name, seed, op.label, op.argv)
        for line in GRID_SWEEP:
            run("grid sweep", "-", repr(line), line.split())
    for line in REFUSALS:
        argv = line.split()
        err, out = io.StringIO(), io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(out):
            try:
                code = main(argv)
            except SystemExit as stop:
                code = stop.code
        runs.append({"workload": "refusal", "seed": "-", "label": repr(line), "argv": argv,
                     "code": code, "stderr": err.getvalue(), "output": out.getvalue()})
    return runs


def _fields(text: str) -> Optional[dict]:
    """Leaves of one output by field, numbers as floats: the cells of each
    (column, method) of a kernel CSV, the number columns read as floats, or
    the leaves at each path of a JSON report; None for other text."""
    if text.startswith("x,x_prime,"):
        fields = defaultdict(list)
        for row in csv.DictReader(io.StringIO(text)):
            for column, cell in row.items():
                if column in NUMERIC and cell:
                    cell = float(cell)
                fields[f"{column}[{row['method']}]"].append(cell)
        return fields
    fields = defaultdict(list)

    def walk(node, path):
        if isinstance(node, dict):
            for key, item in node.items():
                walk(item, f"{path}.{key}" if path else key)
        elif isinstance(node, list):
            for item in node:
                walk(item, f"{path}[]")
        elif isinstance(node, (int, float)) and not isinstance(node, bool):
            fields[path].append(float(node))
        else:  # a string, boolean or null
            fields[path].append(node)

    try:
        report = json.loads(text)
    except ValueError:
        return None
    walk(report, "")
    return fields


def source_lines(tree: Path) -> int:
    """The newlines in the tree's src/pbk/*.py, as ``wc -l`` counts them."""
    return sum(path.read_bytes().count(b"\n") for path in (tree / "src" / "pbk").glob("*.py"))


def _check_figures(text: str) -> dict:
    """A diagnose report's max_residual by check; empty for any other output."""
    try:
        report = json.loads(text)
    except ValueError:
        return {}
    checks = report.get("checks", []) if isinstance(report, dict) else []
    return {c["check"]: c["max_residual"] for c in checks}


def _move(a: float, b: float) -> float:
    return 0.0 if a == b else abs(a - b) / max(abs(a), abs(b))


def compare(parent: dict, change: dict):
    """(kind, detail, {field: largest move}) of one argv."""
    if (parent["code"], parent["stderr"]) != (change["code"], change["stderr"]):
        return ("exit code or stderr differs", f"{parent['code']} {parent['stderr']!r} -> "
                f"{change['code']} {change['stderr']!r}", {})
    if parent["output"] == change["output"]:
        return "identical", "", {}
    old, new = _fields(parent["output"]), _fields(change["output"])
    if old is None or new is None:
        return "output differs", "", {}
    notes = [f"{word} {sorted(keys)}" for word, keys in
             (("dropped", old.keys() - new.keys()), ("added", new.keys() - old.keys()))
             if keys]
    common = sorted(old.keys() & new.keys())
    if any(len(old[k]) != len(new[k]) for k in common):
        return "leaves differ in count", "; ".join(notes), {}
    moves, texts = defaultdict(float), []
    for k in common:
        for a, b in zip(old[k], new[k]):
            if isinstance(a, float) and isinstance(b, float):
                moves[k] = max(moves[k], _move(a, b))
            elif (type(a), a) != (type(b), b) and k not in texts:
                texts.append(k)
    if texts:
        notes.append(f"at {texts}")
    moves = {k: m for k, m in moves.items() if m > 0.0}
    if moves:
        worst = max(moves, key=moves.get)
        notes.insert(0, f"{moves[worst]:.3g} in {worst}; " + ", ".join(
            f"{k} {m:.3g}" for k, m in sorted(moves.items())))
    kind = ("fields differ" if old.keys() != new.keys() else "text differs" if texts else
            "largest move" if moves else "numbers identical")
    return kind, "; ".join(notes), moves


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("trees", nargs="*", type=Path, metavar="TREE")
    parser.add_argument("--seeds", default="1,2")
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--collect", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    workloads = args.workloads.split(",")
    if args.collect:
        json.dump(collect(args.collect.resolve(), seeds, workloads), sys.stdout)
        return 0
    if len(args.trees) != 2:
        parser.error("give two trees: PARENT CHANGE")
    runs = []
    for tree in args.trees:
        child = subprocess.run(
            [sys.executable, __file__, "--collect", str(tree.resolve()), "--seeds",
             args.seeds, "--workloads", args.workloads],
            capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": ""})
        runs.append(json.loads(child.stdout))
    worst = defaultdict(float)
    counts = defaultdict(int)
    figures = defaultdict(lambda: {"rose": 0, "fell": 0, "held": 0})
    for parent, change in zip(*runs):
        if parent["argv"] != change["argv"]:
            raise SystemExit(f"the trees build different argvs: {parent['argv']} "
                             f"vs {change['argv']}")
        kind, detail, moves = compare(parent, change)
        counts[kind] += 1
        old, new = _check_figures(parent["output"]), _check_figures(change["output"])
        for check in old.keys() & new.keys():
            a, b = old[check], new[check]
            figures[check]["rose" if b > a else "fell" if b < a else "held"] += 1
        for field, move in moves.items():
            key = f"{parent['workload']} {field}"
            worst[key] = max(worst[key], move)
        print(f"{parent['workload']} seed {parent['seed']} {parent['label']}: {kind}"
              + (f" {detail}" if detail else ""))
    print(f"# {len(runs[0])} argvs: " + ", ".join(f"{n} {k}" for k, n in sorted(counts.items())))
    for check, tally in sorted(figures.items()):
        print(f"# diagnose {check}: " + ", ".join(f"{n} {k}" for k, n in tally.items()))
    for key, move in sorted(worst.items()):
        print(f"# largest move of {key}: {move:.3g}")
    print("# src/pbk/*.py lines: " + " -> ".join(f"{source_lines(tree)} in {tree}"
                                                 for tree in args.trees))
    failed = sum(counts[kind] for kind in STRUCTURAL)
    if failed:
        print(f"# {failed} argvs differ in exit code, stderr or numeric fields")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
