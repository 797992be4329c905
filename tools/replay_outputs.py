#!/usr/bin/env python3
"""Replay the benchmark's CLI calls in two source trees and compare outputs.

    python3 tools/replay_outputs.py PARENT CHANGE --seeds 1,2 \
        [--workloads price-mc,kernel-price,diagnose]

For every seed and workload, each argv that the tree's
``perfbench/workload.py`` builds with ``build_ops`` is run in process through
``pbk.cli.main`` with ``--out``, in a child process per tree that imports pbk
from ``TREE/src``. For each argv one line says: identical; exit code or
stderr differs; or the largest relative numeric move, |a - b| / max(|a|, |b|),
by field. Kernel tables are compared by column and method; a JSON report by
the path of each number in it. The last lines give each field's largest move
over all argvs.
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

WORKLOADS = ("price-mc", "kernel-price", "diagnose")


def collect(tree: Path, seeds, workloads) -> list:
    """Every (workload, seed, label, argv, exit code, stderr, output) of the tree."""
    sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]
    os.environ.pop("PBK_THREADS", None)
    import workload as bench  # the tree's perfbench/workload.py
    from pbk.cli import main

    runs = []
    with tempfile.TemporaryDirectory() as scratch:
        out = Path(scratch) / "out"
        for seed in seeds:
            for name in workloads:
                for op in bench.build_ops(name, seed):
                    if out.exists():
                        out.unlink()
                    err = io.StringIO()
                    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                        code = main(op.argv + ["--out", str(out)])
                    text = out.read_text(encoding="utf-8") if out.exists() else ""
                    runs.append({"workload": name, "seed": seed, "label": op.label,
                                 "argv": op.argv, "code": code, "stderr": err.getvalue(),
                                 "output": text})
    return runs


def _fields(text: str) -> dict:
    """Numbers of one output by field: (column, method) rows of a kernel CSV,
    or the path of each number in a JSON report."""
    if text.startswith("x,x_prime,"):
        fields = defaultdict(list)
        for row in csv.DictReader(io.StringIO(text)):
            for column in ("value", "tail_estimate", "rel_disagreement"):
                if row[column]:
                    fields[f"{column}[{row['method']}]"].append(float(row[column]))
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

    walk(json.loads(text), "")
    return fields


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
    notes = [f"{word} {sorted(keys)}" for word, keys in
             (("dropped", old.keys() - new.keys()), ("added", new.keys() - old.keys()))
             if keys]
    common = old.keys() & new.keys()
    if any(len(old[k]) != len(new[k]) for k in common):
        return "numbers differ in count", "; ".join(notes), {}
    moves = {k: max(map(_move, old[k], new[k])) for k in common}
    moves = {k: m for k, m in moves.items() if m > 0.0}
    if not moves:
        return "numbers identical", "; ".join(notes), {}
    worst = max(moves, key=moves.get)
    notes.insert(0, f"{moves[worst]:.3g} in {worst}; " + ", ".join(
        f"{k} {m:.3g}" for k, m in sorted(moves.items())))
    return "largest move", "; ".join(notes), moves


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
    for parent, change in zip(*runs):
        if parent["argv"] != change["argv"]:
            raise SystemExit(f"the trees build different argvs: {parent['argv']} "
                             f"vs {change['argv']}")
        kind, detail, moves = compare(parent, change)
        counts[kind] += 1
        for field, move in moves.items():
            key = f"{parent['workload']} {field}"
            worst[key] = max(worst[key], move)
        print(f"{parent['workload']} seed {parent['seed']} {parent['label']}: {kind}"
              + (f" {detail}" if detail else ""))
    print(f"# {len(runs[0])} argvs: " + ", ".join(f"{n} {k}" for k, n in sorted(counts.items())))
    for key, move in sorted(worst.items()):
        print(f"# largest move of {key}: {move:.3g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
