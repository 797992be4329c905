"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload diagnose --seeds 1-10

Run from the root of a pbk checkout. For every end-to-end metric it prints the median
over the runs and the distance between the first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of the median, plus the
failed share of the operations in each run. The run length is
BENCHMARK.json's run_seconds.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_list(spec: str) -> list:
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10")
    args = p.parse_args(argv)
    with open("BENCHMARK.json", encoding="utf-8") as handle:
        seconds = json.load(handle)["run_seconds"]
    results = []
    for seed in seed_list(args.seeds):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.splitlines()[-1])
        results.append(result)
        share = result["failed"] / result["attempted"]
        print(f"seed {seed}: correct={result['correct']} failed/attempted = "
              f"{result['failed']}/{result['attempted']} = {share:.6f}", flush=True)
    print(f"{'metric':34} {'median':>12} {'iqr/median':>10}  unit")
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        rel = (q3 - q1) / med if med else float("nan")
        print(f"{name:34} {med:12.6g} {rel:10.4f}  {first['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
