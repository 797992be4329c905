"""pbk benchmark command.

    python3 perfbench/run.py --workload price-mc|kernel-price|diagnose \
        --seed N --seconds S --trace 0|1

Run from the root of a pbk source tree. The workload runs in a fresh child
process that imports pbk from ./src (nothing is installed) with
PBK_THREADS unset and the numeric libraries on one thread. Set-up time is
also measured on separate probe processes that only import pbk and build the
workload's inputs. The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics under --trace 0 and the per-layer metrics under
--trace 1, named and in the units that BENCHMARK.json gives. The lines before
it are the workload's own figures, failures and, when traced, every
per-layer figure.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOAD_SCRIPT = HERE / "workload.py"
WORKLOADS = ("price-mc", "kernel-price", "diagnose")
# Set-up probes run before and after the workload process, so the median of
# the nine set-up samples spans the whole run, not one moment of it.
SETUP_PROBES = 4
CHILD_TIMEOUT_S = 170.0


class Child:
    """A workload.py process; killed if it outlives the deadline."""

    def __init__(self, args: list, root: Path, deadline: float):
        env = dict(os.environ)
        env.pop("PBK_THREADS", None)
        env["PYTHONPATH"] = str(root / "src")
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = "1"
        self.start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(WORKLOAD_SCRIPT), *args], cwd=root, env=env,
            stdout=subprocess.PIPE, text=True)
        self.timer = threading.Timer(max(deadline - time.monotonic(), 0.0),
                                     self.proc.kill)
        self.timer.start()

    def ready_s(self) -> float:
        """Seconds from launch until the child reports its inputs built."""
        line = self.proc.stdout.readline()
        if line.strip() != "ready":
            raise RuntimeError("workload process stopped before it was ready")
        return time.perf_counter() - self.start

    def finish(self) -> list:
        """Remaining output lines; raises unless the child exited with 0."""
        lines = self.proc.stdout.read().splitlines()
        code = self.proc.wait()
        self.timer.cancel()
        if code != 0:
            raise RuntimeError(f"workload process exited with {code}")
        return lines

    def stop(self) -> None:
        self.timer.cancel()
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()


def probe_setup(common: list, root: Path, deadline: float) -> list:
    """Set-up seconds of SETUP_PROBES fresh processes, one after another."""
    setup = []
    for _ in range(SETUP_PROBES):
        probe = Child([*common, "--setup-probe"], root, deadline)
        try:
            setup.append(probe.ready_s())
            probe.finish()
        finally:
            probe.stop()
    return setup


def run(args: argparse.Namespace, root: Path) -> dict:
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    setup = probe_setup(common, root, deadline)
    child = Child([*common, "--seconds", str(args.seconds), "--trace",
                   str(args.trace)], root, deadline)
    try:
        setup.append(child.ready_s())
        lines = child.finish()
    finally:
        child.stop()
    setup += probe_setup(common, root, deadline)
    for line in lines[:-1]:
        print(line)
    raw = json.loads(lines[-1])
    correct = not raw["problems"]
    with open(root / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    if args.trace:
        values = raw["layers"]
        names = spec["per_layer"]
    else:
        values = dict(raw, setup_s=statistics.median(setup))
        names = spec["end_to_end"]
        print(f"# set-up samples (s): {', '.join(f'{s:.4f}' for s in setup)}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in names}
    return {"correct": correct, "attempted": raw["attempted"], "failed": raw["failed"],
            "metrics": metrics}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="pbk benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "pbk" / "cli.py").is_file():
        print(f"error: no pbk sources under {root / 'src'}; run from the root of "
              "a pbk checkout", file=sys.stderr)
        return 2
    try:
        result = run(args, root)
    except (RuntimeError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
