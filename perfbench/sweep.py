#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/sweep.py --workloads grade,grid-ensemble --seeds 1-10

Each run is a fresh ``perfbench/run.py`` process with BENCHMARK.json's
``run_seconds``.  For every end-to-end metric the table gives the median,
the quartiles (``statistics.quantiles(values, n=4)``) and the spread, the
distance between the quartiles as a share of the median, next to the
metric's bound; a spread above a third of the bound is marked WIDE.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text: str):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run(workload: str, seed: int, seconds: int):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc.returncode, result, proc.stderr


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", default="grade,grid-ensemble,grid-crossmodal")
    p.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,7")
    args = p.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = spec["end_to_end"]
    ok = True
    for workload in args.workloads.split(","):
        values = {m["name"]: [] for m in metrics}
        for seed in seeds(args.seeds):
            code, result, stderr = run(workload, seed, spec["run_seconds"])
            if code != 0 or result is None or not result["correct"]:
                ok = False
                print(f"{workload} seed {seed}: exit {code}\n{stderr}", file=sys.stderr)
                continue
            for name, m in result["metrics"].items():
                values[name].append(m["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
        print(f"\n{workload}: metric median q1 q3 spread bound")
        for m in metrics:
            vals = values[m["name"]]
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            steady = spread <= m["bound"] / 3
            print(f"  {m['name']:<16} {med:12.4f} {q1:12.4f} {q3:12.4f} "
                  f"{spread:7.4f} {m['bound']:5.2f} {'ok' if steady else 'WIDE'}")
        print(flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
