#!/usr/bin/env python3
"""Run the benchmark once per seed and report every run and the spread.

Usage: python3 perfbench/spread.py --workload codebook --seeds 0-9

Each run uses BENCHMARK.json's run_seconds and --trace 0.  Prints each
run's metrics, then per metric the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread, which is the
distance between the first and third quartile as a share of the median.
Spreads are compared against a third of each metric's bound in
BENCHMARK.json.  Exits 1 if any run is not correct.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds, default=seeds("0-9"))
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    values: dict = {}
    ok = True
    for seed in args.seeds:
        out = subprocess.run(
            [sys.executable, *spec["command"][1:], "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=False)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            print(f"seed {seed}: exit {out.returncode}\n{out.stderr}")
            return 1
        res = json.loads(lines[-1])
        for line in lines[:-1]:
            if line.startswith(("setup:", "pass ")):
                print(f"  {line}")
        ok &= res["correct"]
        print(f"seed {seed}: correct {res['correct']} attempted {res['attempted']} "
              f"failed {res['failed']} " + " ".join(
                  f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()), flush=True)
        for k, v in res["metrics"].items():
            values.setdefault(k, []).append(v["value"])

    print(f"{'metric':38s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound/3':>8s}")
    for k, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else float("nan")
        b = bounds.get(k)
        flag = "" if b is None or k == "setup_s" or spread < b / 3 else "  WIDE"
        print(f"{k:38s} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} "
              f"{'' if b is None else f'{b / 3:8.4f}'}{flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
