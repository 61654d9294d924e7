#!/usr/bin/env python3
"""Steadiness check: two alternating sets of runs of the same code.

    python3 perfbench/steadiness.py [--runs 10] [--workloads a,b]

For each workload it runs set A (seeds FIRST_SEED + i) and set B (seeds
FIRST_SEED + 1000 + i), alternating which set goes first, through
perfbench/run.py with BENCHMARK.json's run_seconds.  For every
end-to-end metric it prints each set's median and quartiles, the spread
(quartile distance over the median) and the difference of the set
medians (B - A, over A's median), each against the metric's bound.  A
row passes when both spreads and the size of the difference are within
the bound.  Exits 1 when any row fails or any run fails.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIRST_SEED = 100


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"steadiness.py: {workload} seed {seed} failed:\n{done.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        print(f"warning: {workload} seed {seed}: correct=false", file=sys.stderr)
    return result


def summary(values: list) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / q2 if q2 else 0.0}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default="")
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = ([w for w in args.workloads.split(",") if w] or
                 [w["name"] for w in bench["workloads"]])
    metrics = bench["end_to_end"]
    ok = True
    print(f"{'workload':15} {'metric':12} {'A median':>11} {'A q1..q3':>23} "
          f"{'B median':>11} {'A spr':>6} {'B spr':>6} {'B-A':>7} "
          f"{'bound':>6}  verdict")
    for workload in workloads:
        runs = {"A": [], "B": []}
        for i in range(args.runs):
            order = ("A", "B") if i % 2 == 0 else ("B", "A")
            for side in order:
                seed = FIRST_SEED + i + (1000 if side == "B" else 0)
                runs[side].append(run_once(workload, seed, bench["run_seconds"]))
        for metric in metrics:
            name, bound = metric["name"], metric["bound"]
            a = summary([r["metrics"][name]["value"] for r in runs["A"]])
            b = summary([r["metrics"][name]["value"] for r in runs["B"]])
            diff = (b["median"] - a["median"]) / a["median"]
            passed = max(a["spread"], b["spread"], abs(diff)) <= bound
            ok = ok and passed
            print(f"{workload:15} {name:12} {a['median']:11.5g} "
                  f"{a['q1']:11.5g}..{a['q3']:<11.5g} {b['median']:11.5g} "
                  f"{a['spread']:6.3f} {b['spread']:6.3f} {diff:+7.3f} "
                  f"{bound:6.3f}  {'ok' if passed else 'FAIL'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
