#!/usr/bin/env python3
"""Steadiness report: run workloads repeatedly and show how much each
metric spreads between runs.

Usage (from the repository root):

    python3 perfbench/steadiness.py --workload serve-dense --runs 10
    python3 perfbench/steadiness.py --workload all --runs 10 --first-seed 101

Each run uses its own seed (first-seed, first-seed + 1, ...). For every
metric the report prints the median, the first and third quartiles
(statistics.quantiles(values, n=4)) and the spread (Q3 - Q1) / median,
next to the metric's bound from BENCHMARK.json. A spread above a third of
the bound is flagged "wide" (the benchmark is not steady enough to resolve
its own bound), and one above the bound "FAIL"; setup_s is held to its
bound like every other metric. Runs are untraced (--trace 0), so they
report the end-to-end metrics. Exits 1 if any run fails or any spread is
flagged FAIL.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def run_once(spec, workload, seed, seconds):
    cmd = list(spec["command"]) + ["--workload", workload, "--seed", str(seed),
                                   "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stdout[-2000:] + done.stderr[-2000:])
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: output check failed")
    return result


def report(workload, results, bounds):
    print(f"\n{workload}: {len(results)} runs")
    print(f"  {'metric':34} {'median':>14} {'q1':>14} {'q3':>14} "
          f"{'spread':>8} {'bound':>6}")
    worst = "ok"
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        bound = bounds.get(name)
        flag = ""
        if bound is not None:
            if spread > bound:
                flag, worst = "FAIL", "FAIL"
            elif spread > bound / 3:
                flag = "wide"
        bound_text = f"{bound:.3f}" if bound is not None else "-"
        print(f"  {name:34} {med:14.6g} {q1:14.6g} {q3:14.6g} "
              f"{spread:8.4f} {bound_text:>6} {flag}")
    return worst


def main():
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        help="a workload name or 'all' (%s)" % ", ".join(names))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2 for quartiles")

    workloads = names if args.workload == "all" else [args.workload]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    worst = "ok"
    for workload in workloads:
        results = []
        for i in range(args.runs):
            seed = args.first_seed + i
            results.append(run_once(spec, workload, seed, args.seconds))
            print(f"  {workload} seed {seed}: done", file=sys.stderr)
        if report(workload, results, bounds) == "FAIL":
            worst = "FAIL"
    sys.exit(1 if worst == "FAIL" else 0)


if __name__ == "__main__":
    main()
