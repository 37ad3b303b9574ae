#!/usr/bin/env python3
"""Steadiness check: run each workload several times, each with another
seed, and print every metric's median, quartiles and spread against the
bound BENCHMARK.json gives it.

    python3 perfbench/steady.py [--runs 10] [--first-seed 1] [--workload NAME ...]

Run from the root of the repository. Every run uses BENCHMARK.json's
run length and reports its end-to-end metrics. The spread is the distance
between the first and third quartile (statistics.quantiles(values, n=4))
as a share of the median; a metric is steady when its spread stays below
a third of its bound. Runs go round-robin over the workloads, so a slow
drift of the machine spreads over all of them alike. Exits non-zero when
a run fails or any spread exceeds its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    start = time.monotonic()
    proc = subprocess.run(args, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    wall = time.monotonic() - start
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result, wall


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append")
    opts = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    workloads = opts.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values = {w: {name: [] for name in bounds} for w in workloads}
    walls = {w: [] for w in workloads}
    for i in range(opts.runs):
        seed = opts.first_seed + i
        for w in workloads:
            result, wall = run_once(bench["command"], w, seed, seconds)
            if not result["correct"]:
                raise SystemExit(f"{w} seed {seed}: correct is false")
            walls[w].append(wall)
            for name in values[w]:
                values[w][name].append(result["metrics"][name]["value"])
            print(f"run {i + 1}/{opts.runs} {w} seed={seed} wall={wall:.1f}s "
                  f"attempted={result['attempted']} failed={result['failed']}", flush=True)

    worst = 0.0
    for w in workloads:
        print(f"\n{w}: wall per run median {statistics.median(walls[w]):.1f}s, "
              f"max {max(walls[w]):.1f}s")
        print(f"  {'metric':36} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
        for name, vals in values[w].items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            bound = bounds[name]
            verdict = "steady" if spread < bound / 3 else "within" if spread <= bound else "TOO WIDE"
            worst = max(worst, spread / bound)
            print(f"  {name:36} {med:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.3f} "
                  f"{bound:>6} {verdict}")
    print(f"\nworst spread/bound: {worst:.2f}")
    return 0 if worst <= 1.0 else 1


if __name__ == "__main__":
    sys.exit(main())
