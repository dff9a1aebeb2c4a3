#!/usr/bin/env python3
"""Steadiness check for the benchmark.

Runs each workload N times with seeds first-seed .. first-seed+N-1 and
prints, for every metric, the median, the quartiles, min-max, and the
quartile spread (Q3 - Q1) / median next to the metric's bound from
BENCHMARK.json. A spread under a third of the bound is steady.

Run from the repository root:

    python3 perfbench/steady.py --runs 10
    python3 perfbench/steady.py --runs 5 --workloads fig14 --seconds 10
    python3 perfbench/steady.py --runs 3 --trace 1
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds, trace):
    argv = command + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    proc = subprocess.run(argv, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(lines[-1])


def summarize(values):
    values = sorted(values)
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    spread = (q3 - q1) / abs(med) if med else 0.0
    return med, q1, q3, values[0], values[-1], spread


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", help="comma-separated; default: all")
    parser.add_argument("--seconds", type=int, help="default: run_seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open("BENCHMARK.json", encoding="utf-8") as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")
    seconds = args.seconds or bench["run_seconds"]
    declared = bench["per_layer" if args.trace else "end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in declared}

    steady = True
    for workload in names:
        results = [
            run_once(bench["command"], workload, seed, seconds, args.trace)
            for seed in range(args.first_seed, args.first_seed + args.runs)
        ]
        failed = sum(r["failed"] for r in results)
        attempted = sum(r["attempted"] for r in results)
        correct = all(r["correct"] for r in results)
        print(f"== {workload}: {args.runs} runs x {seconds} s, "
              f"correct={correct}, failed {failed}/{attempted}")
        print(f"{'metric':<30} {'median':>14} {'q1':>14} {'q3':>14} "
              f"{'min':>14} {'max':>14} {'spread':>8} {'bound':>6}")
        for name in bounds:
            values = [r["metrics"][name]["value"] for r in results]
            med, q1, q3, lo, hi, spread = summarize(values)
            bound = bounds[name]
            flag = ""
            if bound is not None and name != "setup_s" and spread >= bound / 3:
                flag = "  NOT STEADY"
                steady = False
            print(f"{name:<30} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} "
                  f"{lo:>14.6g} {hi:>14.6g} {spread:>8.4f} "
                  f"{'' if bound is None else bound:>6}{flag}")
        steady = steady and correct
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
