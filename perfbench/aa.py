#!/usr/bin/env python3
"""A/A steadiness check: two interleaved sets of runs of one build.

    python3 perfbench/aa.py [--runs 10] [--workloads train_b1,...] [--seconds S]

Runs perfbench/run.py --trace 0 on every workload, alternating between set
A and set B (and which of the two goes first), each run with its own seed.
Prints, for each workload and end-to-end metric, each set's median and
quartiles, the spread (Q3 - Q1) / median, and whether the sets agree within
the metric's bound from BENCHMARK.json: every spread but setup_s's within
the bound, and B's median no worse than A's by more than the bound.
Exits 1 when any check fails.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def one_run(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, check=True, stdout=subprocess.PIPE, text=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect result")
    return {k: m["value"] for k, m in result["metrics"].items()}


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3, (q3 - q1) / statistics.median(values)


def worse_by(metric, a, b):
    """How much worse median b is than median a, as a share of a."""
    return (b - a) / a if metric["better"] == "lower" else (a - b) / a


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--runs", type=int, default=10, help="runs per set and workload")
    p.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    p.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = p.parse_args()

    ok = True
    for workload in args.workloads.split(","):
        sets = {"A": [], "B": []}
        for i in range(args.runs):
            order = "AB" if i % 2 == 0 else "BA"
            for name in order:
                seed = 1 + 2 * i + (name == "B")
                sets[name].append(one_run(workload, seed, args.seconds))
                print(f"{workload} run {i + 1}/{args.runs} set {name} seed {seed}",
                      file=sys.stderr)
        print(f"\n{workload}")
        print(f"  {'metric':20s} {'set':3s} {'Q1':>12s} {'median':>12s} {'Q3':>12s} "
              f"{'spread':>8s}")
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            stats = {}
            for s in "AB":
                stats[s] = spread([run[name] for run in sets[s]])
                q1, med, q3, sp = stats[s]
                print(f"  {name:20s} {s:3s} {q1:12.6g} {med:12.6g} {q3:12.6g} {sp:8.4f}")
            worse = worse_by(metric, stats["A"][1], stats["B"][1])
            spread_ok = name == "setup_s" or max(stats["A"][3], stats["B"][3]) <= bound
            agree = worse <= bound
            verdict = "ok" if spread_ok and agree else "FAIL"
            ok &= verdict == "ok"
            print(f"  {'':20s} bound {bound}: B worse than A by {worse:+.4f}; "
                  f"spreads {'within' if spread_ok else 'OVER'} bound -> {verdict}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
