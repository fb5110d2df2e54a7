#!/usr/bin/env python3
"""Steadiness check for the benchmark.

Runs each workload once per seed, then prints, per end-to-end metric, the
median of the runs and the spread: the distance between the first and
third quartile (statistics.quantiles(values, n=4)) as a share of the
median, next to the metric's bound from BENCHMARK.json. With --sets 2 the
whole set is run twice and the second median is compared with the first.

    python3 perfbench/spread.py --workloads paper,churn --seeds 1-10

Run it from the repository root. Raw results go to
.bench_build/spread-<time>.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(bench, workload, seed, seconds):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(seconds), "--trace", "0"]
    t = time.time()
    proc = subprocess.run(cmd, capture_output=True, text=True)
    wall = time.time() - t
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    res = json.loads(lines[-1])
    if not res["correct"]:
        sys.exit(f"{workload} seed {seed}: outputs incorrect\n{proc.stderr[-2000:]}")
    return res, wall


def spread(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else float("inf")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=0)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    seconds = args.seconds or bench["run_seconds"]
    seeds = parse_seeds(args.seeds)

    raw = {}
    ok = True
    os.makedirs(".bench_build", exist_ok=True)
    path = time.strftime(".bench_build/spread-%Y%m%d-%H%M%S.json")
    for w in workloads:
        medians = []
        for s in range(args.sets):
            runs = []
            for seed in seeds:
                res, wall = run_once(bench, w, seed, seconds)
                runs.append(res["metrics"])
                print(f"{w} set {s + 1} seed {seed}: {wall:.1f} s wall", file=sys.stderr)
            raw.setdefault(w, []).append(runs)
            meds = {}
            print(f"\n{w} (set {s + 1}, {len(seeds)} seeds, {seconds} s runs)")
            print(f"  {'metric':16} {'median':>14} {'spread':>8} {'bound':>6}")
            for name in bounds:
                vals = [r[name]["value"] for r in runs]
                med, sp = spread(vals)
                meds[name] = med
                flag = ""
                if sp > bounds[name]:
                    flag, ok = "  OVER BOUND", False
                elif sp > bounds[name] / 3:
                    flag = "  above bound/3"
                print(f"  {name:16} {med:14.6g} {sp:8.4f} {bounds[name]:6.3f}{flag}")
            medians.append(meds)
        for s in range(1, len(medians)):
            print(f"  set {s + 1} vs set 1 (worse by, share of set-1 median):")
            for name in bounds:
                a, b = medians[0][name], medians[s][name]
                worse = (b - a) / a if better[name] == "lower" else (a - b) / a
                flag = ""
                if worse > bounds[name]:
                    flag, ok = "  OVER BOUND", False
                print(f"    {name:16} {worse:+.4f} {bounds[name]:6.3f}{flag}")
        with open(path, "w") as f:
            json.dump(raw, f)

    print(f"\nraw results: {path}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
