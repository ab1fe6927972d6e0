#!/usr/bin/env python3
"""Runs the benchmark on several seeds and reports each end-to-end metric's
median, quartiles and spread (interquartile distance over the median).

    python3 perfbench/steady.py --workloads tatp-central,multisite-sn --seeds 1-10 --out evidence.json

Run it from the repository root. The spread is computed with
statistics.quantiles(values, n=4), the way BENCHMARK.json's bounds are
checked; a metric is steady when its spread stays below a third of its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run(workload, seed, seconds):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, capture_output=True, text=True, check=False)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed} failed ({out.returncode}):\n{out.stdout}\n{out.stderr}")
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--out")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    evidence = {}
    for workload in args.workloads.split(","):
        values = {}
        for seed in parse_seeds(args.seeds):
            res = run(workload, seed, seconds)
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed={seed} " + " ".join(
                f"{n}={m['value']:.6g}" for n, m in sorted(res["metrics"].items())), flush=True)
        rows = {}
        for name, xs in sorted(values.items()):
            q1, med, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "n": len(xs)}
            bound = bounds.get(name)
            flag = "" if bound is None or spread < bound / 3 else "  <-- above a third of the bound"
            print(f"  {workload:15s} {name:20s} median={med:.6g} q1={q1:.6g} q3={q3:.6g} "
                  f"spread={spread:.4f} bound={bound}{flag}", flush=True)
        evidence[workload] = rows
    if args.out:
        with open(args.out, "w") as f:
            json.dump(evidence, f, indent=2, sort_keys=True)
            f.write("\n")


if __name__ == "__main__":
    main()
