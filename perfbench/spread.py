#!/usr/bin/env python3
"""Runs the benchmark on several seeds and prints each metric's spread.

    python3 perfbench/spread.py [--workload NAME ...] [--seeds N] [--first SEED]

Reads the command, run length and workloads from BENCHMARK.json, runs every
chosen workload once per seed (untraced), and prints for each end-to-end
metric its median and the distance between its first and third quartiles
as a share of the median, next to the metric's bound. It does the same for
sim_speed under each candidate fast-tail estimator the benchmark prints.
Run it from the root of the repository.
"""
import argparse
import json
import re
import statistics
import subprocess
import sys


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, (q3 - q1) / med if med else float("nan")


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", action="append")
    ap.add_argument("--seeds", type=int, default=5)
    ap.add_argument("--first", type=int, default=1)
    args = ap.parse_args()
    names = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for name in names:
        values = {}
        estimators = {}
        for seed in range(args.first, args.first + args.seeds):
            cmd = spec["command"] + ["--workload", name, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            out = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout
            lines = out.strip().splitlines()
            result = json.loads(lines[-1])
            if not result["correct"]:
                sys.exit(f"{name} seed {seed}: incorrect result\n{out}")
            row = []
            for metric, v in result["metrics"].items():
                values.setdefault(metric, []).append(v["value"])
                row.append(f"{metric}={v['value']:.4g}")
            for line in lines:
                m = re.match(r"# estimator (\w+): sim_speed=([\d.]+)", line)
                if m:
                    estimators.setdefault(m.group(1), []).append(float(m.group(2)))
            print(f"{name} seed={seed} " + " ".join(row), flush=True)
        for metric, vs in values.items():
            med, iqr = spread(vs)
            print(f"  {name} {metric}: median={med:.6g} spread={iqr:.4f} bound={bounds.get(metric)}")
        for label, vs in estimators.items():
            med, iqr = spread(vs)
            print(f"  {name} sim_speed[{label}]: median={med:.6g} spread={iqr:.4f}")


if __name__ == "__main__":
    main()
