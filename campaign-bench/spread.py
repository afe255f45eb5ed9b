#!/usr/bin/env python3
"""Run the campaign benchmark over several seeds and print, for every
metric, the median, the quartiles and the quartile spread as a share of
the median (Python's statistics.quantiles, n=4).

    python3 campaign-bench/spread.py --workload clean-long --seeds 1,2,3,4,5
    python3 campaign-bench/spread.py --workload detect-matrix --seeds 1-10 --trace 1

Run from the repository root. The benchmark command is read from
BENCHMARK.json; --seconds defaults to its run_seconds.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main():
    bench = json.load(open("BENCHMARK.json"))
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()

    values = {}
    for seed in seeds(args.seeds):
        argv = bench["command"] + [
            "--workload", args.workload,
            "--seed", str(seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        run = subprocess.run(argv, capture_output=True, text=True, check=True)
        result = json.loads(run.stdout.strip().splitlines()[-1])
        if not result["correct"] or result["failed"]:
            sys.exit(f"seed {seed}: {result} {run.stderr}")
        line = []
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            line.append(f"{name}={metric['value']:.6g}")
        print(f"seed {seed}: " + " ".join(line[:6]), flush=True)

    print(f"\n{'metric':36} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8}")
    for name, vals in values.items():
        median = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (median, 0, median)
        spread = (q3 - q1) / median if median else 0.0
        print(f"{name:36} {median:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.4f}")


if __name__ == "__main__":
    main()
