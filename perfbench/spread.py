#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics of one workload.

    python3 perfbench/spread.py --workload NAME [--seeds 1-10] [--seconds S]

Runs perfbench/run.py once per seed (untraced) and prints, per end-to-end
metric, the median, the quartiles and the spread (Q3 - Q1) / median, with
the metric's bound from BENCHMARK.json and the ratio spread / bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    values = {}
    for seed in parse_seeds(args.seeds):
        out = subprocess.run(
            [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True)
        if out.returncode != 0:
            sys.stderr.write(out.stderr)
            return 1
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"] or result["failed"]:
            print("seed %d: checks failed" % seed)
            return 1
        print("seed %d: %s" % (seed, " ".join(
            "%s=%.6g" % (k, v["value"]) for k, v in result["metrics"].items())))
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])

    print("%-14s %12s %12s %12s %8s %6s %8s" %
          ("metric", "median", "q1", "q3", "spread", "bound", "sp/bound"))
    for metric in bench["end_to_end"]:
        v = values[metric["name"]]
        q1, _, q3 = statistics.quantiles(v, n=4)
        med = statistics.median(v)
        spread = (q3 - q1) / med if med else float("inf")
        print("%-14s %12.6g %12.6g %12.6g %8.4f %6.2f %8.2f" %
              (metric["name"], med, q1, q3, spread, metric["bound"],
               spread / metric["bound"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
