#!/usr/bin/env python3
"""Smoke self-test of the benchmark harness.

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json, runs perfbench/run.py once untraced
and once traced with a 1-second budget (one op, or one daemon pass, per
phase) and checks that the run exits 0, that its checks pass, and that the
result line parses and names exactly the metrics BENCHMARK.json lists,
with their units.  Finally checks that the benchmark fails cleanly (exit
code != 0, no result line) in a directory holding only BENCHMARK.json and
perfbench/.  Exit code 0 when everything passes.
"""

import json
import math
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
         "--workload", workload, "--seed", "7", "--seconds", "1",
         "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=900)


def check_result(bench, workload, trace, proc):
    where = "%s --trace %d" % (workload, trace)
    if proc.returncode != 0:
        return ["%s: exit code %d\n%s" % (where, proc.returncode, proc.stderr)]
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError) as e:
        return ["%s: last line is not JSON (%s)" % (where, e)]
    errors = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        errors.append("%s: result keys %s" % (where, sorted(result)))
    if result.get("correct") is not True or result.get("failed") != 0:
        errors.append("%s: checks failed" % where)
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        errors.append("%s: attempted %r" % (where, result.get("attempted")))
    spec = bench["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in spec}
    got = result.get("metrics", {})
    if sorted(got) != sorted(want):
        errors.append("%s: metric names differ: missing %s, extra %s" % (
            where, sorted(set(want) - set(got)), sorted(set(got) - set(want))))
    for name, metric in got.items():
        value = metric.get("value")
        if metric.get("unit") != want.get(name):
            errors.append("%s: %s unit %r" % (where, name, metric.get("unit")))
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            errors.append("%s: %s value %r" % (where, name, value))
        elif not trace and value <= 0:
            errors.append("%s: end-to-end %s is %r" % (where, name, value))
    return errors


def check_bare_directory():
    """The benchmark alone, without the sources, must fail without a result."""
    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(os.path.join(ROOT, "perfbench"),
                    os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = dict(os.environ)
    env.pop("CARGO_TARGET_DIR", None)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "service-mixed",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=170, env=env)
    shutil.rmtree(bare, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 0 or (lines and lines[-1].startswith("{")):
        return ["bare directory: exit %d, stdout %r" % (proc.returncode,
                                                        proc.stdout[-200:])]
    return []


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    errors = []
    for workload in [w["name"] for w in bench["workloads"]]:
        for trace in (0, 1):
            new = check_result(bench, workload, trace, run(ROOT, workload, trace))
            print("%-30s trace %d: %s" % (workload, trace,
                                          "ok" if not new else "FAIL"))
            errors += new
    new = check_bare_directory()
    print("%-30s: %s" % ("bare directory fails cleanly", "ok" if not new else "FAIL"))
    errors += new
    for e in errors:
        print(e)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
