#!/usr/bin/env python3
"""Build and run the mcdft benchmark harness.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The first call configures and
builds perfbench/ (the library from src/ plus the harness) in Release
mode under .bench_build/ (or $CARGO_TARGET_DIR when set); later calls
only re-run the incremental build.  Build output goes to stderr and to
.bench_build/build.log, so the last line of stdout is the harness's JSON
result.  Exit code: the harness's, or 1 when the build fails.
"""

import argparse
import fcntl
import os
import shutil
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def run_logged(cmd, log, timeout):
    """Run cmd with output appended to log; True on exit code 0."""
    with open(log, "a") as out:
        out.write("$ " + " ".join(cmd) + "\n")
        out.flush()
        try:
            return subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                                  timeout=timeout).returncode == 0
        except subprocess.TimeoutExpired:
            out.write("timed out\n")
            return False


def build(out_dir):
    """Configure (once) and build the harness; returns its path or None."""
    os.makedirs(out_dir, exist_ok=True)
    log = os.path.join(out_dir, "build.log")
    binary = os.path.join(out_dir, "mcdft_perfbench")
    with open(os.path.join(out_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        ok = True
        if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
            cmd = ["cmake", "-S", SOURCE, "-B", out_dir,
                   "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            ok = run_logged(cmd, log, BUILD_TIMEOUT_S)
        jobs = str(min(4, os.cpu_count() or 1))
        ok = ok and run_logged(["cmake", "--build", out_dir, "-j", jobs,
                                "--target", "mcdft_perfbench"],
                               log, BUILD_TIMEOUT_S)
    if not ok or not os.path.exists(binary):
        with open(log) as f:
            sys.stderr.write("".join(f.readlines()[-40:]))
        sys.stderr.write("error: benchmark build failed (log: %s)\n" % log)
        return None
    return binary


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], required=True)
    args = parser.parse_args()

    out_dir = build_dir()
    binary = build(out_dir)
    if binary is None:
        return 1
    # Relative to ROOT, so the service workload's Unix socket paths stay
    # short whatever the checkout path is.
    work_dir = os.path.relpath(os.path.join(out_dir, "work"), ROOT)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--work-dir", work_dir]
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.stderr.write("error: harness exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1


if __name__ == "__main__":
    sys.exit(main())
