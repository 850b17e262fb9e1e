#!/usr/bin/env python3
"""Build and run the served-path benchmark.

Run from the root of a checkout:

    python3 servebench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 servebench/run.py --report [--seed N] [--seconds S]

The first form builds servebench.exe from source (dune, into
.bench_build/) and runs one workload; the last line of its standard
output is one JSON object with the run's metrics. --report runs every
workload untraced and traced and prints each metric by name, one row per
workload and metric.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build")
OUT_DIR = os.path.join(ROOT, ".bench_out")
EXE = os.path.join(BUILD_DIR, "default", "servebench", "servebench.exe")
WORKLOADS = ["rows-warm", "plan-cold", "flaky-failover"]


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ROOT, "--build-dir", BUILD_DIR,
           "--profile", "release", "./servebench/servebench.exe"]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return False
    return done.returncode == 0


def run(workload, seed, seconds, trace, capture=False):
    cmd = [EXE, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--out", OUT_DIR]
    return subprocess.run(cmd, cwd=ROOT, timeout=175, text=True,
                          stdout=subprocess.PIPE if capture else None)


def report(seed, seconds):
    status = 0
    for trace in (0, 1):
        for workload in WORKLOADS:
            done = run(workload, seed, seconds, trace, capture=True)
            lines = done.stdout.splitlines()
            for line in lines[:-1]:
                print(line)
            if done.returncode != 0 or not lines:
                print(f"{workload}: exit code {done.returncode}")
                status = 1
                continue
            result = json.loads(lines[-1])
            print(f"{workload:15} correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
    return status


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--report", action="store_true",
                   help="run every workload, untraced and traced")
    args = p.parse_args()
    if not args.report and args.workload is None:
        p.error("--workload or --report is required")
    if not build():
        sys.exit(1)
    if args.report:
        sys.exit(report(args.seed, args.seconds))
    sys.exit(run(args.workload, args.seed, args.seconds, args.trace).returncode)


if __name__ == "__main__":
    main()
