#!/usr/bin/env python3
"""Builds the perfbench binary from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload dashboard-wide --seed 1 \
        --seconds 10 --trace 0

The build lives in .bench_build/perfbench (configured on first use,
incremental afterwards). The offered work comes from
perfbench/workloads.json: round(seconds * rounds_per_second) rounds.
Build output goes to stderr; the benchmark's stdout is passed through,
and its last line is the JSON result. Exits non-zero, printing no
result, when the build or the run fails.

--rows, --rounds and --corrupt-every override the configured sizes;
the smoke test uses them to run at tiny scale.
"""

import argparse
import json
import math
import os
import pathlib
import subprocess
import sys

BENCH_DIR = pathlib.Path(__file__).resolve().parent
CHECKOUT = BENCH_DIR.parent
BUILD_DIR = CHECKOUT / ".bench_build" / "perfbench"
BINARY = BUILD_DIR / "perfbench"
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds the perfbench target; raises on error."""
    if not (CHECKOUT / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError(f"no library sources under {CHECKOUT / 'src'}")
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        subprocess.run(
            ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", str(BUILD_DIR), "--target", "perfbench",
         "-j", jobs],
        check=True, stdout=sys.stderr, stderr=sys.stderr)


def command(args):
    """The perfbench command line for `args`, sized from workloads.json."""
    config = json.loads((BENCH_DIR / "workloads.json").read_text())
    workload = config["workloads"].get(args.workload)
    if workload is None:
        raise RuntimeError(f"unknown workload {args.workload!r}")
    rounds = args.rounds or max(
        1, math.floor(args.seconds * workload["rounds_per_second"] + 0.5))
    trace_dir = CHECKOUT / ".bench_build" / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    return [
        str(BINARY),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--trace", str(args.trace),
        "--trace-out", str(trace_dir / f"{args.workload}-seed{args.seed}.json"),
        "--rows", str(args.rows or workload["rows"]),
        "--rounds", str(rounds),
        "--corrupt-every", str(args.corrupt_every),
    ]


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rows", type=int, default=0)
    parser.add_argument("--rounds", type=int, default=0)
    parser.add_argument("--corrupt-every", type=int, default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    try:
        build()
        cmd = command(args)
    except (RuntimeError, OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        print(f"perfbench: run failed (exit {proc.returncode})",
              file=sys.stderr)
        return 1
    json.loads(lines[-1])  # the result line must parse
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
