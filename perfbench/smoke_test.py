#!/usr/bin/env python3
"""Smoke test of the perfbench benchmark at tiny scale (200k-row stores).

    python3 perfbench/smoke_test.py

Checks, for every workload in workloads.json (dashboard-live too, which
BENCHMARK.json leaves out; see README.md):
  * an untraced run emits exactly the end-to-end metrics, a traced run
    exactly the per-layer metrics, each with its declared unit, and both
    report correct answers;
  * a run with every answer deliberately corrupted counts them as
    failed (ok_rate < 1, correct false);
and that run.py, copied without the library sources, exits non-zero
without printing a result. Exits non-zero on the first failed check.
"""

import json
import pathlib
import shutil
import subprocess
import sys

BENCH_DIR = pathlib.Path(__file__).resolve().parent
CHECKOUT = BENCH_DIR.parent
TINY = ["--seconds", "1", "--rows", "200000", "--rounds", "2"]


def run(workload, extra, cwd=CHECKOUT, script=BENCH_DIR / "run.py"):
    cmd = [sys.executable, str(script), "--workload", workload, "--seed",
           "3", *TINY, *extra]
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=900,
                          check=False)


def result_of(proc):
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    return result


def check_metrics(result, declared, label):
    got = result["metrics"]
    want = {m["name"]: m["unit"] for m in declared}
    assert set(got) == set(want), (
        f"{label}: missing {set(want) - set(got)}, extra {set(got) - set(want)}")
    for name, unit in want.items():
        assert got[name]["unit"] == unit, f"{label}: {name} unit {got[name]}"
        assert isinstance(got[name]["value"], (int, float)), (label, name)


def check_no_sources():
    """run.py next to BENCHMARK.json alone must fail without a result."""
    bare = CHECKOUT / ".bench_build" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH_DIR, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(CHECKOUT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = run("dashboard-wide", ["--trace", "0"], cwd=bare,
               script=bare / "perfbench" / "run.py")
    shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0, "ran without library sources"
    assert proc.stdout.strip() == "", "printed output without sources"
    print("ok   no sources: exit", proc.returncode)


def main():
    spec = json.loads((CHECKOUT / "BENCHMARK.json").read_text())
    workloads = json.loads((BENCH_DIR / "workloads.json").read_text())
    for workload in workloads["workloads"]:
        plain = result_of(run(workload, ["--trace", "0"]))
        check_metrics(plain, spec["end_to_end"], f"{workload} trace 0")
        assert plain["correct"] and plain["failed"] == 0, plain
        traced = result_of(run(workload, ["--trace", "1"]))
        check_metrics(traced, spec["per_layer"], f"{workload} trace 1")
        assert traced["correct"] and traced["failed"] == 0, traced
        bad = result_of(run(workload, ["--trace", "0", "--corrupt-every", "1"]))
        assert bad["failed"] > 0 and not bad["correct"], bad
        assert bad["metrics"]["ok_rate"]["value"] < 1, bad
        print(f"ok   {workload}: {len(plain['metrics'])} end-to-end, "
              f"{len(traced['metrics'])} per-layer metrics; corrupted run "
              f"failed {bad['failed']} of {bad['attempted']}")
    check_no_sources()
    return 0


if __name__ == "__main__":
    sys.exit(main())
