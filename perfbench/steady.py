#!/usr/bin/env python3
"""Steadiness tool for the perfbench benchmark.

Run a workload repeatedly and summarise every metric (median, quartiles,
spread = (q3 - q1) / median, as statistics.quantiles(n=4) gives them),
judged against the bounds in BENCHMARK.json:

    python3 perfbench/steady.py run --workload dashboard-wide \
        --seeds 1-10 --out .bench_build/steady/wide-a.json

Repeat one seed to check that counts which must repeat exactly do
(engine.batch.blocks_read and service.batches_launched on the dashboard
workloads, in traced runs):

    python3 perfbench/steady.py run --workload dashboard-wide --trace 1 \
        --seeds 7,7,7 --out .bench_build/steady/wide-repeat.json

Compare two result sets metric by metric: the second median may be worse
than the first by at most the metric's bound:

    python3 perfbench/steady.py compare A.json B.json

Exits non-zero when a spread exceeds its bound, a comparison fails, a
run is incorrect, or an exact-repeat count differs.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

BENCH_DIR = pathlib.Path(__file__).resolve().parent
CHECKOUT = BENCH_DIR.parent
# Counts that the same seed must reproduce exactly, per workload.
EXACT_REPEAT = {
    "dashboard-wide": ["engine.batch.blocks_read", "service.batches_launched"],
    "dashboard-live": ["engine.batch.blocks_read", "service.batches_launched"],
}


def load_spec():
    spec = json.loads((CHECKOUT / "BENCHMARK.json").read_text())
    metrics = {}
    for m in spec["end_to_end"]:
        metrics[m["name"]] = m
    for m in spec["per_layer"]:
        metrics[m["name"]] = m
    return spec, metrics


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace",
           str(trace)]
    proc = subprocess.run(cmd, cwd=CHECKOUT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(lines[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarise(results, metrics):
    """Prints one row per metric; returns False if a spread breaks its bound."""
    ok = True
    names = list(results[0]["result"]["metrics"])
    print(f"{'metric':34} {'median':>14} {'q1':>14} {'q3':>14} "
          f"{'spread':>8} {'bound':>6}  verdict")
    for name in names:
        values = [r["result"]["metrics"][name]["value"] for r in results]
        q1, median, q3 = quartiles(values)
        spread = (q3 - q1) / abs(median) if median else 0.0
        bound = metrics.get(name, {}).get("bound")
        verdict = ""
        if bound is not None:
            if spread > bound:
                verdict = "FAIL"
                ok = False
            elif spread > bound / 3:
                verdict = "wide (> bound/3)"
            else:
                verdict = "ok"
        print(f"{name:34} {median:14.6g} {q1:14.6g} {q3:14.6g} "
              f"{spread:8.4f} {bound if bound is not None else '-':>6}  "
              f"{verdict}")
    return ok


def check_exact_repeats(workload, results):
    """Runs sharing a seed must agree exactly on the named counts."""
    ok = True
    by_seed = {}
    for r in results:
        by_seed.setdefault(r["seed"], []).append(r["result"]["metrics"])
    for seed, runs in by_seed.items():
        if len(runs) < 2:
            continue
        for name in EXACT_REPEAT.get(workload, []):
            values = {m[name]["value"] for m in runs if name in m}
            if len(values) > 1:
                print(f"REPEAT FAIL seed {seed}: {name} took {sorted(values)}")
                ok = False
            elif values:
                print(f"repeat ok   seed {seed}: {name} = {values.pop()} "
                      f"in {len(runs)} runs")
    return ok


def cmd_run(args):
    _, metrics = load_spec()
    results = []
    for seed in parse_seeds(args.seeds):
        result = run_once(args.workload, seed, args.seconds, args.trace)
        results.append({"seed": seed, "result": result})
        print(f"seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}",
              flush=True)
    out = pathlib.Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"workload": args.workload, "trace": args.trace,
                               "seconds": args.seconds, "runs": results},
                              indent=1))
    ok = summarise(results, metrics)
    ok = check_exact_repeats(args.workload, results) and ok
    ok = all(r["result"]["correct"] for r in results) and ok
    return 0 if ok else 1


def cmd_compare(args):
    _, metrics = load_spec()
    a = json.loads(pathlib.Path(args.first).read_text())
    b = json.loads(pathlib.Path(args.second).read_text())
    ok = True
    print(f"{'metric':34} {'first':>14} {'second':>14} {'worse by':>9} "
          f"{'bound':>6}  verdict")
    for name in a["runs"][0]["result"]["metrics"]:
        spec = metrics.get(name)
        first = statistics.median(
            r["result"]["metrics"][name]["value"] for r in a["runs"])
        second = statistics.median(
            r["result"]["metrics"][name]["value"] for r in b["runs"])
        if spec is None or "bound" not in spec or first == 0:
            print(f"{name:34} {first:14.6g} {second:14.6g}")
            continue
        sign = 1 if spec["better"] == "lower" else -1
        worse = sign * (second - first) / abs(first)
        verdict = "ok" if worse <= spec["bound"] else "FAIL"
        ok = ok and verdict == "ok"
        print(f"{name:34} {first:14.6g} {second:14.6g} {worse:9.4f} "
              f"{spec['bound']:6}  {verdict}")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run a workload over several seeds")
    run.add_argument("--workload", required=True)
    run.add_argument("--seeds", default="1-10")
    run.add_argument("--seconds", type=int, default=None)
    run.add_argument("--trace", type=int, choices=(0, 1), default=0)
    run.add_argument("--out", required=True)
    compare = sub.add_parser("compare", help="compare two result sets")
    compare.add_argument("first")
    compare.add_argument("second")
    args = parser.parse_args()
    if args.command == "run":
        if args.seconds is None:
            args.seconds = load_spec()[0]["run_seconds"]
        return cmd_run(args)
    return cmd_compare(args)


if __name__ == "__main__":
    sys.exit(main())
