#!/usr/bin/env python3
"""Run-to-run spread of the rapt benchmark's end-to-end metrics.

    python3 perfbench/spread.py --workload served-mixed --runs 10 [--first-seed 1]
                                [--seconds S] [--out results.json]

Runs one workload with --runs consecutive seeds and prints, for every
end-to-end metric, the median and the distance between the first and third
quartiles as a share of the median (statistics.quantiles, n=4), next to the
bound BENCHMARK.json gives it. --out keeps every run's result object.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--out")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    results = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        if proc.returncode != 0:
            sys.exit(f"seed {seed}: exit status {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        results.append(result)
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}/"
              f"{result['attempted']}", flush=True)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(results, f, indent=1)

    print(f"{'metric':20} {'median':>14} {'iqr/median':>11} {'bound':>6}")
    for m in bench["end_to_end"]:
        values = [r["metrics"][m["name"]]["value"] for r in results]
        med = statistics.median(values)
        q = statistics.quantiles(values, n=4) if len(values) > 1 else [med, med, med]
        spread = (q[2] - q[0]) / med if med else float("inf")
        print(f"{m['name']:20} {med:14.6g} {spread:11.4f} {m['bound']:6}")
    return 0 if all(r["correct"] and r["failed"] == 0 for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
