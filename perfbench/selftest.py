#!/usr/bin/env python3
"""Short-run self-test of the rapt benchmark.

    python3 perfbench/selftest.py [--seconds 1]

Runs every workload briefly, end to end and traced, and checks that:
  * the result's metric names and units are exactly BENCHMARK.json's
    end_to_end list (trace 0) or per_layer list (trace 1);
  * the run is correct with no failed operation, and no end-to-end
    metric reads 0;
  * two traced runs with the same seed report identical deterministic
    counters;
  * perfbench/layers.json maps exactly the per_layer metrics.
Exits 0 when every check holds.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Per-layer metrics that count work: they must repeat exactly for a seed.
DETERMINISTIC = [
    "certify.values", "certify.allocs", "vliwsim.cycles", "verify.ops",
    "regalloc.spills", "regalloc.allocs", "sched.emitted_ops", "ddg.edges",
    "sched.placements", "partition.rcg_edges", "partition.copies",
    "journal.fsyncs", "replay.loops", "replay.diverged",
]


def run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.exit(f"{workload} --trace {trace}: exit status {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seconds", type=int, default=1)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "layers.json")) as f:
        layers = json.load(f)
    failures = []

    def expect(ok, what):
        print(("ok   " if ok else "FAIL ") + what, flush=True)
        if not ok:
            failures.append(what)

    mapped = sorted(m for group in layers["groups"] for m in group["metrics"])
    expect(mapped == sorted(m["name"] for m in bench["per_layer"]),
           "layers.json maps exactly the per_layer metrics")

    for workload in (w["name"] for w in bench["workloads"]):
        for trace, declared in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            result = run(workload, 7, args.seconds, trace)
            want = {m["name"]: m["unit"] for m in declared}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            expect(got == want, f"{workload} --trace {trace}: metric names and units")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{workload} --trace {trace}: correct, nothing failed")
            if trace == 0:
                zero = [n for n, m in result["metrics"].items() if m["value"] == 0]
                expect(not zero, f"{workload}: no end-to-end metric reads 0 {zero}")
            else:
                again = run(workload, 7, args.seconds, 1)
                moved = [n for n in DETERMINISTIC
                         if result["metrics"][n]["value"] != again["metrics"][n]["value"]]
                expect(not moved, f"{workload}: same seed, same deterministic counters {moved}")

    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
