#!/usr/bin/env python3
"""Self-test of the benchmark's determinism.

    python3 perfbench/selftest.py [--seconds S] [workload ...]

Run from the repository root. For each workload (default: all four) it
makes two traced runs with one seed and one with another, reads the
ledgers the runs leave in .perfbench_runs/, and checks that

* every run is correct and its metric names and units, in order, are
  BENCHMARK.json's;
* every per-layer count marked exact repeats across the two runs with
  one seed;
* changing the seed reorders the requests without changing any
  program's state count.

Exits non-zero on the first failed check.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["bank", "scale", "service", "fuzz"]
SEED, OTHER_SEED = 7, 8


def run(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if out.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit code {out.returncode}")
    last = json.loads(out.stdout.strip().splitlines()[-1])
    path = os.path.join(ROOT, ".perfbench_runs", f"{workload}-seed{seed}-trace1.json")
    with open(path) as f:
        return last, json.load(f)


def units(metrics):
    return [(name, m["unit"]) for name, m in metrics.items()]


def check(ok, what):
    if not ok:
        sys.exit(f"FAILED: {what}")
    print(f"ok: {what}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("workloads", nargs="*", default=WORKLOADS)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    declared_e2e = [(m["name"], m["unit"]) for m in bench["end_to_end"]]
    declared_layer = [(m["name"], m["unit"]) for m in bench["per_layer"]]

    for w in args.workloads:
        a_out, a = run(w, SEED, args.seconds)
        _, b = run(w, SEED, args.seconds)
        _, c = run(w, OTHER_SEED, args.seconds)
        for ledger in (a, b, c):
            check(ledger["correct"] and ledger["failed"] == 0,
                  f"{w} seed {ledger['seed']}: correct, {ledger['attempted']} attempted")
        check(units(a_out["metrics"]) == declared_layer,
              f"{w}: traced metrics and units are BENCHMARK.json's per_layer list")
        check(units(a["end_to_end"]) == declared_e2e,
              f"{w}: end-to-end metrics and units are BENCHMARK.json's end_to_end list")
        for name in a["exact"]:
            va, vb = a["per_layer"][name]["value"], b["per_layer"][name]["value"]
            check(va == vb, f"{w}: {name} repeats with one seed ({va} == {vb})")
        check(a["order_digest"] == b["order_digest"], f"{w}: one seed, one request order")
        check(a["order_digest"] != c["order_digest"], f"{w}: another seed reorders the requests")
        check(a["programs"] and a["programs"] == c["programs"],
              f"{w}: another seed leaves every program's state count ({a['programs']})")
    print("selftest passed")


if __name__ == "__main__":
    main()
