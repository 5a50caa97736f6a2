#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's metrics.

    python3 perfbench/spread.py --workload NAME [--runs 10] [--first-seed 1]

Runs the benchmark untraced for BENCHMARK.json's run_seconds, once per seed
(first-seed, first-seed+1, ...), and prints per end-to-end metric the ten
values, their median and the distance between the first and third
quartiles (statistics.quantiles, n=4) as a share of the median. It checks
each spread, except setup_s's, against a third of the metric's bound, and
exits 1 when one is wider. Run from the repository root.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit("seed %d: incorrect result %r" % (seed, result))
    return result["metrics"]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    a = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values = {}
    for seed in range(a.first_seed, a.first_seed + a.runs):
        for name, m in run_once(a.workload, seed, bench["run_seconds"]).items():
            values.setdefault(name, []).append(m["value"])
        print("seed %d done" % seed, file=sys.stderr, flush=True)
    ok = True
    for name, vs in values.items():
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / med if med else 0.0
        verdict = ""
        if name != "setup_s":
            good = spread < bounds[name] / 3
            ok = ok and good
            verdict = "ok" if good else "TOO WIDE (bound %.2f)" % bounds[name]
        print("%-28s median %16.6f  spread %6.2f%%  %s" % (name, med, 100 * spread, verdict))
        print("    " + " ".join("%.6g" % v for v in vs))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
