#!/usr/bin/env python3
"""Tiny-size smoke check of the benchmark.

    python3 perfbench/smoke.py

Runs every workload at --size tiny, untraced and traced, and checks that
every metric the benchmark defines prints with its unit, that error_rate
is 0, that the last line is the JSON object BENCHMARK.json describes, and
that the traced run's simulated outputs match the untraced run's. Takes
about a minute after the build. Run from the repository root.
"""

import json
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

COMMON = {"setup_s": "s", "peak_heap_mb": "MiB", "error_rate": "ratio"}
NAMED = {
    "evict-run": {"jobs_per_s": "1/s", "guest_minstr_per_s": "Minstr/s"},
    "migrate-pingpong": {"migrations_per_s": "1/s", "migration_ms_p50": "ms",
                         "migration_ms_p99": "ms"},
    "live-postcopy": {"requests_per_s": "1/s"},
    "fleet-xl": {"fleet_events_per_s": "1/s"},
}

METRIC = re.compile(r"^metric (\S+) +(\S+) (\S+)$")


def run(workload, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600).stdout
    lines = out.strip().splitlines()
    printed = {}
    digest = None
    for line in lines:
        m = METRIC.match(line)
        if m:
            printed[m.group(1)] = (float(m.group(2)), m.group(3))
        if line.startswith("sim_digest "):
            digest = line.split()[1]
    return printed, digest, json.loads(lines[-1])


def check(cond, what, problems):
    if not cond:
        problems.append(what)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    problems = []
    for w in bench["workloads"]:
        name = w["name"]
        digests = []
        for trace, declared in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            printed, digest, result = run(name, trace)
            tag = "%s trace=%d" % (name, trace)
            expected = {m["name"]: m["unit"] for m in declared}
            if trace == 0:
                expected.update(COMMON)
                expected.update(NAMED[name])
            for metric, unit in expected.items():
                check(metric in printed and printed[metric][1] == unit,
                      "%s: metric %s not printed with unit %s" % (tag, metric, unit), problems)
            check(printed.get("error_rate", (1, ""))[0] == 0, tag + ": error_rate is not 0", problems)
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  tag + ": JSON keys differ", problems)
            check(result.get("correct") is True and result.get("failed") == 0
                  and result.get("attempted", 0) >= 1, tag + ": run not correct", problems)
            json_units = {k: v["unit"] for k, v in result.get("metrics", {}).items()}
            check(json_units == {m["name"]: m["unit"] for m in declared},
                  tag + ": JSON metrics differ from BENCHMARK.json", problems)
            check(digest is not None, tag + ": no sim_digest", problems)
            digests.append(digest)
        check(digests[0] == digests[1], name + ": traced and untraced sim_digest differ", problems)
        print("%-18s %s" % (name, "ok" if not problems else "FAILED"), flush=True)
    for p in problems:
        print(p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
