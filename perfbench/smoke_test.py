#!/usr/bin/env python3
"""Smoke test for the benchmark, at the tiny input size.

Run from the root of a checkout:

    python3 perfbench/smoke_test.py

For every workload it runs the benchmark twice untraced and once
traced, and asserts that:
  * every end-to-end and per-layer metric of BENCHMARK.json is in the
    result line with its unit, and every metric the workload reports
    in its text (wall_median_s, failed_frac, sim_events_per_s, the
    simulated figures) is printed with a unit;
  * the result is correct and attempted >= 1;
  * the two untraced runs print the same digest;
  * the traced run prints the same digest as the untraced ones.
Exits non-zero on the first failure.
"""

import json
import re
import subprocess
import sys

REPORTED = {
    "paper-grid": ["wall_median_s", "failed_frac", "sim_events_per_s",
                   "paper_gap_pct"],
    "scale-out": ["wall_median_s", "failed_frac", "sim_events_per_s",
                  "sim.goodput_retained"],
    "fleet-serve": ["wall_median_s", "failed_frac", "sim.fleet_p95_ms",
                    "sim.fleet_jobs_per_s"],
}


def run(workload, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "3", "--seconds", "0.2", "--trace", str(trace),
           "--size", "tiny"]
    done = subprocess.run(cmd, capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit("FAIL %s trace=%d exited %d:\n%s" % (
            workload, trace, done.returncode, done.stderr[-2000:]))
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    digest = [l.split()[1] for l in lines if l.startswith("digest ")]
    printed = {}
    for line in lines:
        m = re.match(r"(metric|layer)\s+(\S+)\s+(\S+)\s+(\S+)\s+\[(host|sim)\]$",
                     line)
        if m:
            printed[m.group(2)] = m.group(4)
    return result, digest, printed


def check(cond, what):
    if not cond:
        sys.exit("FAIL " + what)


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    for workload in REPORTED:
        first, digest1, printed = run(workload, 0)
        second, digest2, _ = run(workload, 0)
        traced, digest3, traced_printed = run(workload, 1)
        for result, metrics in ((first, bench["end_to_end"]),
                                (traced, bench["per_layer"])):
            check(set(result) == {"correct", "attempted", "failed",
                                  "metrics"}, workload + ": result keys")
            check(result["correct"] is True, workload + ": correct")
            check(result["attempted"] >= 1, workload + ": attempted")
            names = {m["name"]: m["unit"] for m in metrics}
            check(set(result["metrics"]) == set(names),
                  workload + ": metric names %s" % sorted(
                      set(result["metrics"]) ^ set(names)))
            for name, unit in names.items():
                check(result["metrics"][name]["unit"] == unit,
                      "%s: unit of %s" % (workload, name))
        for name in REPORTED[workload]:
            check(printed.get(name), "%s: %s not printed with a unit" % (
                workload, name))
        for m in bench["per_layer"]:
            check(traced_printed.get(m["name"]) == m["unit"],
                  "%s: layer %s not printed" % (workload, m["name"]))
        check(len(digest1) == 1 and digest1 == digest2,
              workload + ": digest differs between two runs")
        check(digest1 == digest3,
              workload + ": digest differs between traced and untraced")
        print("ok %-15s digest %s, %d ops, %d failed" % (
            workload, digest1[0], first["attempted"], first["failed"]))


if __name__ == "__main__":
    main()
