#!/usr/bin/env python3
"""Build and run the simulator benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1> [--size bench|tiny]

Configures perfbench/CMakeLists.txt (the simulator library from src/
plus the perfbench binary) in .bench_build/ as a Release build, builds
it incrementally, and runs the binary with every inherited PROACT_*
variable removed from its environment. The binary's report goes to
standard output; its last line is the JSON result. With --trace 1 the
Chrome trace is written to .bench_build/trace-<workload>-<seed>.json.
Exits non-zero, without a result line, if the build or the run fails.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ["paper-grid", "scale-out", "fleet-serve"]
BUILD_DIR = ".bench_build"


def build():
    """Configure (once) and build the binary; build logs go to stderr."""
    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")):
        sys.exit("perfbench: no simulator sources (src/) in " + os.getcwd())
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs,
                  "--target", "perfbench"])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("perfbench: build step failed: " + " ".join(cmd))
    return os.path.join(BUILD_DIR, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["bench", "tiny"], default="bench")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    binary = build()
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("PROACT_")}
    ignored = sorted(set(os.environ) - set(env))
    if ignored:
        print("perfbench: ignoring inherited " + " ".join(ignored))
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--size", args.size]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            BUILD_DIR, "trace-%s-%d.json" % (args.workload, args.seed))]
    sys.stdout.flush()
    return subprocess.run(cmd, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
