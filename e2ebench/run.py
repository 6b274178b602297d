#!/usr/bin/env python3
"""Builds the e2e benchmark from this checkout and runs one workload.

    python3 e2ebench/run.py --workload NAME --seed S --seconds T --trace 0|1
    python3 e2ebench/run.py --workload all --seed S [--out merged.json]

Run from the repository root. The first call configures and builds
e2ebench/ (which compiles the library from src/) under .bench_build/
(or $CARGO_TARGET_DIR when set); later calls only rebuild what changed.
The last line of standard output is the workload's JSON result. With
--trace 1 the per-layer metrics are reported and the Chrome trace is
written to .bench_build/traces/<workload>-seed<S>.json. `--workload all`
runs the four workloads one after another, each in its own process.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["build-dblp", "read-hot-local", "read-cold-remote", "mutate-rdf"]
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def out_dir():
    return os.path.join(ROOT,
                        os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Configures (once) and builds the e2e binary; returns its path."""
    base = out_dir()
    build_dir = os.path.join(base, "e2e")
    os.makedirs(build_dir, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "e2e", "-j", jobs])
    # One build at a time per checkout; concurrent runs wait here.
    with open(os.path.join(base, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        for step in steps:
            subprocess.run(step, check=True, stdout=sys.stderr,
                           timeout=BUILD_TIMEOUT_S)
    return os.path.join(build_dir, "e2e")


def run_one(binary, workload, seed, seconds, trace, json_out=None):
    """Runs one workload in its own process; returns its exit code."""
    base = out_dir()
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds),
           "--scratch", os.path.join(base, "scratch")]
    if trace:
        traces = os.path.join(base, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, "%s-seed%d.json" % (workload, seed))]
    if json_out:
        cmd += ["--json", json_out]
    sys.stdout.flush()
    return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out", help="with --workload all: merged JSON file")
    args = parser.parse_args()

    try:
        binary = build()
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as err:
        print("e2ebench build failed: %s" % err, file=sys.stderr)
        return 2

    if args.workload != "all":
        return run_one(binary, args.workload, args.seed, args.seconds,
                       args.trace)

    merged, worst = {}, 0
    for workload in WORKLOADS:
        part = os.path.join(out_dir(), "%s.json" % workload)
        code = run_one(binary, workload, args.seed, args.seconds, args.trace,
                       part)
        worst = max(worst, code)
        if os.path.exists(part):
            with open(part) as f:
                merged[workload] = json.load(f)
            os.remove(part)
    summary = json.dumps(merged, sort_keys=True)
    if args.out:
        with open(args.out, "w") as f:
            f.write(summary + "\n")
    print(summary)
    return worst


if __name__ == "__main__":
    sys.exit(main())
