#!/usr/bin/env python3
"""Runs the e2e benchmark repeatedly and judges metrics by their bounds.

    python3 e2ebench/compare.py PARENT_CHECKOUT CHANGE_CHECKOUT [--runs N]
    python3 e2ebench/compare.py CHECKOUT [--runs N]

With two checkouts it runs N pairs per workload on seeds SEED_BASE,
SEED_BASE+1, ... (both sides get the same seed), alternating which side
goes first, and prints per metric each side's median and quartiles, the
share of pairs the change won, and a verdict:

  regression  the change's median is worse than the parent's by more
              than the metric's bound in BENCHMARK.json
  improved    the change won at least 9 of 10 pairs and the medians
              differ by more than the parent's interquartile range
  unresolved  the parent's own spread exceeds the bound and not every
              change run beat every parent run
  same        none of the above

With one checkout it runs N seeds per workload and prints each metric's
median, quartiles and spread (interquartile range over median) against
a third of its bound, the steadiness the benchmark is built to. Seeds
default to 9001 onward, away from the seeds used while developing.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run(checkout, workload, seed, seconds):
    cmd = [sys.executable, os.path.join("e2ebench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if proc.returncode != 0 or not result.get("correct"):
        sys.exit("%s %s seed %d failed (exit %d)"
                 % (checkout, workload, seed, proc.returncode))
    return {k: v["value"] for k, v in result["metrics"].items()}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def worse_by(parent, change, better):
    """Share by which `change` is worse than `parent` (negative: better)."""
    if parent == 0:
        return 0.0
    delta = (change - parent) / abs(parent)
    return delta if better == "lower" else -delta


def verdict(spec, parent, change):
    better, bound = spec["better"], spec["bound"]
    p_q1, p_med, p_q3 = quartiles(parent)
    _, c_med, _ = quartiles(change)
    wins = sum(1 for p, c in zip(parent, change)
               if (c < p if better == "lower" else c > p))
    win_share = wins / len(parent)
    if worse_by(p_med, c_med, better) > bound:
        return win_share, "regression"
    if win_share >= 0.9 and abs(c_med - p_med) > (p_q3 - p_q1):
        return win_share, "improved"
    all_better = all(worse_by(p, c, better) < 0 for p in parent for c in change)
    if p_med and (p_q3 - p_q1) / abs(p_med) > bound and not all_better:
        return win_share, "unresolved"
    return win_share, "same"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("checkouts", nargs="+", metavar="CHECKOUT")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed-base", type=int, default=9001)
    parser.add_argument("--json", help="write every measured value here")
    args = parser.parse_args()
    if len(args.checkouts) > 2:
        parser.error("give one or two checkouts")

    with open(os.path.join(args.checkouts[0], "BENCHMARK.json")) as f:
        bench = json.load(f)
    specs = {m["name"]: m for m in bench["end_to_end"]}
    raw = {}
    for workload in (w["name"] for w in bench["workloads"]):
        sides = [{} for _ in args.checkouts]
        for i in range(args.runs):
            seed = args.seed_base + i
            order = list(range(len(args.checkouts)))
            if i % 2:
                order.reverse()
            for side in order:
                values = run(args.checkouts[side], workload, seed,
                             bench["run_seconds"])
                for name, value in values.items():
                    sides[side].setdefault(name, []).append(value)
        raw[workload] = sides

        last_seed = args.seed_base + args.runs - 1
        print("\n== %s (%d runs, seeds %d..%d) ==" % (
            workload, args.runs, args.seed_base, last_seed))
        for name, spec in specs.items():
            parent = sides[0][name]
            p_q1, p_med, p_q3 = quartiles(parent)
            spread = (p_q3 - p_q1) / abs(p_med) if p_med else 0.0
            if len(sides) == 1:
                steady = spread < spec["bound"] / 3
                print("%-14s median %-12.6g q1 %-12.6g q3 %-12.6g spread "
                      "%6.2f%% (bound %g%%) %s" % (
                          name, p_med, p_q1, p_q3, 100 * spread,
                          100 * spec["bound"], "ok" if steady else "NOISY"))
                continue
            change = sides[1][name]
            c_q1, c_med, c_q3 = quartiles(change)
            win_share, judged = verdict(spec, parent, change)
            print("%-14s parent %-11.6g [%-11.6g %-11.6g] change %-11.6g "
                  "[%-11.6g %-11.6g] wins %3.0f%% %s" % (
                      name, p_med, p_q1, p_q3, c_med, c_q1, c_q3,
                      100 * win_share, judged))
    if args.json:
        with open(args.json, "w") as f:
            json.dump(raw, f, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
