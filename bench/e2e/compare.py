#!/usr/bin/env python3
"""A/B comparison of two checkouts on the end-to-end benchmark.

Runs `bash bench/e2e/run.sh --workload W --seed S --seconds T --trace 0`
in a parent and a change checkout, pair by pair. Both sides of a pair get
the same seed; each pair gets a new one, and the side that runs first
alternates. For every workload and end-to-end metric it prints each side's
median and quartiles, the change's wins, and a verdict:

  gain        the change wins at least 9 of every 10 pairs (ties count for
              neither side) and the medians differ by more than the
              parent's own spread (the distance between its quartiles);
  regression  otherwise, the change's median is worse than the parent's by
              more than the metric's bound in BENCHMARK.json, or the parent
              wins at least 9 of every 10 pairs and the medians differ by
              more than the parent's spread (a loss resolved below the
              bound);
  unresolved  otherwise, the parent's spread, as a share of its median,
              exceeds the bound, unless every change run beats every
              parent run;
  same        otherwise.

A gain does not count when the change fails more operations than the
parent. Every workload in BENCHMARK.json runs, at its run_seconds, with
the bounds it sets; both checkouts must define the same benchmark. Pair i
uses seed 1000 + i. On workloads with one operation per repetition the
cell_* metrics repeat run_s, so they get no verdict there.

Usage:
  python3 bench/e2e/compare.py PARENT_DIR CHANGE_DIR [--pairs 10]
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

SEED_BASE = 1000
# The only workload whose repetitions run many operations (plan cells); on
# the others cell_p50_ms and cell_p95_ms equal run_s in milliseconds.
CELL_WORKLOADS = {"campus_sweep"}
CELL_METRICS = {"cell_p50_ms", "cell_p95_ms"}


def load_benchmark(root):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(root, bench, workload, seed):
    cmd = list(bench["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"compare.py: {' '.join(cmd)} in {root} failed "
                 f"(exit {proc.returncode}):\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(metric, parent, change, p_failed, c_failed):
    lower = metric["better"] == "lower"
    bound = metric["bound"]
    p_q1, p_med, p_q3 = quartiles(parent)
    c_med = statistics.median(change)

    def better(c, p):
        return c < p if lower else c > p

    wins = sum(better(c, p) for p, c in zip(parent, change))
    losses = sum(better(p, c) for p, c in zip(parent, change))
    resolved = abs(c_med - p_med) > p_q3 - p_q1
    worse_by = (c_med - p_med) / p_med if lower else (p_med - c_med) / p_med
    parent_spread = (p_q3 - p_q1) / p_med if p_med else float("inf")
    all_better = all(better(c, p) for c in change for p in parent)
    if wins >= 0.9 * len(parent) and resolved and better(c_med, p_med) \
            and c_failed <= p_failed:
        return wins, "gain"
    if worse_by > bound or (losses >= 0.9 * len(parent) and resolved
                            and better(p_med, c_med)):
        return wins, "regression"
    if parent_spread > bound and not all_better:
        return wins, "unresolved"
    return wins, "same"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--pairs", type=int, default=10)
    args = ap.parse_args()
    if args.pairs < 10:
        sys.exit("compare.py: the 9-of-10 rule needs at least 10 pairs")

    bench = load_benchmark(args.parent)
    if load_benchmark(args.change) != bench:
        sys.exit("compare.py: the two checkouts define different benchmarks")
    names = [w["name"] for w in bench["workloads"]]

    sides = {"parent": args.parent, "change": args.change}
    results = {w: {"parent": [], "change": []} for w in names}
    for i in range(args.pairs):
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        for w in names:
            for side in order:
                r = run_once(sides[side], bench, w, SEED_BASE + i)
                results[w][side].append(r)
                print(f"pair {i + 1}/{args.pairs} {w} {side}: "
                      f"{r['failed']}/{r['attempted']} failed", file=sys.stderr)

    header = (f"{'workload':20s} {'metric':16s} "
              f"{'parent median [q1, q3]':>34s} "
              f"{'change median [q1, q3]':>34s} "
              f"{'delta':>8s} {'wins':>6s}  verdict")
    print(header)
    for w in names:
        runs = results[w]
        p_failed = sum(r["failed"] for r in runs["parent"])
        c_failed = sum(r["failed"] for r in runs["change"])
        for metric in bench["end_to_end"]:
            name = metric["name"]
            if name in CELL_METRICS and w not in CELL_WORKLOADS:
                continue
            pv = [r["metrics"][name]["value"] for r in runs["parent"]]
            cv = [r["metrics"][name]["value"] for r in runs["change"]]
            wins, v = verdict(metric, pv, cv, p_failed, c_failed)
            p = quartiles(pv)
            c = quartiles(cv)
            delta = (c[1] - p[1]) / p[1] if p[1] else float("nan")
            print(f"{w:20s} {name:16s} "
                  f"{p[1]:12.6g} [{p[0]:9.4g}, {p[2]:9.4g}] "
                  f"{c[1]:12.6g} [{c[0]:9.4g}, {c[2]:9.4g}] "
                  f"{100 * delta:+7.2f}% {wins:3d}/{len(pv):<2d}  {v}")
        print(f"{w:20s} failed operations: "
              f"parent {p_failed}, change {c_failed}")


if __name__ == "__main__":
    main()
