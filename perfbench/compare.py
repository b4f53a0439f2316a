#!/usr/bin/env python3
"""Compares two sets of benchmark results (parent and change), offline.

Usage:

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR [--benchmark BENCHMARK.json]

Each directory holds the result files perfbench/run.py saves in
.bench_results/. Runs are paired in the order they were made (parent run i
with change run i), which matches alternating parent/change runs. For every
workload and metric it prints each side's median and quartiles, how many
pairs the change won, and a verdict against the bound in BENCHMARK.json:

  improved    the change won at least 9 of 10 pairs and the medians differ
              by more than the parent's own quartile spread
  regressed   the change's median is worse than the parent's by more than
              the bound
  unresolved  a side's quartile spread is wider than the bound, unless
              every change run beats every parent run
  unchanged   none of the above
  -           per-layer metrics, which have no bound

Plain python3, no dependencies.
"""

import argparse
import glob
import json
import os
import statistics
import sys


def load(directory):
    """{(workload, trace): [{metric: value}, ...]}, runs in the order made."""
    runs = {}
    files = glob.glob(os.path.join(directory, "*-trace[01]-*.json"))
    files = [f for f in files if not f.endswith(".spans.json")]
    # The file name ends in the run's start time in nanoseconds.
    files.sort(key=lambda f: int(f.rsplit("-", 1)[1].split(".")[0]))
    for path in files:
        with open(path) as f:
            data = json.load(f)
        rec, res = data["record"], data["result"]
        key = (rec["workload"], int(rec["trace"]))
        runs.setdefault(key, []).append(
            {k: v["value"] for k, v in res["metrics"].items()})
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def verdict(parent, change, better, bound):
    if bound is None:
        return "-"
    sign = 1 if better == "higher" else -1
    p_med, c_med = statistics.median(parent), statistics.median(change)
    if sign > 0:
        dominated = min(change) > max(parent)
    else:
        dominated = max(change) < min(parent)
    if max(spread(parent), spread(change)) > bound and not dominated:
        return "unresolved"
    worse = sign * (p_med - c_med) / abs(p_med) if p_med else 0
    if worse > bound:
        return "regressed"
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    q1, _, q3 = quartiles(parent)
    if pairs and wins >= 0.9 * len(pairs) and abs(c_med - p_med) > q3 - q1:
        return "improved"
    return "unchanged"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--benchmark", default=os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "BENCHMARK.json"))
    args = ap.parse_args()
    with open(args.benchmark) as f:
        bench = json.load(f)
    meta = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    parent, change = load(args.parent), load(args.change)
    if not parent or not change:
        print("no results found", file=sys.stderr)
        return 1
    fmt = "%-10s %-34s %12s %25s %12s %25s %6s  %s"
    print(fmt % ("workload", "metric", "parent med", "parent q1..q3",
                 "change med", "change q1..q3", "wins", "verdict"))
    for key in sorted(set(parent) & set(change)):
        p_runs, c_runs = parent[key], change[key]
        names = [n for n in meta if all(n in r for r in p_runs + c_runs)]
        for name in names:
            p = [r[name] for r in p_runs]
            c = [r[name] for r in c_runs]
            m = meta[name]
            sign = 1 if m["better"] == "higher" else -1
            wins = sum(1 for a, b in zip(p, c) if sign * (b - a) > 0)
            pq1, pmed, pq3 = quartiles(p)
            cq1, cmed, cq3 = quartiles(c)
            print(fmt % (key[0], name, "%.4g" % pmed,
                         "%.4g..%.4g" % (pq1, pq3), "%.4g" % cmed,
                         "%.4g..%.4g" % (cq1, cq3),
                         "%d/%d" % (wins, min(len(p), len(c))),
                         verdict(p, c, m["better"], m.get("bound"))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
