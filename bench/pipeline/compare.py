#!/usr/bin/env python3
"""Compare two sets of bench_pipeline runs under the BENCHMARK.json bounds.

    python3 bench/pipeline/compare.py <parent-dir> <change-dir>

Each directory holds result files written with `bench_pipeline --out`
(one JSON run document per line; untraced runs only are compared). For
every end-to-end metric and workload this prints each side's median and
quartiles, how many run pairs the change won, and a verdict:

  better      the change wins at least 9 of 10 pairs (ties count for
              neither) and the medians differ by more than the parent's
              interquartile range, in the metric's better direction
  worse       the change's median is worse than the parent's by more than
              the metric's bound
  unresolved  the parent's own spread (IQR / median) exceeds the bound and
              not every change run beats every parent run
  same        none of the above

Runs pair up by seed when both sides ran the same seeds, otherwise in file
order. Exits 1 on any `worse` row or when the change's failed/attempted
ratio on a workload rises above the parent's.
"""
import json
import os
import statistics
import sys


def load_runs(directory):
    runs = {}
    for name in sorted(os.listdir(directory)):
        if not name.endswith((".json", ".jsonl")):
            continue
        with open(os.path.join(directory, name)) as f:
            for line in f:
                line = line.strip()
                if not line:
                    continue
                doc = json.loads(line)
                if isinstance(doc, dict) and "workload" in doc and not doc.get("trace"):
                    runs.setdefault(doc["workload"], []).append(doc)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def pairs(parent, change):
    seeds_p = [r["seed"] for r in parent]
    seeds_c = [r["seed"] for r in change]
    if sorted(seeds_p) == sorted(seeds_c) and len(set(seeds_p)) == len(seeds_p):
        by_seed = {r["seed"]: r for r in change}
        return [(r, by_seed[r["seed"]]) for r in parent]
    return list(zip(parent, change))


def verdict(metric, parent_vals, change_vals, paired):
    sign = 1 if metric["better"] == "lower" else -1
    q1, med_p, q3 = quartiles(parent_vals)
    _, med_c, _ = quartiles(change_vals)
    wins = sum(1 for p, c in paired if sign * (p - c) > 0)
    spread = (q3 - q1) / med_p if med_p else float("inf")
    all_better = all(sign * (p - c) > 0 for p in parent_vals for c in change_vals)
    if spread > metric["bound"] and not all_better:
        return "unresolved", wins
    if paired and wins >= 0.9 * len(paired) and sign * (med_p - med_c) > (q3 - q1):
        return "better", wins
    if sign * (med_c - med_p) > metric["bound"] * abs(med_p):
        return "worse", wins
    return "same", wins


def fail_ratio(runs):
    attempted = sum(r["result"]["attempted"] for r in runs)
    failed = sum(r["result"]["failed"] for r in runs)
    return failed / attempted if attempted else 0.0


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, "..", "..", "BENCHMARK.json")) as f:
        metrics = json.load(f)["end_to_end"]
    parent, change = load_runs(argv[1]), load_runs(argv[2])
    status = 0
    header = "%-13s %-15s %-34s %-34s %-6s %s" % (
        "metric", "workload", "parent median [q1, q3]", "change median [q1, q3]", "wins", "verdict")
    print(header)
    for workload in sorted(set(parent) & set(change)):
        paired = pairs(parent[workload], change[workload])
        for metric in metrics:
            name = metric["name"]
            pv = [r["result"]["metrics"][name]["value"] for r in parent[workload]]
            cv = [r["result"]["metrics"][name]["value"] for r in change[workload]]
            pp = [(p["result"]["metrics"][name]["value"], c["result"]["metrics"][name]["value"])
                  for p, c in paired]
            v, wins = verdict(metric, pv, cv, pp)
            fmt = lambda q: "%.4g [%.4g, %.4g]" % (q[1], q[0], q[2])
            print("%-13s %-15s %-34s %-34s %-6s %s" % (
                name, workload, fmt(quartiles(pv)), fmt(quartiles(cv)),
                "%d/%d" % (wins, len(pp)), v))
            status |= v == "worse"
        fp, fc = fail_ratio(parent[workload]), fail_ratio(change[workload])
        if fc > fp:
            print("%-13s %-15s failed/attempted rose from %.6f to %.6f" % ("fail_ratio", workload, fp, fc))
            status = 1
    for workload in sorted(set(parent) ^ set(change)):
        print("%s: runs on one side only" % workload)
    return 1 if status else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
