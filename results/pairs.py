#!/usr/bin/env python3
"""Alternating parent/change runs of the fixed suite (benchmark/run.sh).

    python3 results/pairs.py --parent /path/to/parent-checkout \
        --workload mem-read --pairs 10 --seed 1 >> results/point_path.txt

Runs `bash benchmark/run.sh --workload W --seed S` once per side per pair,
each from its own checkout, alternating which side goes first. Every run's
JSON line is printed as it was produced; the table after them gives each
end-to-end metric's median and quartiles per side, the change's median
against the parent's, the parent's inter-quartile distance (the spread a
claimed gain must exceed) and the pairs the change won (ties count for
neither). Judging a claim from the table is the reader's job; the script
only reports.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

LOWER_IS_BETTER = {"setup_s", "read_p50_us", "write_p50_us", "bytes_per_key"}


def run(checkout, workload, seed):
    out = subprocess.run(
        ["bash", "benchmark/run.sh", "--workload", workload, "--seed", str(seed)],
        cwd=checkout, check=True, capture_output=True, text=True).stdout
    line = out.strip().splitlines()[-1]
    return line, json.loads(line)


def quartiles(xs):
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], statistics.median(xs), q[2]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--parent", required=True, help="checkout of the parent commit")
    ap.add_argument("--change", default=os.getcwd(), help="checkout of the change (default: cwd)")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    a = ap.parse_args()

    sides = {"parent": a.parent, "change": a.change}
    runs = {"parent": [], "change": []}
    print(f"## {a.workload} seed={a.seed} pairs={a.pairs}")
    for i in range(a.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            line, doc = run(sides[side], a.workload, a.seed)
            runs[side].append(doc)
            print(f"pair={i + 1} first={order[0]} side={side} {line}", flush=True)

    failed = {s: sum(d["failed"] for d in runs[s]) for s in runs}
    print(f"\nfailed operations: parent={failed['parent']} change={failed['change']}")
    print(f"{'metric':18} {'parent q1/median/q3':34} {'change q1/median/q3':34} "
          f"{'change vs parent':>16} {'parent IQR':>11} {'wins':>6}")
    for name in sorted(runs["parent"][0]["metrics"]):
        p = [d["metrics"][name]["value"] for d in runs["parent"]]
        c = [d["metrics"][name]["value"] for d in runs["change"]]
        pq, cq = quartiles(p), quartiles(c)
        better = (lambda x, y: x < y) if name in LOWER_IS_BETTER else (lambda x, y: x > y)
        wins = sum(better(x, y) for x, y in zip(c, p))
        ties = sum(x == y for x, y in zip(c, p))
        fmt = lambda q: "/".join(f"{v:.6g}" for v in q)
        print(f"{name:18} {fmt(pq):34} {fmt(cq):34} {cq[1] / pq[1] - 1:>+15.1%} "
              f"{(pq[2] - pq[0]) / pq[1]:>10.1%} {wins:>3}/{a.pairs - ties}")
    print()


if __name__ == "__main__":
    sys.exit(main())
