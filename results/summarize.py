#!/usr/bin/env python3
"""Summarise benchmark artifacts. Stdlib only; rerun after regenerating.

Two modes (the shard-scaling and net-path grids are printed by altbench
itself):

- summarize.py [results/experiments_raw.txt]: per Fig-7 mix, print each
  dataset's ALT throughput, the best baseline, and the ratio — the
  numbers EXPERIMENTS.md quotes.
- summarize.py compare [--threshold N] OLD.json NEW.json: diff two
  altbench -json artifacts row by row — rows are keyed on (Experiment,
  Index, Dataset, Mix, Threads); a swept value rides in Mix, e.g.
  "balanced threads=4" — printing ns/op and Mops for both
  sides, the Mops delta percentage, and a REGRESSION flag on any row
  that slowed down by more than the threshold (default 3%; set with
  --threshold, or the legacy trailing percentage argument). Rows
  carrying GC telemetry (altbench -json always embeds it now) also get
  pause-p99 and pause-time-per-second columns, so a GC win or loss is
  visible in the same diff as the throughput. Exits 1 if any row
  regressed, so CI can gate on it.
"""
import json
import re
import sys
from collections import defaultdict


def summarize_raw(path):
    text = open(path).read()
    sections = re.split(r"\n== ", text)
    for sec in sections:
        if not sec.startswith("Fig 7:"):
            continue
        title = sec.splitlines()[0]
        rows = defaultdict(dict)  # dataset -> index -> mops
        for line in sec.splitlines():
            m = re.match(
                r"(ALT-index|ALEX\+|LIPP\+|FINEdex|XIndex|ART)\s+(\w+)\s+([\d.]+)",
                line,
            )
            if m:
                rows[m.group(2)][m.group(1)] = float(m.group(3))
        print(f"\n{title}")
        for ds, byidx in rows.items():
            alt = byidx.get("ALT-index", 0)
            base = {k: v for k, v in byidx.items() if k != "ALT-index"}
            if not base or alt == 0:
                continue
            bname, bval = max(base.items(), key=lambda kv: kv[1])
            print(f"  {ds:8s} ALT={alt:5.2f}  best-baseline={bname}={bval:5.2f}  ratio={alt/bval:4.2f}x")


def load_rows(path):
    """Index an altbench -json artifact by (Experiment, Index, Dataset, Mix, Threads)."""
    doc = json.load(open(path))
    rows = {}
    for run in doc.get("Runs", []):
        key = (
            run.get("Experiment", ""),
            run.get("Index", ""),
            run.get("Dataset", ""),
            run.get("Mix", ""),
            run.get("Threads", 0),
        )
        rows[key] = run
    return rows


def ns_per_op(run):
    ops = run.get("Ops", 0)
    if not ops:
        return 0.0
    return run.get("Elapsed", 0) / ops  # Elapsed is serialized in ns


def gc_cols(run):
    """Format a run's GC telemetry as (pause-p99 µs, pause ns per second)."""
    gc = run.get("GC") or {}
    p99 = gc.get("PauseP99Ns", 0) / 1e3
    per_sec = gc.get("PausePerSecNs", 0.0)
    return f"{p99:>8.1f} {per_sec:>9.0f}"


def compare(old_path, new_path, threshold_pct=3.0):
    """Diff two altbench -json artifacts; return the number of regressions.

    A row regresses when its throughput drops by more than threshold_pct.
    Rows present on only one side are listed but never flagged (a new
    experiment is not a regression). GC pause columns are informational —
    pauses on a quiet run are noisy enough that flagging them would cry
    wolf; the gate stays on throughput.
    """
    old, new = load_rows(old_path), load_rows(new_path)
    shared = [k for k in old if k in new]
    if not shared:
        print(f"compare: no shared rows between {old_path} and {new_path}")
        return 0
    has_gc = any(old[k].get("GC") or new[k].get("GC") for k in shared)
    width = max(len(" ".join(str(p) for p in k[:4])) for k in shared)
    print(f"== compare: {old_path} -> {new_path} (threshold {threshold_pct:.1f}%) ==")
    gc_header = ""
    if has_gc:
        gc_header = (
            f" {'o-p99us':>8s} {'o-gcns/s':>9s} {'n-p99us':>8s} {'n-gcns/s':>9s}"
        )
    print(
        f"{'experiment index dataset mix':<{width}s} thr "
        f"{'old ns/op':>10s} {'new ns/op':>10s} {'old Mops':>9s} {'new Mops':>9s} {'delta':>8s}"
        + gc_header
    )
    regressions = 0
    for k in sorted(shared):
        o, n = old[k], new[k]
        label = " ".join(str(p) for p in k[:4])
        delta = 0.0
        if o.get("Mops"):
            delta = 100.0 * (n.get("Mops", 0.0) - o["Mops"]) / o["Mops"]
        flag = ""
        if delta < -threshold_pct:
            flag = "  REGRESSION"
            regressions += 1
        gc_part = f" {gc_cols(o)} {gc_cols(n)}" if has_gc else ""
        print(
            f"{label:<{width}s} {k[4]:>3d} "
            f"{ns_per_op(o):>10.1f} {ns_per_op(n):>10.1f} "
            f"{o.get('Mops', 0.0):>9.2f} {n.get('Mops', 0.0):>9.2f} {delta:>+7.1f}%"
            f"{gc_part}{flag}"
        )
    for k in sorted(set(old) - set(new)):
        print(f"  only in {old_path}: {' '.join(str(p) for p in k)}")
    for k in sorted(set(new) - set(old)):
        print(f"  only in {new_path}: {' '.join(str(p) for p in k)}")
    if regressions:
        print(f"compare: {regressions} regression(s) beyond {threshold_pct:.1f}%")
    return regressions


def main(*argv):
    if argv and argv[0] == "compare":
        rest = list(argv[1:])
        threshold = 3.0
        if "--threshold" in rest:
            i = rest.index("--threshold")
            try:
                threshold = float(rest[i + 1])
            except (IndexError, ValueError):
                sys.exit("summarize.py: --threshold needs a numeric percentage")
            del rest[i : i + 2]
        if len(rest) < 2:
            sys.exit(
                "usage: summarize.py compare [--threshold N] OLD.json NEW.json [threshold%]"
            )
        if len(rest) > 2:  # legacy trailing-positional threshold
            threshold = float(rest[2])
        sys.exit(1 if compare(rest[0], rest[1], threshold) else 0)
    summarize_raw(argv[0] if argv else "results/experiments_raw.txt")


if __name__ == "__main__":
    main(*sys.argv[1:])
