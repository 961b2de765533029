#!/usr/bin/env python3
"""Alternating parent/change runs of the fixed suite (benchmark/run.sh).

    python3 results/pairs.py --parent /path/to/parent-checkout \
        --workload mem-read --pairs 10 --seed 1 [--pads] >> results/point_path.txt
    python3 results/pairs.py --layout-only --change /path/to/checkout \
        --workload mem-range --pairs 10 >> results/layout_noise.txt
    python3 results/pairs.py --check-pads

Runs `bash benchmark/run.sh --workload W --seed S` once per side per pair,
each from its own checkout, alternating which side goes first. Every run's
JSON line is printed as it was produced, after the run's peak RSS (see
run; the benchmark's build is not part of it). The table after them has a
row for each end-to-end metric and a last one for the peak RSS, each
giving the median and quartiles per side, the change's median against the
parent's, the parent's inter-quartile distance (the spread a claimed gain
must exceed) and the pairs the change won (ties count for neither).
Judging a claim from the table is the reader's job; the script only
reports.

Code placement alone moves the suite by several percent, so a small,
consistent offset between two checkouts can be an artifact of where the
linker put the hot functions. --pads turns that bias into variance: for
every pair both checkouts are copied to a temporary directory and the same
generated pad -- a file that sorts first in internal/core and in
internal/art, holding one never-called function whose size is drawn per
pair in 32-byte steps across 0-4 KiB -- is written into each copy, so
every pair runs both sides under one fresh layout. Each run's line then
also carries the pad size and the addresses (`go tool nm`) of the hot
functions in ADDR_SYMBOLS. --layout-only runs one checkout under a
different pad per run and prints the spread that placement alone gives.
--check-pads builds the benchmark binary under two pads and exits 1
unless core.(*ALT).Get moves, i.e. unless the pads reach the hot path.
"""
import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile

# The peak RSS of a run, in MB: not a metric of the suite, so it is kept
# beside a run's metrics and printed as the tables' last row.
PEAK_RSS = "peak_rss_mb"
LOWER_IS_BETTER = {"setup_s", "read_p50_us", "write_p50_us", "bytes_per_key", PEAK_RSS}

# Packages that receive a pad, and the hot functions whose addresses each
# padded run logs.
PAD_PACKAGES = ("internal/core", "internal/art")
PAD_FILE = "000_layout_pad.go"
ADDR_SYMBOLS = {
    "core.Get": "altindex/internal/core.(*ALT).Get",
    "core.route": "altindex/internal/core.(*table).route",
    "art.Get": "altindex/internal/art.(*Tree).Get",
}
# Pad sizes are drawn as PAD_STEP * j for j in [0, PAD_STEPS]: 0-4 KiB.
PAD_STEP, PAD_STEPS = 32, 128
# One pad statement pair (xor-shift, multiply) compiles to about 14 bytes
# of amd64 code and the function frame to about 11; the linker aligns
# functions to 32 bytes, so a pad lands in the drawn 32-byte step or the
# next.
PAD_BYTES_PER_STMT, PAD_FRAME_BYTES = 14, 11


def pad_source(pkg, size):
    """A Go file for package pkg holding a never-called function of about
    size bytes of code, kept by an init branch that never runs."""
    n = max(0, round((size - PAD_FRAME_BYTES) / PAD_BYTES_PER_STMT))
    body = "".join(f"\tx ^= x >> {7 + i % 13}\n\tx *= 0x9e3779b97f4a7c15\n" for i in range(n))
    return (f"// Code generated by results/pairs.py; a layout pad, never called. DO NOT COMMIT.\n\n"
            f"package {pkg}\n\nvar layoutPadSink uint64\n\n"
            f"//go:noinline\nfunc layoutPad(x uint64) uint64 {{\n{body}\treturn x\n}}\n\n"
            f"func init() {{\n\tif layoutPadSink == 1 {{\n\t\tlayoutPadSink = layoutPad(layoutPadSink)\n\t}}\n}}\n")


def padded_copy(src, dst, size, gocache):
    """Copies checkout src to dst (replacing it) with a pad of size bytes in
    every PAD_PACKAGES directory. The copy's benchmark build cache is the
    shared gocache, so a run recompiles only what the pad touches."""
    shutil.rmtree(dst, ignore_errors=True)
    skip = {os.path.join(src, ".git"), os.path.join(src, "benchmark", ".build"),
            os.path.join(src, "benchmark", "out")}
    shutil.copytree(src, dst, symlinks=True,
                    ignore=lambda d, names: [n for n in names if os.path.join(d, n) in skip])
    for rel in PAD_PACKAGES:
        with open(os.path.join(dst, rel, PAD_FILE), "w") as f:
            f.write(pad_source(os.path.basename(rel), size))
    os.makedirs(os.path.join(dst, "benchmark", ".build"))
    os.symlink(gocache, os.path.join(dst, "benchmark", ".build", "gocache"))


def addresses(binary):
    """Address of each ADDR_SYMBOLS function in binary, and the size of the
    core pad ("-" when absent)."""
    out = subprocess.run(["go", "tool", "nm", "-size", binary], check=True,
                         capture_output=True, text=True).stdout
    syms = {}
    for line in out.splitlines():
        f = line.split(None, 3)
        if len(f) == 4:
            syms[f[3]] = (f[0], f[1])
    addr = {k: "0x" + syms[s][0] if s in syms else "-" for k, s in ADDR_SYMBOLS.items()}
    pad = syms.get("altindex/internal/core.layoutPad", ("-", "0"))[1]
    return addr, pad


def build(checkout):
    """Builds checkout's benchmark binary as benchmark/run.sh does (same
    cache, flags and output), so the build at the start of a timed run finds
    it up to date: a go command of about 22 MB that compiles and links
    nothing (the link alone peaks near 240 MB)."""
    out = os.path.join(os.path.abspath(checkout), "benchmark", ".build")
    os.makedirs(os.path.join(out, "tmp"), exist_ok=True)
    env = dict(os.environ, GOCACHE=os.path.join(out, "gocache"), GOTMPDIR=os.path.join(out, "tmp"),
               GOFLAGS="-buildvcs=false", GOTOOLCHAIN="local")
    subprocess.run(["go", "build", "-o", os.path.join(out, "benchmark"), "."],
                   cwd=os.path.join(checkout, "benchmark"), env=env, check=True)


def run(checkout, workload, seed):
    """One run of the suite in checkout. The line is the run's JSON line
    prefixed with its peak RSS: ru_maxrss from os.wait4 on the run's
    process, which covers every child it waited for. The binary is built
    first, outside that wait, so the peak is the suite's slice processes'
    or, if higher, the no-op go command's (see build)."""
    build(checkout)
    cmd = ["bash", "benchmark/run.sh", "--workload", workload, "--seed", str(seed)]
    with tempfile.TemporaryFile() as err:
        proc = subprocess.Popen(cmd, cwd=checkout, stdout=subprocess.PIPE, stderr=err)
        out = proc.stdout.read().decode()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            err.seek(0)
            raise subprocess.CalledProcessError(proc.returncode, cmd, out, err.read().decode())
    line = out.strip().splitlines()[-1]
    doc = json.loads(line)
    doc[PEAK_RSS] = usage.ru_maxrss / 1024  # KiB on Linux
    return f"{PEAK_RSS}={doc[PEAK_RSS]:.0f} {line}", doc


def run_padded(checkout, workload, seed, work, side, size, gocache):
    """One run of checkout under a pad of size bytes; the JSON line is
    prefixed with the pad and the hot functions' addresses."""
    dst = os.path.join(work, side)
    padded_copy(checkout, dst, size, gocache)
    line, doc = run(dst, workload, seed)
    addr, got = addresses(os.path.join(dst, "benchmark", ".build", "benchmark"))
    shutil.rmtree(dst)
    tag = " ".join(f"{k}={v}" for k, v in addr.items())
    return f"pad={size} core_pad_bytes={got} {tag} {line}", doc


def row_names(docs):
    """The tables' rows: every end-to-end metric, then the peak RSS."""
    return sorted(docs[0]["metrics"]) + [PEAK_RSS]


def values(docs, name):
    return [d[PEAK_RSS] if name == PEAK_RSS else d["metrics"][name]["value"] for d in docs]


def quartiles(xs):
    if len(xs) < 2:  # one run per side: an exact metric's check
        return xs[0], xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], statistics.median(xs), q[2]


def fmt(q):
    return "/".join(f"{v:.6g}" for v in q)


def pad_sizes(n, seed):
    if n > PAD_STEPS + 1:
        sys.exit(f"at most {PAD_STEPS + 1} distinct pads")
    return [PAD_STEP * j for j in random.Random(seed).sample(range(PAD_STEPS + 1), n)]


def workdir():
    """A temporary directory for padded copies and their shared build
    cache (honours TMPDIR)."""
    work = tempfile.mkdtemp(prefix="pairs-pads-")
    gocache = os.path.join(work, "gocache")
    os.makedirs(gocache)
    return work, gocache


def pairs(a):
    sides = {"parent": a.parent, "change": a.change}
    runs = {"parent": [], "change": []}
    sizes = pad_sizes(a.pairs, a.pad_seed) if a.pads else None
    work, gocache = workdir() if a.pads else (None, None)
    print(f"## {a.workload} seed={a.seed} pairs={a.pairs}" +
          (f" pads={','.join(map(str, sizes))}" if a.pads else ""))
    for i in range(a.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            if a.pads:
                line, doc = run_padded(sides[side], a.workload, a.seed, work, side, sizes[i], gocache)
            else:
                line, doc = run(sides[side], a.workload, a.seed)
            runs[side].append(doc)
            print(f"pair={i + 1} first={order[0]} side={side} {line}", flush=True)
    if work:
        shutil.rmtree(work)

    failed = {s: sum(d["failed"] for d in runs[s]) for s in runs}
    print(f"\nfailed operations: parent={failed['parent']} change={failed['change']}")
    print(f"{'metric':18} {'parent q1/median/q3':34} {'change q1/median/q3':34} "
          f"{'change vs parent':>16} {'parent IQR':>11} {'wins':>6}")
    for name in row_names(runs["parent"]):
        p, c = values(runs["parent"], name), values(runs["change"], name)
        pq, cq = quartiles(p), quartiles(c)
        better = (lambda x, y: x < y) if name in LOWER_IS_BETTER else (lambda x, y: x > y)
        wins = sum(better(x, y) for x, y in zip(c, p))
        ties = sum(x == y for x, y in zip(c, p))
        print(f"{name:18} {fmt(pq):34} {fmt(cq):34} {cq[1] / pq[1] - 1:>+15.1%} "
              f"{(pq[2] - pq[0]) / pq[1]:>10.1%} {wins:>3}/{a.pairs - ties}")
    print()


def layout_only(a):
    """Runs one checkout under a.pairs different pads and prints each
    end-to-end metric's spread: the noise code placement alone gives."""
    sizes = pad_sizes(a.pairs, a.pad_seed)
    work, gocache = workdir()
    print(f"## layout-only {a.workload} seed={a.seed} pads={','.join(map(str, sizes))}")
    docs = []
    for i, size in enumerate(sizes):
        line, doc = run_padded(a.change, a.workload, a.seed, work, "layout", size, gocache)
        docs.append(doc)
        print(f"run={i + 1} {line}", flush=True)
    shutil.rmtree(work)
    print(f"\nfailed operations: {sum(d['failed'] for d in docs)}")
    print(f"{'metric':18} {'q1/median/q3':34} {'IQR':>7} {'min-max':>8}")
    for name in row_names(docs):
        xs = values(docs, name)
        q = quartiles(xs)
        print(f"{name:18} {fmt(q):34} {(q[2] - q[0]) / q[1]:>6.1%} {max(xs) / min(xs) - 1:>7.1%}")
    print()


def check_pads(a):
    """Builds the benchmark binary of a.change under two pads and fails
    unless core.(*ALT).Get's address differs between them."""
    work, gocache = workdir()
    env = dict(os.environ, GOCACHE=gocache, GOFLAGS="-buildvcs=false")
    got = []
    for size in (0, 2048):
        dst = os.path.join(work, "check")
        padded_copy(a.change, dst, size, gocache)
        binary = os.path.join(work, "benchmark.bin")
        subprocess.run(["go", "build", "-o", binary, "."], cwd=os.path.join(dst, "benchmark"),
                       env=env, check=True)
        addr, _ = addresses(binary)
        got.append(addr["core.Get"])
        print(f"pad={size} " + " ".join(f"{k}={v}" for k, v in addr.items()))
        shutil.rmtree(dst)
    shutil.rmtree(work)
    if got[0] == "-" or got[0] == got[1]:
        print("check-pads: core.(*ALT).Get did not move; the pads do not reach the hot path")
        return 1
    print("check-pads: core.(*ALT).Get moves with the pad")
    return 0


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--parent", help="checkout of the parent commit")
    ap.add_argument("--change", default=os.getcwd(), help="checkout of the change (default: cwd)")
    ap.add_argument("--workload")
    ap.add_argument("--pairs", type=int, default=10, help="pairs, or runs with --layout-only")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--pads", action="store_true", help="run every pair under its own layout pad")
    ap.add_argument("--pad-seed", type=int, default=1, help="seed of the pad size draws")
    ap.add_argument("--layout-only", action="store_true",
                    help="run only --change, under a different pad per run")
    ap.add_argument("--check-pads", action="store_true",
                    help="fail unless a pad moves core.(*ALT).Get in the benchmark binary")
    a = ap.parse_args()
    if a.check_pads:
        return check_pads(a)
    if not a.workload:
        ap.error("--workload is required")
    if a.layout_only:
        return layout_only(a)
    if not a.parent:
        ap.error("--parent is required")
    return pairs(a)


if __name__ == "__main__":
    sys.exit(main())
