#!/usr/bin/env python3
"""Whole-open timing by phase (EXPERIMENTS.md "A whole open, by phase").

usage: python3 results/open_phases.py N PAIRS NEW_ALTDB OLD_ALTDB WORKDIR

Builds WORKDIR/dir-N by the recipe with NEW_ALTDB (N random keys by MPUT
in batches of 4096, SIGTERM, restart, N*16/37 single-key SETs from four
connections one at a time, kill -9), then runs PAIRS alternated pairs of
opens, each on a fresh cp -r of that directory, timing exec -> the
"listening" line and printing the event=recovered phases. NEW_ALTDB and
OLD_ALTDB are altdb binaries built from the two checkouts compared
(go build -o ... ./cmd/altdb). Port 7811 must be free.
"""
import multiprocessing as mp
import os, random, re, shutil, signal, socket, subprocess, sys, time

N, PAIRS = int(sys.argv[1]), int(sys.argv[2])
NEW, OLD, WORK = sys.argv[3], sys.argv[4], sys.argv[5]
PORT = 7811


def start(binary, d):
    p = subprocess.Popen([binary, "-listen", f"127.0.0.1:{PORT}", "-wal-dir", d,
                          "-wal-sync", "none", "-checkpoint-interval", "-1s"],
                         stderr=subprocess.PIPE, text=True)
    t0 = time.monotonic()
    lines = []
    for line in p.stderr:
        lines.append(line)
        if "listening" in line:
            return p, time.monotonic() - t0, lines
    raise SystemExit("altdb exited: " + "".join(lines))


def conn():
    s = socket.create_connection(("127.0.0.1", PORT))
    return s, s.makefile("rb")


def sets(args):
    seed, n = args
    rng = random.Random(seed)
    s, f = conn()
    for _ in range(n):
        s.sendall(b"SET %d %d\n" % (rng.getrandbits(64), rng.getrandbits(32)))
        if f.readline() != b"OK\n":
            raise SystemExit("SET failed")
    s.close()


def build(d):
    p, _, _ = start(NEW, d)
    rng = random.Random(1)
    s, f = conn()
    left = N
    while left:
        b = min(4096, left)
        s.sendall(b"MPUT " + b" ".join(b"%d %d" % (rng.getrandbits(64), i) for i in range(b)) + b"\n")
        if not f.readline().startswith(b"OK"):
            raise SystemExit("MPUT failed")
        left -= b
    s.close()
    p.send_signal(signal.SIGTERM)
    p.wait()
    p, _, _ = start(NEW, d)
    recs = N * 16 // 37
    with mp.Pool(4) as pool:
        pool.map(sets, [(100 + i, recs // 4 + (1 if i < recs % 4 else 0)) for i in range(4)])
    p.kill()
    p.wait()


def one_open(binary, src):
    d = os.path.join(WORK, "copy")
    shutil.rmtree(d, ignore_errors=True)
    subprocess.run(["cp", "-r", src, d], check=True)
    p, dt, lines = start(binary, d)
    p.kill()
    p.wait()
    shutil.rmtree(d)
    ev = next((l for l in lines if "event=recovered" in l), "")
    phases = dict(re.findall(r"(\w+)=([0-9.]+)", ev))
    return dt, phases


src = os.path.join(WORK, f"dir-{N}")
if not os.path.exists(os.path.join(src, "CHECKPOINT")):
    shutil.rmtree(src, ignore_errors=True)
    t = time.monotonic()
    build(src)
    print(f"built {src} in {time.monotonic()-t:.0f}s", flush=True)
subprocess.run(["ls", "-la", os.path.join(src, "wal"), src])
for i in range(PAIRS):
    order = [("new", NEW), ("old", OLD)] if i % 2 == 0 else [("old", OLD), ("new", NEW)]
    for name, b in order:
        dt, ph = one_open(b, src)
        print(f"N={N} pair={i} build={name} exec_to_listening={dt:.3f} records={ph.get('records')} "
              f"plan_io_s={ph.get('plan_io_s')} base_load_s={ph.get('base_load_s')} "
              f"replay_s={ph.get('replay_s')} apply_s={ph.get('apply_s')}", flush=True)
