package server

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"altindex"
	"altindex/internal/fsys"
)

// Storage-fault contract of the durable store (DESIGN.md §8): a fault on
// the log side wedges the server read-only; a fault on the checkpoint side
// costs one checkpoint and nothing else. Each fault is a call of the
// file-system seam (internal/fsys) that fails or stalls.

var errDisk = errors.New("injected disk fault")

// fault returns a seam hook that fails the calls match accepts with
// errDisk: the first times of them, or every one when times is 0.
func fault(match func(fsys.Call) bool, times int64) func(fsys.Call) error {
	var seen atomic.Int64
	return func(c fsys.Call) error {
		if match(c) && (times == 0 || seen.Add(1) <= times) {
			return errDisk
		}
		return nil
	}
}

// stall returns a seam hook that holds the first call match accepts for
// d, and a channel closed once that call has reached the hook.
func stall(match func(fsys.Call) bool, d time.Duration) (func(fsys.Call) error, <-chan struct{}) {
	held := make(chan struct{})
	var once sync.Once
	return func(c fsys.Call) error {
		if match(c) {
			once.Do(func() {
				close(held)
				time.Sleep(d)
			})
		}
		return nil
	}, held
}

// on matches calls of op on a file whose name has prefix and suffix.
func on(op fsys.Op, prefix, suffix string) func(fsys.Call) bool {
	return func(c fsys.Call) bool {
		name := filepath.Base(c.Path)
		return c.Op == op && strings.HasPrefix(name, prefix) && strings.HasSuffix(name, suffix)
	}
}

// dirListing names every file under dir with its size: the on-disk shape
// a refused checkpoint must leave alone.
func dirListing(t *testing.T, dir string) string {
	t.Helper()
	var out []string
	err := filepath.Walk(dir, func(p string, fi os.FileInfo, err error) error {
		if err == nil && !fi.IsDir() {
			out = append(out, fmt.Sprintf("%s:%d", p, fi.Size()))
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(out)
	return strings.Join(out, "\n")
}

// TestLogFaultWedgesReadOnly: an I/O error on a segment's write, fsync
// or create fails the write it hits; from then on every write is refused
// with ERR READONLY before it touches the index, reads keep serving the
// acked state, checkpoints change nothing on disk, and a restart on a
// healthy disk serves exactly the acked set.
func TestLogFaultWedgesReadOnly(t *testing.T) {
	for _, tc := range []struct {
		name string
		op   fsys.Op
		// onDisk: the failing write's record reached the segment before
		// the fault (the fsync edge), so recovery replays it.
		onDisk bool
	}{
		{"write", fsys.OpWrite, false},
		{"sync", fsys.OpSync, true},
		{"rotate", fsys.OpCreate, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			// Seven single-SET records fill a 256-byte segment, so a
			// rotation comes within a few writes of arming the create
			// fault. The other faults get a log that does not rotate, so
			// the first call they fail is the record's own write or fsync.
			cfg := Config{}
			if tc.op == fsys.OpCreate {
				cfg.WALSegmentBytes = 256
			}
			srv, addr := startDurable(t, dir, cfg)
			c := dial(t, addr)

			acked := map[uint64]uint64{}
			for k := uint64(1); k <= 40; k++ {
				mustReply(t, c, fmt.Sprintf("SET %d %d", k, k*10), "OK")
				acked[k] = k * 10
				if k == 20 {
					if err := srv.dur.Checkpoint(); err != nil {
						t.Fatal(err)
					}
				}
			}
			mustReply(t, c, "MPUT 41 410 42 420", "OK 2")
			acked[41], acked[42] = 410, 420
			mustReply(t, c, "DEL 7", "OK")
			delete(acked, 7)

			restore := fsys.SetHook(fault(on(tc.op, "wal-", ".seg"), 0))
			t.Cleanup(restore)
			// The first write the fault hits gets an error; its outcome is
			// the one indeterminate key.
			failed := uint64(0)
			for k := uint64(100); failed == 0; k++ {
				if k > 120 {
					t.Fatalf("the %s fault never fired", tc.name)
				}
				switch got := c.cmd(t, fmt.Sprintf("SET %d 1", k)); {
				case got == "OK":
					acked[k] = 1
				case strings.HasPrefix(got, "ERR "):
					failed = k
				default:
					t.Fatalf("SET %d = %q", k, got)
				}
			}

			// Every later write is refused and invisible.
			mustReply(t, c, "SET 500 5", "ERR READONLY ")
			mustReply(t, c, "GET 500", "NIL")
			mustReply(t, c, "SET 1 999", "ERR READONLY ")
			mustReply(t, c, "GET 1", "VALUE 10")
			mustReply(t, c, "DEL 2", "ERR READONLY ")
			mustReply(t, c, "GET 2", "VALUE 20")
			mustReply(t, c, "MPUT 600 1 601 2", "ERR READONLY ")
			if got := c.cmdMulti(t, "MGET 600 601 3"); strings.Join(got, ",") != "NIL,NIL,VALUE 30" {
				t.Fatalf("MGET after wedge = %q", got)
			}

			// Reads keep serving the acked state (plus, possibly, the one
			// write the fault hit).
			served := scanAll(t, c)
			delete(served, failed)
			if len(served) != len(acked) {
				t.Fatalf("serving %d keys, want %d", len(served), len(acked))
			}
			for k, v := range acked {
				if served[k] != v {
					t.Fatalf("acked key %d serves %d, want %d", k, served[k], v)
				}
			}
			mustReply(t, c, "LEN", "VALUE ")
			if st := stats(t, c); st["wal_wedged"] != 1 {
				t.Fatalf("wal_wedged = %d, want 1", st["wal_wedged"])
			}

			// A wedged store publishes and truncates nothing.
			before := dirListing(t, dir)
			if err := srv.dur.Checkpoint(); err == nil {
				t.Fatal("Checkpoint succeeded on a wedged log")
			}
			if after := dirListing(t, dir); after != before {
				t.Fatalf("a refused checkpoint changed the directory:\nbefore:\n%s\nafter:\n%s", before, after)
			}

			// The wedge is sticky: a healthy disk does not clear it.
			restore()
			mustReply(t, c, "SET 501 5", "ERR READONLY ")
			if err := srv.Shutdown(); err == nil {
				t.Fatal("Shutdown of a wedged server reported a clean checkpoint")
			}

			srv2, addr2 := startDurable(t, dir, cfg)
			defer srv2.Shutdown()
			c2 := dial(t, addr2)
			if tc.onDisk {
				acked[failed] = 1
			}
			mustServe(t, c2, acked, "after restart")
			mustReply(t, c2, "SET 700 7", "OK")
			if st := stats(t, c2); st["wal_wedged"] != 0 {
				t.Fatalf("restarted server reports wal_wedged = %d", st["wal_wedged"])
			}
		})
	}
}

// TestCheckpointFaultKeepsServing: an I/O error while writing a base or
// the CHECKPOINT meta fails that one checkpoint. The server stays
// writable, the previous meta and base stay published, the log stays
// untruncated, the next checkpoint succeeds, and a kill after a later
// checkpoint has truncated the log still recovers every acked write.
func TestCheckpointFaultKeepsServing(t *testing.T) {
	for _, tc := range []struct {
		name  string
		match func(fsys.Call) bool
	}{
		{"base-write", on(fsys.OpWrite, "base-", ".tmp")},
		{"base-sync", on(fsys.OpSync, "base-", ".tmp")},
		{"base-rename", on(fsys.OpRename, "base-", ".tmp")},
		{"meta-create", on(fsys.OpCreate, ckptMetaName, ".tmp")},
		{"meta-rename", on(fsys.OpRename, ckptMetaName, ".tmp")},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			cfg := Config{WALSegmentBytes: 256}
			srv, addr := startDurable(t, dir, cfg)
			c := dial(t, addr)
			want := map[uint64]uint64{}
			set := func(lo, hi, mul uint64) {
				for k := lo; k <= hi; k++ {
					mustReply(t, c, fmt.Sprintf("SET %d %d", k, k*mul), "OK")
					want[k] = k * mul
				}
			}
			set(1, 50, 10)
			if err := srv.dur.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			set(30, 80, 11) // the writes the failing checkpoint would cover
			mustReply(t, c, "DEL 5", "OK")
			delete(want, 5)

			metaPath := filepath.Join(dir, ckptMetaName)
			metaBefore, err := os.ReadFile(metaPath)
			if err != nil {
				t.Fatal(err)
			}
			baseBefore, err := os.ReadFile(basePath(dir, 1))
			if err != nil {
				t.Fatal(err)
			}
			logBefore := dirListing(t, filepath.Join(dir, "wal"))
			t.Cleanup(fsys.SetHook(fault(tc.match, 1)))
			if err := srv.dur.Checkpoint(); !errors.Is(err, errDisk) {
				t.Fatalf("checkpoint under a %s fault = %v, want the injected error", tc.name, err)
			}

			// The previous meta and base stay published, the log whole.
			if metaAfter, _ := os.ReadFile(metaPath); string(metaAfter) != string(metaBefore) {
				t.Fatalf("failed checkpoint replaced the meta: %s -> %s", metaBefore, metaAfter)
			}
			if baseAfter, err := os.ReadFile(basePath(dir, 1)); err != nil || !bytes.Equal(baseAfter, baseBefore) {
				t.Fatalf("failed checkpoint changed the published base (%v)", err)
			}
			if logAfter := dirListing(t, filepath.Join(dir, "wal")); logAfter != logBefore {
				t.Fatalf("failed checkpoint changed the log:\nbefore:\n%s\nafter:\n%s", logBefore, logAfter)
			}

			// Still writable, not wedged, and the retry succeeds.
			set(81, 90, 12)
			if st := stats(t, c); st["wal_wedged"] != 0 {
				t.Fatalf("checkpoint fault wedged the log: wal_wedged = %d", st["wal_wedged"])
			}
			if err := srv.dur.Checkpoint(); err != nil {
				t.Fatalf("checkpoint after the fault cleared: %v", err)
			}

			// Push every record written so far out of the log, then
			// die: recovery has only the base for them.
			set(1000, 1020, 1)
			if err := srv.dur.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			c.conn.Close()
			kill(srv)

			srv2, addr2 := startDurable(t, dir, cfg)
			defer srv2.Shutdown()
			c2 := dial(t, addr2)
			if st := stats(t, c2); st["replayed_records"] > 10 {
				t.Fatalf("replayed %d records: the log was not truncated, so this run proves nothing about the base", st["replayed_records"])
			}
			mustServe(t, c2, want, "after kill + restart")
		})
	}
}

// TestShutdownCheckpointCrash: a failed rename in the final checkpoint's
// base write must surface from Shutdown and leave the previous generation
// untouched — the server never replaces good data with a torn file on its
// way down — and a restart recovers every acknowledged write from that
// generation plus the log.
func TestShutdownCheckpointCrash(t *testing.T) {
	dir := t.TempDir()

	// First generation: 50 keys, clean shutdown checkpoint.
	srv1, addr1 := startDurable(t, dir, Config{})
	c1 := dial(t, addr1)
	for k := 1; k <= 50; k++ {
		if got := c1.cmd(t, fmt.Sprintf("SET %d %d", k, k)); got != "OK" {
			t.Fatal(got)
		}
	}
	if err := srv1.Shutdown(); err != nil {
		t.Fatal(err)
	}
	gen := readMeta(t, dir).Generation

	// Second run: more data, but the shutdown checkpoint crashes.
	srv2, addr2 := startDurable(t, dir, Config{})
	c2 := dial(t, addr2)
	if got := c2.cmd(t, "SET 999 1"); got != "OK" {
		t.Fatal(got)
	}
	restore := fsys.SetHook(fault(func(c fsys.Call) bool { return c.Op == fsys.OpRename }, 0))
	err := srv2.Shutdown()
	restore()
	if !errors.Is(err, errDisk) {
		t.Fatalf("crashed shutdown checkpoint not surfaced: %v", err)
	}

	// The published generation is still the first one, fully intact.
	if got := readMeta(t, dir).Generation; got != gen {
		t.Fatalf("meta names generation %d after the crash, want %d", got, gen)
	}
	idx, err := altindex.Load(basePath(dir, gen), altindex.Options{})
	if err != nil {
		t.Fatalf("checkpoint unloadable after crashed shutdown: %v", err)
	}
	defer idx.Close()
	if idx.Len() != 50 {
		t.Fatalf("checkpoint holds %d keys, want 50", idx.Len())
	}
	if _, ok := idx.Get(999); ok {
		t.Fatal("crashed shutdown leaked second-run data into the base")
	}

	// The log still holds the second run's write.
	srv3, addr3 := startDurable(t, dir, Config{})
	defer srv3.Shutdown()
	c3 := dial(t, addr3)
	if got := c3.cmd(t, "GET 999"); got != "VALUE 1" {
		t.Fatalf("GET 999 after recovery = %q", got)
	}
	if got := c3.cmd(t, "LEN"); got != "VALUE 51" {
		t.Fatalf("LEN after recovery = %q", got)
	}
}

// TestCheckpointKeepsWritesMadeDuringPublish: a write acked while a
// checkpoint publishes — its base already written, its meta not yet —
// survives the next recovery. A seam hook stalls the meta's create to
// hold the checkpoint in that window. The checkpoint after it moves the
// recovery LSN past the write's record and truncates the log below it, so
// only that base can carry the write.
func TestCheckpointKeepsWritesMadeDuringPublish(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{WALSegmentBytes: 256}
	srv, addr := startDurable(t, dir, cfg)
	c := dial(t, addr)
	for k := 1; k <= 50; k++ {
		mustReply(t, c, fmt.Sprintf("SET %d %d", k, k), "OK")
	}
	hook, held := stall(on(fsys.OpCreate, ckptMetaName, ".tmp"), 300*time.Millisecond)
	t.Cleanup(fsys.SetHook(hook))
	published := make(chan error, 1)
	go func() { published <- srv.dur.Checkpoint() }()
	<-held
	mustReply(t, c, "SET 7 777", "OK")
	if err := <-published; err != nil {
		t.Fatal(err)
	}
	for k := 1000; k < 1020; k++ {
		mustReply(t, c, fmt.Sprintf("SET %d 1", k), "OK")
	}
	if err := srv.dur.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	c.conn.Close()
	kill(srv)

	srv2, addr2 := startDurable(t, dir, cfg)
	defer srv2.Shutdown()
	c2 := dial(t, addr2)
	if st := stats(t, c2); st["replayed_records"] > 10 {
		t.Fatalf("replayed %d records: the log was not truncated, so this run proves nothing about the base", st["replayed_records"])
	}
	if got := c2.cmd(t, "GET 7"); got != "VALUE 777" {
		t.Fatalf("GET 7 after recovery = %q, want the value acked during the publish", got)
	}
}
