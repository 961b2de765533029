//go:build failpoint

package server

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"altindex/internal/failpoint"
)

// Storage-fault contract of the durable store (DESIGN.md §8): a fault on
// the log side wedges the server read-only; a fault on the checkpoint side
// costs one checkpoint and nothing else.

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

// TestLogFaultWedgesReadOnly: an I/O error on append, fsync or rotate
// fails the write it hits; from then on every write is refused with ERR
// READONLY before it touches the index, reads keep serving the acked
// state, checkpoints change nothing on disk, and a restart recovers what
// the log holds.
func TestLogFaultWedgesReadOnly(t *testing.T) {
	for _, tc := range []struct {
		site string
		// onDisk: the failing write's record reached the segment before
		// the fault (the fsync edge), so recovery replays it.
		onDisk bool
	}{
		{"wal/append", false},
		{"wal/sync", true},
		{"wal/rotate", false},
	} {
		t.Run(tc.site, func(t *testing.T) {
			defer failpoint.DisableAll()
			dir := t.TempDir()
			// Seven single-SET records fill a 256-byte segment, so the
			// rotate site is reached within a few writes of arming it.
			cfg := Config{WALSegmentBytes: 256}
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

			if err := failpoint.Enable(tc.site, "error(disk gone)"); err != nil {
				t.Fatal(err)
			}
			// The first write the fault hits gets an error; its outcome is
			// the one indeterminate key.
			failed := uint64(0)
			for k := uint64(100); failed == 0; k++ {
				if k > 120 {
					t.Fatalf("%s never fired", tc.site)
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
			failpoint.DisableAll()
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
// untruncated, the next checkpoint succeeds, and a kill after a later checkpoint has truncated
// the log still recovers every acked write.
func TestCheckpointFaultKeepsServing(t *testing.T) {
	for _, tc := range []struct{ site, spec string }{
		{"altdb/checkpoint/publish", "1*error(disk full)"},
		{"snapio/flush", "1*error(disk full)"},
		{"snapio/sync", "1*error(disk full)"},
		{"snapio/rename", "1*error(disk full)"},
		// Second snapio write of the checkpoint: the meta itself.
		{"snapio/rename", "1*off->1*error(disk full)"},
	} {
		t.Run(tc.site+"/"+tc.spec, func(t *testing.T) {
			defer failpoint.DisableAll()
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
			if err := failpoint.Enable(tc.site, tc.spec); err != nil {
				t.Fatal(err)
			}
			if err := srv.dur.Checkpoint(); !errors.Is(err, failpoint.ErrInjected) {
				t.Fatalf("checkpoint under %s = %v, want the injected error", tc.site, err)
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
