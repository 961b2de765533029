//go:build failpoint

package server

import (
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

// mustReply fails the test unless line's reply starts with prefix.
func mustReply(t *testing.T, c *client, line, prefix string) {
	t.Helper()
	if got := c.cmd(t, line); !strings.HasPrefix(got, prefix) {
		t.Fatalf("%s = %q, want %q...", line, got, prefix)
	}
}

// scanAll returns the served keyspace as SCAN reports it.
func scanAll(t *testing.T, c *client) map[uint64]uint64 {
	t.Helper()
	got := map[uint64]uint64{}
	for _, line := range c.cmdMulti(t, "SCAN 0 10000") {
		var k, v uint64
		if _, err := fmt.Sscanf(line, "PAIR %d %d", &k, &v); err != nil {
			t.Fatalf("bad SCAN line %q", line)
		}
		got[k] = v
	}
	return got
}

// mustServe fails the test unless the served keyspace is exactly want.
func mustServe(t *testing.T, c *client, want map[uint64]uint64, when string) {
	t.Helper()
	got := scanAll(t, c)
	for k, v := range want {
		if gv, ok := got[k]; !ok || gv != v {
			t.Errorf("%s: key %d = (%d, %v), want %d", when, k, gv, ok, v)
		}
	}
	for k, v := range got {
		if _, ok := want[k]; !ok {
			t.Errorf("%s: ghost key %d = %d", when, k, v)
		}
	}
	if t.Failed() {
		t.FailNow()
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
			if err := srv.dur.Compact(); err == nil {
				t.Fatal("Compact succeeded on a wedged log")
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

// kill stops srv the way a process death would: no shutdown compaction,
// so the directory holds only what the checkpoints and the log put there.
func kill(srv *Server) {
	srv.co.Close()
	srv.dur.log.Close()
}

// TestCheckpointFaultKeepsServing: an I/O error while writing a delta, a
// base or the CHECKPOINT meta fails that one checkpoint. The server stays
// writable, the published chain is untouched, the drained keys are
// re-marked, the next checkpoint succeeds, and a kill after the log has
// been truncated still recovers every acked write.
func TestCheckpointFaultKeepsServing(t *testing.T) {
	ops := map[string]func(*durableStore) error{
		"checkpoint": (*durableStore).Checkpoint,
		"compact":    (*durableStore).Compact,
	}
	for _, tc := range []struct{ site, spec string }{
		{"altdb/checkpoint/publish", "1*error(disk full)"},
		{"snapio/flush", "1*error(disk full)"},
		{"snapio/sync", "1*error(disk full)"},
		{"snapio/rename", "1*error(disk full)"},
		// Second snapio write of the checkpoint: the meta itself.
		{"snapio/rename", "1*off->1*error(disk full)"},
	} {
		for opName, op := range ops {
			t.Run(opName+"/"+tc.site+"/"+tc.spec, func(t *testing.T) {
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
				set(30, 80, 11) // the dirty set of the checkpoint that fails
				mustReply(t, c, "DEL 5", "OK")
				delete(want, 5)

				metaPath := filepath.Join(dir, ckptMetaName)
				metaBefore, err := os.ReadFile(metaPath)
				if err != nil {
					t.Fatal(err)
				}
				if err := failpoint.Enable(tc.site, tc.spec); err != nil {
					t.Fatal(err)
				}
				if err := op(srv.dur); !errors.Is(err, failpoint.ErrInjected) {
					t.Fatalf("%s under %s = %v, want the injected error", opName, tc.site, err)
				}

				// Previous chain intact, drained keys back in the set.
				if metaAfter, _ := os.ReadFile(metaPath); string(metaAfter) != string(metaBefore) {
					t.Fatalf("failed %s replaced the meta: %s -> %s", opName, metaBefore, metaAfter)
				}
				if _, err := os.Stat(deltaPath(dir, 0, 1)); err != nil {
					t.Fatalf("published delta gone: %v", err)
				}
				srv.dur.dmu.Lock()
				for k := uint64(30); k <= 80; k++ {
					if _, ok := srv.dur.dirty[k]; !ok {
						t.Errorf("key %d not re-marked dirty", k)
					}
				}
				_, ok := srv.dur.dirty[5]
				srv.dur.dmu.Unlock()
				if !ok {
					t.Error("deleted key 5 not re-marked dirty")
				}

				// Still writable, not wedged, and the retry succeeds.
				set(81, 90, 12)
				if st := stats(t, c); st["wal_wedged"] != 0 {
					t.Fatalf("checkpoint fault wedged the log: wal_wedged = %d", st["wal_wedged"])
				}
				if err := op(srv.dur); err != nil {
					t.Fatalf("%s after the fault cleared: %v", opName, err)
				}

				// Push every record written so far out of the log, then
				// die: recovery has only the checkpoint chain for them.
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
					t.Fatalf("replayed %d records: the log was not truncated, so this run proves nothing about the chain", st["replayed_records"])
				}
				mustServe(t, c2, want, "after kill + restart")
			})
		}
	}
}
