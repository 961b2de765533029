//go:build failpoint

package server

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"altindex"
	"altindex/internal/failpoint"
)

// TestPanicContainment: a handler that panics mid-dispatch must cost only
// its own connection — the client sees a structured INTERNAL error and a
// closed socket, every other connection keeps working, and the process
// survives.
func TestPanicContainment(t *testing.T) {
	defer failpoint.DisableAll()
	_, addr := startServerWith(t, Config{})

	bystander := dial(t, addr)
	if got := bystander.cmd(t, "SET 1 10"); got != "OK" {
		t.Fatal(got)
	}

	victim := dial(t, addr)
	if err := failpoint.Enable("altdb/dispatch", "1*panic"); err != nil {
		t.Fatal(err)
	}
	got := victim.cmd(t, "GET 1")
	if !strings.HasPrefix(got, "ERR "+errInternal) {
		t.Fatalf("panicking dispatch replied %q, want ERR %s ...", got, errInternal)
	}
	victim.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if victim.r.Scan() {
		t.Fatalf("victim connection stayed open after panic: %q", victim.r.Text())
	}

	// The bystander and fresh dials are unaffected (the 1* program has
	// exhausted and self-disarmed).
	if got := bystander.cmd(t, "GET 1"); got != "VALUE 10" {
		t.Fatalf("bystander after panic = %q", got)
	}
	fresh := dial(t, addr)
	if got := fresh.cmd(t, "LEN"); got != "VALUE 1" {
		t.Fatalf("fresh client after panic = %q", got)
	}
}

// TestShutdownCheckpointCrash: a crash injected into the final checkpoint's
// base write must surface from Shutdown and leave the previous generation
// untouched — the server never replaces good data with a torn file on its
// way down — and a restart recovers every acknowledged write from that
// generation plus the log.
func TestShutdownCheckpointCrash(t *testing.T) {
	defer failpoint.DisableAll()
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
	if err := failpoint.Enable("snapio/rename", "error(kill -9)"); err != nil {
		t.Fatal(err)
	}
	err := srv2.Shutdown()
	failpoint.Disable("snapio/rename")
	if !errors.Is(err, failpoint.ErrInjected) {
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

// TestCompactionKeepsWritesMadeDuringPublish: a write acked after a
// compaction saved its base but before the compaction finished must still
// be in the next delta checkpoint. The publish failpoint holds the
// compaction in that window; the delta checkpoint afterwards moves the
// recovery LSN past the write's record, so only the delta can carry it.
func TestCompactionKeepsWritesMadeDuringPublish(t *testing.T) {
	defer failpoint.DisableAll()
	dir := t.TempDir()
	srv, addr := startDurable(t, dir, Config{})
	c := dial(t, addr)
	for k := 1; k <= 50; k++ {
		if got := c.cmd(t, fmt.Sprintf("SET %d %d", k, k)); got != "OK" {
			t.Fatalf("SET = %q", got)
		}
	}
	const site = "altdb/checkpoint/publish"
	if err := failpoint.Enable(site, "1*delay(300ms)"); err != nil {
		t.Fatal(err)
	}
	compacted := make(chan error, 1)
	go func() { compacted <- srv.dur.Compact() }()
	for failpoint.Hits(site) == 0 {
		time.Sleep(time.Millisecond)
	}
	// The base is on disk and the write gate is open again.
	if got := c.cmd(t, "SET 7 777"); got != "OK" {
		t.Fatalf("SET during publish = %q", got)
	}
	if err := <-compacted; err != nil {
		t.Fatal(err)
	}
	if err := srv.dur.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	// Abandon the server (no Shutdown) and recover.
	srv2, addr2 := startDurable(t, dir, Config{})
	defer srv2.Shutdown()
	if got := dial(t, addr2).cmd(t, "GET 7"); got != "VALUE 777" {
		t.Fatalf("GET 7 after recovery = %q, want the value acked during the compaction", got)
	}
}
