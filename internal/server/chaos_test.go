//go:build failpoint

package server

import (
	"strings"
	"testing"
	"time"

	"altindex/internal/indextest"
)

// TestPanicContainment: a handler that panics mid-dispatch must cost only
// its own connection — the client sees a structured INTERNAL error and a
// closed socket, every other connection keeps working, and the process
// survives.
func TestPanicContainment(t *testing.T) {
	_, addr := startServerWith(t, Config{})

	bystander := dial(t, addr)
	if got := bystander.cmd(t, "SET 1 10"); got != "OK" {
		t.Fatal(got)
	}

	victim := dial(t, addr)
	indextest.Arm(t, indextest.Schedule{"altdb/dispatch": func(n int64) {
		if n == 1 {
			panic("failpoint: altdb/dispatch")
		}
	}})
	got := victim.cmd(t, "GET 1")
	if !strings.HasPrefix(got, "ERR "+errInternal) {
		t.Fatalf("panicking dispatch replied %q, want ERR %s ...", got, errInternal)
	}
	victim.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if victim.r.Scan() {
		t.Fatalf("victim connection stayed open after panic: %q", victim.r.Text())
	}

	// The bystander and fresh dials are unaffected (only the first
	// dispatch panics).
	if got := bystander.cmd(t, "GET 1"); got != "VALUE 10" {
		t.Fatalf("bystander after panic = %q", got)
	}
	fresh := dial(t, addr)
	if got := fresh.cmd(t, "LEN"); got != "VALUE 1" {
		t.Fatalf("fresh client after panic = %q", got)
	}
}
