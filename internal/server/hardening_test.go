package server

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"altindex"
	"altindex/internal/snapio"
)

// startServerWith runs a configured server on an ephemeral port.
func startServerWith(t *testing.T, cfg Config) (*Server, net.Addr) {
	t.Helper()
	srv, err := NewServerWith(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return srv, serve(t, srv)
}

// serve runs srv on an ephemeral port.
func serve(t *testing.T, srv *Server) net.Addr {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go srv.Serve(ln)
	return ln.Addr()
}

// TestStructuredErrors pins the machine-parseable ERR grammar: the second
// token is a stable code, so clients switch on it instead of matching prose.
func TestStructuredErrors(t *testing.T) {
	_, addr := startServerWith(t, Config{})
	c := dial(t, addr)

	var big strings.Builder
	big.WriteString("MGET")
	for i := 0; i <= maxBatch; i++ {
		fmt.Fprintf(&big, " %d", i)
	}
	for _, tc := range []struct {
		line, code string
	}{
		{"SET x 1", errBadInt},
		{"SET 1 x", errBadInt},
		{"MGET 1 nope 3", errBadInt},
		{"SCAN 0 many", errBadInt},
		{"MPUT 1 2 3", errUsage},
		{"SET 1", errUsage},
		{"FLY 1", errUnknown},
		{big.String(), errTooBig},
	} {
		got := c.cmd(t, tc.line)
		fields := strings.Fields(got)
		if len(fields) < 2 || fields[0] != "ERR" || fields[1] != tc.code {
			t.Errorf("%.40q -> %.60q, want ERR %s ...", tc.line, got, tc.code)
		}
	}
	// The connection is still usable after every structured error.
	if got := c.cmd(t, "SET 7 70"); got != "OK" {
		t.Fatalf("SET after errors = %q", got)
	}

	// An oversized MPUT is also refused with TOOBIG, and the max-size one
	// is accepted — the scanner buffer must fit it.
	var mput strings.Builder
	mput.WriteString("MPUT")
	for i := 0; i < maxBatch; i++ {
		fmt.Fprintf(&mput, " %d %d", 1e12+i, i)
	}
	if got := c.cmd(t, mput.String()); got != fmt.Sprintf("OK %d", maxBatch) {
		t.Fatalf("max-size MPUT = %.60q", got)
	}
	fmt.Fprintf(&mput, " %d %d", int64(1e13), 1)
	if got := c.cmd(t, mput.String()); !strings.HasPrefix(got, "ERR "+errTooBig) {
		t.Fatalf("oversized MPUT = %.60q", got)
	}
}

// TestLineTooLong: a request line past the scanner's cap gets a structured
// TOOLONG reply and the connection is dropped (the stream cannot resync).
func TestLineTooLong(t *testing.T) {
	_, addr := startServerWith(t, Config{})
	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	junk := strings.Repeat("a", maxLineBytes+16)
	if _, err := fmt.Fprintf(conn, "%s\n", junk); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	r := bufio.NewScanner(conn)
	if !r.Scan() {
		t.Fatalf("no TOOLONG reply: %v", r.Err())
	}
	if got := r.Text(); !strings.HasPrefix(got, "ERR "+errTooLong) {
		t.Fatalf("reply = %q, want ERR %s ...", got, errTooLong)
	}
	if r.Scan() {
		t.Fatalf("connection stayed open after TOOLONG: %q", r.Text())
	}
}

// TestConnectionCapBackpressure: with MaxConns slots busy, 2× the cap of
// extra dials must neither error nor be served — they wait in the accept
// backlog — and all of them are served as slots free up.
func TestConnectionCapBackpressure(t *testing.T) {
	const cap = 2
	_, addr := startServerWith(t, Config{MaxConns: cap})

	// Fill every slot with an active client.
	holders := make([]*client, cap)
	for i := range holders {
		holders[i] = dial(t, addr)
		if got := holders[i].cmd(t, "LEN"); got != "VALUE 0" {
			t.Fatalf("holder %d: %q", i, got)
		}
	}

	// 2× the cap of further dials: TCP connects (backlog) but none get a
	// handler while the slots are held.
	waiters := make([]net.Conn, 2*cap)
	for i := range waiters {
		conn, err := net.Dial("tcp", addr.String())
		if err != nil {
			t.Fatalf("backlogged dial %d refused: %v", i, err)
		}
		defer conn.Close()
		waiters[i] = conn
		// Send now; the reply arrives once a slot frees. QUIT closes the
		// server side afterwards, freeing the slot for the next waiter.
		fmt.Fprintf(conn, "LEN\nQUIT\n")
	}
	// Probe with a raw read (a Scanner would be poisoned by the expected
	// timeout): no byte may arrive while every slot is held.
	waiters[0].SetReadDeadline(time.Now().Add(300 * time.Millisecond))
	if n, err := waiters[0].Read(make([]byte, 1)); err == nil || n > 0 {
		t.Fatalf("waiter served while all slots busy (n=%d, err=%v)", n, err)
	} else if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("probe read: %v, want deadline timeout", err)
	}

	// Release the held slots; every waiter must now be served in turn.
	for _, h := range holders {
		h.cmd(t, "QUIT")
	}
	for i, conn := range waiters {
		conn.SetReadDeadline(time.Now().Add(10 * time.Second))
		r := bufio.NewScanner(conn)
		if !r.Scan() || r.Text() != "VALUE 0" {
			t.Fatalf("waiter %d reply = %q (%v)", i, r.Text(), r.Err())
		}
		if !r.Scan() || r.Text() != "BYE" {
			t.Fatalf("waiter %d BYE = %q (%v)", i, r.Text(), r.Err())
		}
	}
}

// TestStalledReader: a client that stops draining its socket while the
// server streams a large response must be disconnected by the write
// deadline instead of pinning the handler forever — and the server must
// keep serving other clients throughout.
func TestStalledReader(t *testing.T) {
	srv, addr := startServerWith(t, Config{WriteTimeout: 150 * time.Millisecond})

	seed := dial(t, addr)
	var mput strings.Builder
	for base := 0; base < 12000; base += 4000 {
		mput.Reset()
		mput.WriteString("MPUT")
		for i := 0; i < 4000; i++ {
			fmt.Fprintf(&mput, " %d %d", base+i+1, i)
		}
		if got := seed.cmd(t, mput.String()); !strings.HasPrefix(got, "OK") {
			t.Fatalf("seed: %q", got)
		}
	}

	// The 64 replies below are about 10 MB of PAIR lines. Flushing at
	// outHighWater and the write deadline must keep the server from
	// buffering them, so the heap stays within stallHeapBound across the
	// stall.
	heapGrowth := sampleHeapGrowth()
	stalled, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer stalled.Close()
	if tc, ok := stalled.(*net.TCPConn); ok {
		tc.SetReadBuffer(4096) // shrink the client-side sink so the server's writes actually block
	}
	// Ask for far more data than the socket buffers can hold, then stall.
	for i := 0; i < 64; i++ {
		fmt.Fprintf(stalled, "SCAN 0 10000\n")
	}
	time.Sleep(600 * time.Millisecond) // several write-deadline periods
	grew := heapGrowth()
	t.Logf("HeapInuse grew by at most %d KiB across the stall", grew>>10)
	if grew > stallHeapBound && !raceEnabled {
		t.Fatalf("HeapInuse grew by %d KiB across the stall, want <= %d KiB", grew>>10, stallHeapBound>>10)
	}

	// A fresh client is served while the stalled one is being evicted.
	live := dial(t, addr)
	if got := live.cmd(t, "LEN"); got != "VALUE 12000" {
		t.Fatalf("live client during stall: %q", got)
	}

	// The write deadline must have evicted the stalled handler, leaving the
	// seed and live connections. Asked of the server, not of the stalled
	// socket: after the close the kernel still owes the client the megabytes
	// in the send buffer, and through a 4KiB receive window (zero-window
	// probes backing off) that drain can outlast any test timeout.
	for deadline := time.Now().Add(10 * time.Second); len(srv.snapshotConns()) > 2; {
		if time.Now().After(deadline) {
			t.Fatal("stalled handler still pinned long after the write deadline")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// stallHeapBound caps TestStalledReader's heap growth: well below the
// ~10 MB that buffering all 64 SCAN replies would take (with outHighWater
// lifted the test sees 11-26 MiB), and over ten times the 0-392 KiB the
// stall costs with it. Not checked under -race (see raceEnabled).
const stallHeapBound = 4 << 20

// sampleHeapGrowth samples HeapInuse every millisecond from a baseline
// taken after a collection. The returned function stops the sampler and
// returns the largest growth it saw.
func sampleHeapGrowth() func() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	base, peak := ms.HeapInuse, ms.HeapInuse
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		var ms runtime.MemStats
		for {
			runtime.ReadMemStats(&ms)
			peak = max(peak, ms.HeapInuse)
			select {
			case <-stop:
				return
			case <-time.After(time.Millisecond):
			}
		}
	}()
	return func() uint64 {
		close(stop)
		<-done
		return peak - base
	}
}

// TestGracefulShutdownSnapshot: Shutdown drains in-flight connections and
// compacts every acknowledged write into one base snapshot, which the next
// start loads without replaying the log.
func TestGracefulShutdownSnapshot(t *testing.T) {
	dir := t.TempDir()
	srv, addr := startDurable(t, dir, Config{})
	c := dial(t, addr)
	for k := 1; k <= 200; k++ {
		if got := c.cmd(t, fmt.Sprintf("SET %d %d", k, k*5)); got != "OK" {
			t.Fatalf("SET %d = %q", k, got)
		}
	}
	if err := srv.Shutdown(); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}

	meta := readMeta(t, dir)
	if meta.Generation < 1 {
		t.Fatalf("meta after shutdown = %+v, want a base", meta)
	}
	idx, err := altindex.Load(basePath(dir, meta.Generation), altindex.Options{})
	if err != nil {
		t.Fatalf("shutdown base unloadable: %v", err)
	}
	defer idx.Close()
	if idx.Len() != 200 {
		t.Fatalf("base holds %d keys, want 200", idx.Len())
	}
	for k := uint64(1); k <= 200; k++ {
		if v, ok := idx.Get(k); !ok || v != k*5 {
			t.Fatalf("base key %d = (%d,%v)", k, v, ok)
		}
	}

	// A new server over the same directory serves the base alone.
	srv2, addr2 := startDurable(t, dir, Config{})
	defer srv2.Shutdown()
	c2 := dial(t, addr2)
	if got := c2.cmd(t, "GET 17"); got != "VALUE 85" {
		t.Fatalf("restarted GET = %q", got)
	}
	if got := c2.cmd(t, "LEN"); got != "VALUE 200" {
		t.Fatalf("restarted LEN = %q", got)
	}
	if st := stats(t, c2); st["replayed_records"] != 0 {
		t.Fatalf("replayed_records = %d after a clean shutdown, want 0", st["replayed_records"])
	}
}

// retrainWorkers counts the goroutines labelled task=retrain-worker. The
// debug=1 goroutine profile groups goroutines with equal stacks and labels
// into records separated by blank lines, each led by its count.
func retrainWorkers(t *testing.T) int {
	t.Helper()
	var buf bytes.Buffer
	if err := pprof.Lookup("goroutine").WriteTo(&buf, 1); err != nil {
		t.Fatal(err)
	}
	_, body, _ := strings.Cut(buf.String(), "\n") // "goroutine profile: total N"
	n := 0
	for _, rec := range strings.Split(body, "\n\n") {
		if strings.Contains(rec, `"task":"retrain-worker"`) {
			var count int
			if _, err := fmt.Sscanf(rec, "%d @", &count); err != nil {
				t.Fatalf("goroutine record %.60q: %v", rec, err)
			}
			n += count
		}
	}
	return n
}

// TestShutdownStopsRetraining: Shutdown reaps the index's retraining
// workers, in memory and in durable mode. An index that was never
// bulkloaded starts them when its first training triggers, at the 1,025th
// key.
func TestShutdownStopsRetraining(t *testing.T) {
	for _, durable := range []bool{false, true} {
		t.Run(fmt.Sprintf("durable=%v", durable), func(t *testing.T) {
			before := retrainWorkers(t)
			var srv *Server
			var addr net.Addr
			if durable {
				srv, addr = startDurable(t, t.TempDir(), Config{})
			} else {
				srv, addr = startServerWith(t, Config{})
			}
			c := dial(t, addr)
			var mput strings.Builder
			for base := 0; base < 2000; base += 500 {
				mput.Reset()
				mput.WriteString("MPUT")
				for k := base; k < base+500; k++ {
					fmt.Fprintf(&mput, " %d %d", k, k)
				}
				if got := c.cmd(t, mput.String()); got != "OK 500" {
					t.Fatalf("MPUT = %q", got)
				}
			}
			srv.idx.Quiesce()
			if retrainWorkers(t) <= before {
				t.Fatal("2,000 keys started no retraining worker")
			}
			if err := srv.Shutdown(); err != nil {
				t.Fatal(err)
			}
			// Close waits for the workers, which may still be unwinding.
			for deadline := time.Now().Add(5 * time.Second); retrainWorkers(t) != before; {
				if time.Now().After(deadline) {
					t.Fatalf("%d retraining workers outlived Shutdown", retrainWorkers(t)-before)
				}
				time.Sleep(time.Millisecond)
			}
		})
	}
}

// TestStartupRefusesCorruptSnapshot: serving silently-empty or stale data
// over a corrupt checkpoint would be a stale-read machine. A durable server
// must refuse to start when its base snapshot or the CHECKPOINT meta fails
// its checksum.
func TestStartupRefusesCorruptSnapshot(t *testing.T) {
	for _, tc := range []struct {
		name string
		file func(dir string) string
		want error
	}{
		{"base", func(dir string) string { return basePath(dir, 1) }, altindex.ErrBadSnapshot},
		{"checkpoint", func(dir string) string { return filepath.Join(dir, ckptMetaName) }, snapio.ErrCorrupt},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			srv, addr := startDurable(t, dir, Config{})
			c := dial(t, addr)
			if got := c.cmd(t, "MPUT 1 10 2 20 3 30"); got != "OK 3" {
				t.Fatalf("MPUT = %q", got)
			}
			if err := srv.dur.Checkpoint(); err != nil { // base 1
				t.Fatal(err)
			}
			// Abandon the server, so no shutdown checkpoint replaces the
			// two files.
			path := tc.file(dir)
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			raw[len(raw)/2] ^= 0x20
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := NewServerWith(Config{WALDir: dir, CheckpointInterval: -1}); !errors.Is(err, tc.want) {
				t.Fatalf("corrupt %s at startup: %v, want %v", tc.name, err, tc.want)
			}
		})
	}
}
