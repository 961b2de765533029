package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"net"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"altindex"
	"altindex/internal/core"
	"altindex/internal/failpoint"
	"altindex/internal/snapio"
	"altindex/internal/wal"
	"altindex/internal/xrand"
)

// startDurable runs a server backed by a WAL directory; checkpoints are
// driven explicitly by the tests (negative interval disables the loop).
func startDurable(t *testing.T, dir string, cfg Config) (*Server, net.Addr) {
	t.Helper()
	cfg.WALDir = dir
	if cfg.CheckpointInterval == 0 {
		cfg.CheckpointInterval = -1
	}
	return startServerWith(t, cfg)
}

// readMeta decodes dir's CHECKPOINT meta.
func readMeta(t *testing.T, dir string) ckptMeta {
	t.Helper()
	raw, err := snapio.ReadFile(filepath.Join(dir, ckptMetaName))
	if err != nil {
		t.Fatal(err)
	}
	var meta ckptMeta
	if err := json.Unmarshal(raw, &meta); err != nil {
		t.Fatal(err)
	}
	return meta
}

// TestDurableServerRecoversWrites: acked SET/MPUT/DEL survive shutdown
// and a full restart, round-tripping through the WAL + checkpoint files.
func TestDurableServerRecoversWrites(t *testing.T) {
	dir := t.TempDir()
	srv, addr := startDurable(t, dir, Config{})
	c := dial(t, addr)
	for k := 1; k <= 200; k++ {
		if got := c.cmd(t, fmt.Sprintf("SET %d %d", k, k*10)); got != "OK" {
			t.Fatalf("SET %d = %q", k, got)
		}
	}
	var sb strings.Builder
	sb.WriteString("MPUT")
	for k := 201; k <= 260; k++ {
		fmt.Fprintf(&sb, " %d %d", k, k*10)
	}
	if got := c.cmd(t, sb.String()); got != "OK 60" {
		t.Fatalf("MPUT = %q", got)
	}
	for k := 1; k <= 200; k += 7 {
		if got := c.cmd(t, fmt.Sprintf("DEL %d", k)); got != "OK" {
			t.Fatalf("DEL %d = %q", k, got)
		}
	}
	if err := srv.Shutdown(); err != nil {
		t.Fatal(err)
	}

	srv2, addr2 := startDurable(t, dir, Config{})
	defer srv2.Shutdown()
	c2 := dial(t, addr2)
	for k := 1; k <= 260; k++ {
		want := fmt.Sprintf("VALUE %d", k*10)
		if k <= 200 && (k-1)%7 == 0 {
			want = "NIL"
		}
		if got := c2.cmd(t, fmt.Sprintf("GET %d", k)); got != want {
			t.Fatalf("after restart GET %d = %q, want %q", k, got, want)
		}
	}
}

// TestDurableServerKillRecovery: a server killed without any shutdown
// (listener dropped, WAL left mid-generation) recovers every acked write
// from the log alone.
func TestDurableServerKillRecovery(t *testing.T) {
	dir := t.TempDir()
	_, addr := startDurable(t, dir, Config{})
	c := dial(t, addr)
	for k := 1; k <= 150; k++ {
		if got := c.cmd(t, fmt.Sprintf("SET %d %d", k, k+7)); got != "OK" {
			t.Fatalf("SET = %q", got)
		}
	}
	// No Shutdown: simulate the process dying by abandoning the server.
	// (The OS-level kill -9 version lives in the crash-matrix harness.)

	srv2, addr2 := startDurable(t, dir, Config{})
	defer srv2.Shutdown()
	c2 := dial(t, addr2)
	if got := c2.cmd(t, "LEN"); got != "VALUE 150" {
		t.Fatalf("LEN after recovery = %q", got)
	}
	st := stats(t, c2)
	if st["replayed_records"] != 150 {
		t.Fatalf("replayed_records = %d, want 150", st["replayed_records"])
	}
}

// TestDurableCheckpointBoundsReplay: each checkpoint publishes one full
// base under the next generation, removes the previous one and moves the
// recovery LSN, so a restart replays only the log written after the last
// checkpoint.
func TestDurableCheckpointBoundsReplay(t *testing.T) {
	dir := t.TempDir()
	srv, addr := startDurable(t, dir, Config{})
	c := dial(t, addr)
	const rounds = 10
	for round := 0; round < rounds; round++ {
		for k := 0; k < 50; k++ {
			key := round*50 + k
			if got := c.cmd(t, fmt.Sprintf("SET %d %d", key, key)); got != "OK" {
				t.Fatalf("SET = %q", got)
			}
		}
		if err := srv.dur.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if st := stats(t, c); st["checkpoint_generation"] != int64(round+1) {
			t.Fatalf("checkpoint_generation = %d after %d checkpoints", st["checkpoint_generation"], round+1)
		}
		if got := baseFiles(t, dir); !slices.Equal(got, []string{filepath.Base(basePath(dir, round+1))}) {
			t.Fatalf("after checkpoint %d the directory holds %v, want only its base", round+1, got)
		}
	}

	// Kill (abandon) and recover: replay must cover only the tail after
	// the last checkpoint.
	for k := 2000; k < 2010; k++ {
		if got := c.cmd(t, fmt.Sprintf("SET %d 1", k)); got != "OK" {
			t.Fatal(got)
		}
	}
	srv2, addr2 := startDurable(t, dir, Config{})
	defer srv2.Shutdown()
	c2 := dial(t, addr2)
	st2 := stats(t, c2)
	if st2["replayed_records"] != 10 {
		t.Fatalf("replayed_records after checkpoints = %d, want 10", st2["replayed_records"])
	}
	if got := c2.cmd(t, "LEN"); got != fmt.Sprintf("VALUE %d", rounds*50+10) {
		t.Fatalf("LEN = %q", got)
	}
}

// writeFramed writes payload to path in a snapio frame, as the store
// frames its own files.
func writeFramed(t *testing.T, path string, payload []byte) {
	t.Helper()
	if err := snapio.WriteFile(path, func(w io.Writer) error {
		_, err := w.Write(payload)
		return err
	}); err != nil {
		t.Fatal(err)
	}
}

// baseFiles lists dir's base files.
func baseFiles(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), "base-") {
			out = append(out, e.Name())
		}
	}
	return out
}

// TestDurableCheckpointUnderGets: checkpoints walk the index into a base
// while GETs read keys that live in ART behind tombstones. A GET writes
// nothing, so the walk misses no key: every Checkpoint succeeds, and a
// restart from the abandoned server's directory returns LEN and every
// acknowledged key. (When a GET wrote such a key back from ART into its
// slot, it could do so between the walk's learned read and its ART read,
// and the walk missed the key.)
func TestDurableCheckpointUnderGets(t *testing.T) {
	const (
		n        = 20000
		rounds   = 48
		perRound = 64 // slot occupants removed per round
		readers  = 4
	)
	val := func(k uint64) uint64 { return k*3 + 1 }
	dir := t.TempDir()
	srv, addr := startDurable(t, dir, Config{})
	c := dial(t, addr)

	// Grow the index by inserts, as a fresh altdb does: after its
	// trainings most keys are ART-resident behind learned slots.
	rng := xrand.New(31)
	live := make(map[uint64]bool, n)
	var sb strings.Builder
	for len(live) < n {
		sb.Reset()
		sb.WriteString("MPUT")
		for i := 0; i < 1000; i++ {
			k := rng.Next() >> 1
			live[k] = true
			fmt.Fprintf(&sb, " %d %d", k, val(k))
		}
		if got := c.cmd(t, sb.String()); got != "OK 1000" {
			t.Fatalf("MPUT = %q", got)
		}
	}
	srv.idx.Quiesce()
	alt, ok := srv.idx.(*core.ALT)
	if !ok {
		t.Fatalf("index is %T, want *core.ALT", srv.idx)
	}
	sorted := slices.Sorted(maps.Keys(live))
	inART := make([]bool, len(sorted))
	for i, k := range sorted {
		_, inART[i] = alt.ARTLookupLength(k, false)
	}

	// Each round removes perRound slot occupants and then GETs the ART
	// keys next to them in key order: those are the likeliest to predict
	// to the occupants' slots, behind the fresh tombstones.
	type round struct{ del, get []uint64 }
	var plan []round
	for i := 0; i < len(sorted) && len(plan) < rounds; {
		var rd round
		for ; i < len(sorted) && len(rd.del) < perRound; i++ {
			if inART[i] {
				continue
			}
			var near []uint64
			for j := i - 1; j >= 0 && inART[j] && i-j <= 4; j-- {
				near = append(near, sorted[j])
			}
			for j := i + 1; j < len(sorted) && inART[j] && j-i <= 4; j++ {
				near = append(near, sorted[j])
			}
			if len(near) > 0 {
				rd.del = append(rd.del, sorted[i])
				rd.get = append(rd.get, near...)
			}
		}
		plan = append(plan, rd)
	}
	if len(plan) < rounds {
		t.Fatalf("only %d rounds of occupants with ART neighbours among %d keys", len(plan), n)
	}

	// Readers start each round's GETs at a random offset of up to 4 ms, so
	// they spread over the checkpoint that follows the removals.
	work := make([]chan []uint64, readers)
	done := make(chan error, readers)
	for r := range work {
		conn, err := net.Dial("tcp", addr.String())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		cl := clientOf(conn)
		work[r] = make(chan []uint64)
		defer close(work[r])
		go func(jitter *xrand.Rng) {
			for keys := range work[r] {
				time.Sleep(time.Duration(jitter.Intn(4000)) * time.Microsecond)
				var err error
				for _, k := range keys {
					if got, cerr := cl.cmdE(fmt.Sprintf("GET %d", k)); cerr != nil || got != fmt.Sprintf("VALUE %d", val(k)) {
						err = fmt.Errorf("GET %d = %q, %v", k, got, cerr)
						break
					}
				}
				done <- err
			}
		}(xrand.New(uint64(r) + 1))
	}
	for ri, rd := range plan {
		for _, k := range rd.del {
			if got := c.cmd(t, fmt.Sprintf("DEL %d", k)); got != "OK" {
				t.Fatalf("DEL %d = %q", k, got)
			}
			delete(live, k)
		}
		for r, w := range work {
			var share []uint64
			for j := r; j < len(rd.get); j += readers {
				share = append(share, rd.get[j])
			}
			w <- share
		}
		if err := srv.dur.Checkpoint(); err != nil {
			t.Fatalf("round %d: Checkpoint under GETs: %v", ri, err)
		}
		for range work {
			if err := <-done; err != nil {
				t.Fatalf("round %d: %v", ri, err)
			}
		}
	}

	// Abandon the server (no Shutdown) and recover from the directory.
	srv2, addr2 := startDurable(t, dir, Config{})
	defer srv2.Shutdown()
	c2 := dial(t, addr2)
	if got, want := c2.cmd(t, "LEN"), fmt.Sprintf("VALUE %d", len(live)); got != want {
		t.Fatalf("LEN after recovery = %q, want %q", got, want)
	}
	for lo := 0; lo < len(sorted); lo += 1000 {
		batch := sorted[lo:min(lo+1000, len(sorted))]
		sb.Reset()
		sb.WriteString("MGET")
		for _, k := range batch {
			fmt.Fprintf(&sb, " %d", k)
		}
		for i, got := range c2.cmdMulti(t, sb.String()) {
			k, want := batch[i], "NIL"
			if live[k] {
				want = fmt.Sprintf("VALUE %d", val(k))
			}
			if got != want {
				t.Fatalf("after recovery GET %d = %q, want %q", k, got, want)
			}
		}
	}
}

// TestDurableStatsSurface: the STATS reply carries the durability
// counters the operators (and the bench harness) read.
func TestDurableStatsSurface(t *testing.T) {
	dir := t.TempDir()
	srv, addr := startDurable(t, dir, Config{})
	defer srv.Shutdown()
	c := dial(t, addr)
	for k := 0; k < 32; k++ {
		c.cmd(t, fmt.Sprintf("SET %d %d", k, k))
	}
	st := stats(t, c)
	for _, key := range []string{
		"wal_appends", "wal_fsyncs", "wal_bytes",
		"replayed_records", "truncated_tail_bytes", "last_checkpoint_age_s",
	} {
		if _, ok := st[key]; !ok {
			t.Fatalf("STATS missing %q (got %v)", key, st)
		}
	}
	if st["wal_appends"] != 32 {
		t.Fatalf("wal_appends = %d, want 32", st["wal_appends"])
	}
	if st["wal_bytes"] <= 0 {
		t.Fatal("wal_bytes not accounted")
	}
}

// TestDurableGroupCommit: 8 concurrent writers under SyncAlways commit
// with measurably fewer fsyncs than appends — the group-commit effect.
// The wal/sync failpoint stretches each fsync so writers provably queue
// behind an in-flight group even when the host serializes the goroutines
// (a loaded 1-vCPU box can otherwise run the writers back-to-back and
// give every commit a private fsync). Cross-connection coalescing is
// disabled so every SET keeps its own redo record — the test isolates the
// WAL layer's amortization, not the op scheduler's (which would otherwise
// merge concurrent SETs into shared Mput records and shrink wal_appends).
func TestDurableGroupCommit(t *testing.T) {
	if err := failpoint.Enable("wal/sync", "delay(2ms)"); err != nil {
		t.Fatal(err)
	}
	defer failpoint.Disable("wal/sync")
	dir := t.TempDir()
	srv, addr := startDurable(t, dir, Config{WALSync: "always", CoalesceConns: -1})
	defer srv.Shutdown()
	const writers, per = 8, 100
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		go func(w int) {
			conn, err := net.Dial("tcp", addr.String())
			if err != nil {
				errs <- err
				return
			}
			defer conn.Close()
			cl := clientOf(conn)
			for i := 0; i < per; i++ {
				k := w*per + i
				if got, err := cl.cmdE(fmt.Sprintf("SET %d %d", k, k)); err != nil || got != "OK" {
					errs <- fmt.Errorf("SET = %q, %v", got, err)
					return
				}
			}
			errs <- nil
		}(w)
	}
	for w := 0; w < writers; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	c := dial(t, addr)
	st := stats(t, c)
	if st["wal_appends"] != writers*per {
		t.Fatalf("wal_appends = %d, want %d", st["wal_appends"], writers*per)
	}
	if st["wal_fsyncs"] >= st["wal_appends"] {
		t.Fatalf("no group commit: %d fsyncs for %d appends", st["wal_fsyncs"], st["wal_appends"])
	}
	t.Logf("group commit: %d appends amortized over %d fsyncs", st["wal_appends"], st["wal_fsyncs"])
}

// stats fetches and parses the STATS reply.
func stats(t *testing.T, c *client) map[string]int64 {
	t.Helper()
	out := map[string]int64{}
	for _, line := range c.cmdMulti(t, "STATS") {
		f := strings.Fields(line)
		if len(f) != 3 || f[0] != "STAT" {
			t.Fatalf("bad STATS line %q", line)
		}
		v, err := strconv.ParseInt(f[2], 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		out[f[1]] = v
	}
	return out
}

// clientOf wraps a raw conn for goroutines that cannot call t.Fatal.
func clientOf(conn net.Conn) *lineClient {
	return &lineClient{conn: conn}
}

type lineClient struct {
	conn net.Conn
}

func (c *lineClient) cmdE(line string) (string, error) {
	if _, err := fmt.Fprintln(c.conn, line); err != nil {
		return "", err
	}
	c.conn.SetReadDeadline(time.Now().Add(30 * time.Second))
	var out []byte
	one := make([]byte, 1)
	for {
		if _, err := c.conn.Read(one); err != nil {
			return "", err
		}
		if one[0] == '\n' {
			return string(out), nil
		}
		out = append(out, one[0])
	}
}

// TestDurableLegacyMetaBoundsIgnored: a CHECKPOINT meta written by builds
// that ran altdb sharded still records the shard boundary layout
// ("bounds") and an empty delta chain ("deltas":0). Recovery must accept
// the file, ignore both fields and recover into the one unsharded index,
// losing no data. The meta is hand-written JSON around the live
// checkpoint's generation and LSN, not the output of any encoder in this
// tree.
func TestDurableLegacyMetaBoundsIgnored(t *testing.T) {
	set := func(t *testing.T, c *client, from, to int) {
		t.Helper()
		for k := from; k <= to; k++ {
			if got := c.cmd(t, fmt.Sprintf("SET %d %d", k, k*3)); got != "OK" {
				t.Fatalf("SET = %q", got)
			}
		}
	}
	// recoverDir abandons the first server (no Shutdown), recovers dir and
	// checks every key of 1..420 and that the index is one core.ALT.
	recoverDir := func(t *testing.T, dir string) map[string]int64 {
		t.Helper()
		srv, addr := startDurable(t, dir, Config{})
		t.Cleanup(func() { srv.Shutdown() })
		if _, ok := srv.idx.(*core.ALT); !ok {
			t.Fatalf("recovered index is %T, want one *core.ALT", srv.idx)
		}
		c := dial(t, addr)
		if got := c.cmd(t, "LEN"); got != "VALUE 420" {
			t.Fatalf("LEN after recovery = %q", got)
		}
		for k := 1; k <= 420; k++ {
			if got := c.cmd(t, fmt.Sprintf("GET %d", k)); got != fmt.Sprintf("VALUE %d", k*3) {
				t.Fatalf("GET %d = %q after recovery", k, got)
			}
		}
		return stats(t, c)
	}

	t.Run("legacy-meta", func(t *testing.T) {
		dir := t.TempDir()
		srv, addr := startDurable(t, dir, Config{})
		c := dial(t, addr)
		set(t, c, 1, 400)
		if err := srv.dur.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		meta := readMeta(t, dir)
		legacy := fmt.Sprintf(`{"generation":%d,"deltas":0,"lsn":%d,"bounds":[100,200,300,350,380]}`,
			meta.Generation, meta.LSN)
		writeFramed(t, filepath.Join(dir, ckptMetaName), []byte(legacy))
		set(t, c, 401, 420) // a log tail past the checkpoint
		recoverDir(t, dir)
	})
}

// fuzzStore is a durable store with no log: enough for the redo decoder,
// which only touches the index.
func fuzzStore() *durableStore {
	return &durableStore{idx: altindex.New(altindex.Options{})}
}

// FuzzApplyRecord feeds the redo decoder arbitrary payloads. A WAL record
// is outside input (old builds, other tools, bit rot the CRC missed): the
// decoder returns an error or applies at most the pairs the payload has
// room for, idempotently, and never panics or allocates by an unchecked
// count. Opcode 1, the single-pair set only earlier builds wrote, is
// always an error.
func FuzzApplyRecord(f *testing.F) {
	f.Add(append([]byte{1}, make([]byte, 16)...))
	f.Add(encDel(7))
	f.Add(encMput([]altindex.KV{{Key: 1, Value: 2}, {Key: 1 << 63, Value: 4}}))
	f.Add([]byte{recMput, 0xff, 0xff, 0xff, 0xff}) // 2^32-1 pairs declared, none present
	f.Add([]byte{recMput, 0, 0, 0, 0})
	f.Add([]byte{9})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, payload []byte) {
		d := fuzzStore()
		defer d.idx.Close()
		err := d.applyRecord(payload)
		if len(payload) > 0 && payload[0] == 1 && err == nil {
			t.Fatal("an opcode-1 record applied")
		}
		if err != nil {
			return
		}
		n := d.idx.Len()
		if n > len(payload)/16 {
			t.Fatalf("a %d-byte record applied %d pairs", len(payload), n)
		}
		if err := d.applyRecord(payload); err != nil || d.idx.Len() != n {
			t.Fatalf("second apply = (%v, Len %d), want (nil, %d): replay must be idempotent", err, d.idx.Len(), n)
		}
	})
}

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

// kill stops srv the way a process death would: no shutdown checkpoint,
// so the directory holds only what the checkpoints and the log put there.
func kill(srv *Server) {
	srv.co.Close()
	srv.dur.log.Close()
}

// TestNoWriteWaitsOnCheckpoint: a checkpoint walks the index and writes
// its base beside live writers. Ten checkpoints run with writes between
// them; each one's base write is held open at snapio/flush, and a SET, an
// MPUT and a DEL on another connection must all answer OK while it is
// held, before that checkpoint returns. Those writes postdate the walk,
// so only the log above the LSN can carry them: a kill right after the
// last checkpoint must still recover them.
func TestNoWriteWaitsOnCheckpoint(t *testing.T) {
	defer failpoint.Disable("snapio/flush")
	const hold = 500 * time.Millisecond
	dir := t.TempDir()
	srv, addr := startDurable(t, dir, Config{})
	c, writer := dial(t, addr), dial(t, addr)
	want := map[uint64]uint64{}
	for i := uint64(1); i <= 10; i++ {
		for k := uint64(0); k < 20; k++ {
			mustReply(t, c, fmt.Sprintf("SET %d %d", i*100+k, k), "OK")
			want[i*100+k] = k
		}
		// Only the checkpoint's first snapio write, its base, is held.
		if err := failpoint.Enable("snapio/flush", fmt.Sprintf("1*delay(%s)", hold)); err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() { done <- srv.dur.Checkpoint() }()
		for failpoint.Hits("snapio/flush") == 0 {
			time.Sleep(time.Millisecond)
		}
		held := time.Now()
		mustReply(t, writer, fmt.Sprintf("SET %d 1", i), "OK")
		mustReply(t, writer, fmt.Sprintf("MPUT %d 2 %d 3", i, i*100), "OK 2")
		mustReply(t, writer, fmt.Sprintf("DEL %d", i), "OK")
		want[i*100] = 3
		if waited := time.Since(held); waited >= hold/2 {
			t.Fatalf("checkpoint %d: three writes took %v while its base write was held for %v", i, waited, hold)
		}
		select {
		case err := <-done:
			t.Fatalf("checkpoint %d returned (%v) before the writes made during it", i, err)
		default:
		}
		if err := <-done; err != nil {
			t.Fatalf("checkpoint %d: %v", i, err)
		}
	}
	kill(srv)
	srv2, addr2 := startDurable(t, dir, Config{})
	defer srv2.Shutdown()
	mustServe(t, dial(t, addr2), want, "after a kill right after the last checkpoint")
}

// TestCheckpointDueAtBaseSize: the background loop writes a base once the
// log above the published LSN has reached the published base's size, and
// the bytes a restart replays count toward that size.
func TestCheckpointDueAtBaseSize(t *testing.T) {
	dir := t.TempDir()
	srv, addr := startDurable(t, dir, Config{})
	c := dial(t, addr)
	if srv.dur.due() {
		t.Fatal("a checkpoint is due over an empty log")
	}
	var sb strings.Builder
	for base := 0; base < 2000; base += 1000 {
		sb.Reset()
		sb.WriteString("MPUT")
		for k := base; k < base+1000; k++ {
			fmt.Fprintf(&sb, " %d %d", k, k)
		}
		mustReply(t, c, sb.String(), "OK 1000")
	}
	if !srv.dur.due() {
		t.Fatal("no checkpoint is due with no base and a non-empty log")
	}
	if err := srv.dur.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(basePath(dir, 1))
	if err != nil {
		t.Fatal(err)
	}
	// Each SET is one single-pair mput record: an opcode, a u32 count and
	// one pair, in a frame.
	const setBytes = wal.FrameHeader + 1 + 4 + 16
	sets := 0
	for !srv.dur.due() {
		mustReply(t, c, fmt.Sprintf("SET %d 1", sets), "OK")
		if sets++; sets > 10000 {
			t.Fatal("no checkpoint due after 10000 SETs")
		}
	}
	if want := (int(fi.Size()) + setBytes - 1) / setBytes; sets != want {
		t.Fatalf("due after %d SETs over a %d-byte base, want %d", sets, fi.Size(), want)
	}
	kill(srv)

	srv2, _ := startDurable(t, dir, Config{})
	if !srv2.dur.due() {
		t.Fatalf("%d replayed records over a %d-byte base: no checkpoint due", srv2.dur.replayed, fi.Size())
	}
	if err := srv2.Shutdown(); err != nil {
		t.Fatal(err)
	}
	gen := readMeta(t, dir).Generation

	// The loop itself: it publishes the next generation once enough is
	// logged.
	srv3, addr3 := startDurable(t, dir, Config{CheckpointInterval: 5 * time.Millisecond})
	defer srv3.Shutdown()
	c3 := dial(t, addr3)
	for k := 0; readMeta(t, dir).Generation == gen; k++ {
		if k > 20000 {
			t.Fatal("the checkpoint loop published nothing")
		}
		mustReply(t, c3, fmt.Sprintf("SET %d 2", k), "OK")
	}
}

// TestOrphanedGenerationsRemovedAtOpen: a kill after the meta flip can
// leave the previous generation's base behind, and one before it an
// unpublished base. Open removes every base file the meta does not name
// and keeps the one it does.
func TestOrphanedGenerationsRemovedAtOpen(t *testing.T) {
	dir := t.TempDir()
	idx := altindex.New(altindex.Options{})
	defer idx.Close()
	for k := uint64(1); k <= 2; k++ {
		if err := idx.Insert(k, k); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range []string{"base-00000001.snap", "base-00000002.snap", "base-00000003.snap"} {
		if err := altindex.Save(idx, filepath.Join(dir, name)); err != nil {
			t.Fatal(err)
		}
	}
	writeFramed(t, filepath.Join(dir, ckptMetaName), []byte(`{"generation":2,"lsn":0}`))

	srv, addr := startDurable(t, dir, Config{})
	defer srv.Shutdown()
	if got := baseFiles(t, dir); !slices.Equal(got, []string{"base-00000002.snap"}) {
		t.Fatalf("after open the directory holds %v, want only the published base 2", got)
	}
	mustServe(t, dial(t, addr), map[uint64]uint64{1: 1, 2: 2}, "after open")
}

// TestIdleRestartWritesNoBase: a shutdown with nothing logged since the
// last checkpoint writes no base, so idle restarts leave the published
// generation, its meta and its base's bytes as they were.
func TestIdleRestartWritesNoBase(t *testing.T) {
	dir := t.TempDir()
	srv, addr := startDurable(t, dir, Config{})
	mustReply(t, dial(t, addr), "MPUT 1 10 2 20", "OK 2")
	if err := srv.Shutdown(); err != nil {
		t.Fatal(err)
	}
	meta := readMeta(t, dir)
	base, err := os.ReadFile(basePath(dir, meta.Generation))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		srv, addr := startDurable(t, dir, Config{})
		mustServe(t, dial(t, addr), map[uint64]uint64{1: 10, 2: 20}, "after an idle restart")
		if err := srv.Shutdown(); err != nil {
			t.Fatal(err)
		}
		if got := readMeta(t, dir); got != meta {
			t.Fatalf("idle restart %d moved the meta from %+v to %+v", i, meta, got)
		}
		if got, err := os.ReadFile(basePath(dir, meta.Generation)); err != nil || !bytes.Equal(got, base) {
			t.Fatalf("idle restart %d rewrote base %d (%v)", i, meta.Generation, err)
		}
	}
}

// dirFiles maps the path of every file under dir to its bytes.
func dirFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	err := filepath.WalkDir(dir, func(p string, e os.DirEntry, err error) error {
		if err != nil || e.IsDir() {
			return err
		}
		out[p], err = os.ReadFile(p)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestLegacyArtefactsRefused: this build reads one format per file kind.
// A directory holding an artefact only earlier builds wrote, spelled byte
// by byte here because no encoder in this tree writes one, is refused at
// open with an error that names the artefact. The refused open changes
// none of the files the directory holds: the acked writes in them are
// left for a build that reads them.
func TestLegacyArtefactsRefused(t *testing.T) {
	le := binary.LittleEndian
	// pairs appends the v1 pair payload: u64 count, then keys 1..n with
	// value 10k, ascending.
	pairs := func(b []byte, n uint64) []byte {
		b = le.AppendUint64(b, n)
		for k := uint64(1); k <= n; k++ {
			b = le.AppendUint64(le.AppendUint64(b, k), 10*k)
		}
		return b
	}
	for _, tc := range []struct {
		name  string
		plant func(t *testing.T, dir string)
		want  string // in the refusal's text
	}{
		{"v2-base", func(t *testing.T, dir string) {
			// An ALTIX002 base: u32 shard count, the count-1 shard
			// boundaries, then the v1 pair payload.
			v2 := le.AppendUint64(le.AppendUint32([]byte("ALTIX002"), 2), 3)
			writeFramed(t, filepath.Join(dir, "base-00000001.snap"), pairs(v2, 4))
			writeFramed(t, filepath.Join(dir, ckptMetaName), []byte(`{"generation":1,"lsn":0}`))
		}, `magic "ALTIX002"`},
		{"delta-chain", func(t *testing.T, dir string) {
			writeFramed(t, filepath.Join(dir, "base-00000001.snap"), pairs([]byte("ALTIX001"), 4))
			// A delta file: u32 entry count, then per entry a kind byte
			// (1 set, 0 tombstone), the key and, for a set, the value.
			delta := le.AppendUint64(le.AppendUint64([]byte{2, 0, 0, 0, 1}, 5), 50)
			delta = le.AppendUint64(append(delta, 0), 1)
			writeFramed(t, filepath.Join(dir, "delta-00000001-0001.snap"), delta)
			writeFramed(t, filepath.Join(dir, ckptMetaName), []byte(`{"generation":1,"deltas":1,"lsn":0}`))
		}, "1 delta file(s)"},
		{"set-record", func(t *testing.T, dir string) {
			wlog, err := wal.Open(filepath.Join(dir, "wal"), wal.Options{})
			if err != nil {
				t.Fatal(err)
			}
			// An mput of one pair, then opcode 1: a single-pair set,
			// [u64 key][u64 value].
			for _, rec := range [][]byte{
				le.AppendUint64(le.AppendUint64(le.AppendUint32([]byte{3}, 1), 1), 10),
				le.AppendUint64(le.AppendUint64([]byte{1}, 5), 50),
			} {
				if _, err := wlog.Commit(rec); err != nil {
					t.Fatal(err)
				}
			}
			if err := wlog.Close(); err != nil {
				t.Fatal(err)
			}
		}, "opcode 1"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			tc.plant(t, dir)
			before := dirFiles(t, dir)
			srv, err := NewServerWith(Config{WALDir: dir, CheckpointInterval: -1})
			if err == nil {
				srv.Shutdown()
				t.Fatalf("a directory holding a legacy %s opened", tc.name)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("refusal %q does not name the artefact (%q)", err, tc.want)
			}
			if tc.name == "v2-base" && !errors.Is(err, altindex.ErrBadSnapshot) {
				t.Fatalf("refusal %q does not wrap ErrBadSnapshot", err)
			}
			after := dirFiles(t, dir)
			for p, raw := range before {
				if !bytes.Equal(after[p], raw) {
					t.Errorf("the refused open changed %s", p)
				}
			}
		})
	}
}

// TestStatsKeySetsDisjoint: STATS merges the index's StatsMap, the durable
// store's counters, the net counters and the coalescer's into one reply;
// a key two of them shared would silently overwrite the other's value.
func TestStatsKeySetsDisjoint(t *testing.T) {
	srv, addr := startDurable(t, t.TempDir(), Config{})
	defer srv.Shutdown()
	c := dial(t, addr)
	mustReply(t, c, "SET 1 1", "OK")
	owner := map[string]string{}
	for name, m := range map[string]map[string]int64{
		"index":     srv.idx.StatsMap(),
		"durable":   srv.dur.Stats(),
		"net":       srv.net.snapshot(),
		"coalescer": srv.co.Stats(),
	} {
		for k := range m {
			if prev, ok := owner[k]; ok {
				t.Errorf("STATS key %q comes from both %s and %s", k, prev, name)
			}
			owner[k] = name
		}
	}
	st := stats(t, c)
	for k := range st {
		if owner[k] == "" {
			t.Errorf("STATS key %q comes from none of the four sources", k)
		}
	}
	if len(st) != len(owner) {
		t.Errorf("STATS has %d keys, its four sources %d", len(st), len(owner))
	}
	if _, ok := st["checkpoint_deltas"]; ok {
		t.Error("STATS still reports checkpoint_deltas")
	}
}
