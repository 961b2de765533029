package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
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

// TestDurableIncrementalCheckpoint: delta checkpoints truncate the log,
// bound replay, and compaction collapses the chain into a fresh base.
func TestDurableIncrementalCheckpoint(t *testing.T) {
	dir := t.TempDir()
	srv, addr := startDurable(t, dir, Config{})
	c := dial(t, addr)
	for round := 0; round < maxDeltas; round++ {
		for k := 0; k < 50; k++ {
			key := round*50 + k
			if got := c.cmd(t, fmt.Sprintf("SET %d %d", key, key)); got != "OK" {
				t.Fatalf("SET = %q", got)
			}
		}
		if err := srv.dur.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	st := stats(t, c)
	if st["checkpoint_deltas"] != maxDeltas {
		t.Fatalf("checkpoint_deltas = %d, want %d", st["checkpoint_deltas"], maxDeltas)
	}
	// The next checkpoint hits maxDeltas and compacts into generation 1.
	if got := c.cmd(t, "SET 999 999"); got != "OK" {
		t.Fatal(got)
	}
	if err := srv.dur.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	st = stats(t, c)
	if st["checkpoint_generation"] < 1 || st["checkpoint_deltas"] != 0 {
		t.Fatalf("after compaction: generation=%d deltas=%d, want gen>=1 deltas=0",
			st["checkpoint_generation"], st["checkpoint_deltas"])
	}

	// Kill (abandon) and recover: replay must cover only the tail after
	// the compaction.
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
		t.Fatalf("replayed_records after compaction = %d, want 10", st2["replayed_records"])
	}
	if got := c2.cmd(t, "LEN"); got != fmt.Sprintf("VALUE %d", maxDeltas*50+1+10) {
		t.Fatalf("LEN = %q", got)
	}
	if got := c2.cmd(t, "GET 999"); got != "VALUE 999" {
		t.Fatalf("GET 999 = %q", got)
	}
}

// TestDurableCompactionUnderGets: compaction saves its full base while GETs
// read keys that live in ART behind tombstones. A GET writes nothing, so
// the base is an exact cut of the log: every Compact succeeds, and a
// restart from the abandoned server's directory returns LEN and every
// acknowledged key. (When a GET wrote such a key back from ART into its
// slot, it could do so between the save scan's learned read and its ART
// read, and the scan missed the key.)
func TestDurableCompactionUnderGets(t *testing.T) {
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
	// they spread over the compaction that follows the removals.
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
		if err := srv.dur.Compact(); err != nil {
			t.Fatalf("round %d: Compact under GETs: %v", ri, err)
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

// TestDurableLegacyMetaBoundsIgnored: files written by builds that ran
// altdb sharded recover into the one unsharded index, losing no data.
//   - legacy-meta: a CHECKPOINT meta that still records the shard boundary
//     layout ("bounds"). Recovery must accept the file and ignore the
//     field. The meta is hand-written JSON around the live checkpoint's
//     LSN, not the output of any encoder in this tree.
//   - v2-base: a base snapshot saved from a 4-shard index (ALTIX002).
//     Recovery must merge it into one index, then replay the log suffix
//     above the meta's LSN.
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
		// Delta checkpoint only (generation 0): no base snapshot to carry a
		// layout, which is the case the legacy field existed for.
		if err := srv.dur.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		meta := readMeta(t, dir)
		if meta.Generation != 0 || meta.Deltas != 1 {
			t.Fatalf("checkpoint meta = %+v, want generation 0 with one delta", meta)
		}
		legacy := fmt.Sprintf(`{"generation":0,"deltas":1,"lsn":%d,"bounds":[100,200,300,350,380]}`, meta.LSN)
		if err := snapio.WriteFile(filepath.Join(dir, ckptMetaName), func(w io.Writer) error {
			_, werr := io.WriteString(w, legacy)
			return werr
		}); err != nil {
			t.Fatal(err)
		}
		set(t, c, 401, 420) // a log tail past the checkpoint
		recoverDir(t, dir)
	})

	t.Run("v2-base", func(t *testing.T) {
		dir := t.TempDir()
		srv, addr := startDurable(t, dir, Config{})
		c := dial(t, addr)
		set(t, c, 1, 400)
		if err := srv.dur.Compact(); err != nil {
			t.Fatal(err)
		}
		set(t, c, 401, 420) // a log tail past the base
		// Replace base 1 with the same pairs saved from a 4-shard index.
		sharded := altindex.New(altindex.Options{Shards: 4})
		defer sharded.Close()
		pairs := make([]altindex.KV, 400)
		for i := range pairs {
			k := uint64(i + 1)
			pairs[i] = altindex.KV{Key: k, Value: k * 3}
		}
		if err := sharded.Bulkload(pairs); err != nil {
			t.Fatal(err)
		}
		base := basePath(dir, readMeta(t, dir).Generation)
		if err := altindex.Save(sharded, base); err != nil {
			t.Fatal(err)
		}
		if raw, err := os.ReadFile(base); err != nil || !bytes.HasPrefix(raw, []byte("ALTIX002")) {
			t.Fatalf("base is not a v2 snapshot (%v)", err)
		}
		if st := recoverDir(t, dir); st["replayed_records"] != 20 {
			t.Fatalf("replayed_records = %d, want the 20-record suffix", st["replayed_records"])
		}
	})
}

// TestDurableLegacySetRecordReplays: nothing writes the single-pair set
// opcode any more (every SET reaches the store as an mput group), but logs
// written by earlier builds hold it. The frames here are spelled byte by
// byte, not produced by an encoder in this tree; a later record overwrites
// one of them to pin replay order.
func TestDurableLegacySetRecordReplays(t *testing.T) {
	dir := t.TempDir()
	wlog, err := wal.Open(filepath.Join(dir, "wal"), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	set := func(k, v uint64) []byte {
		rec := []byte{1} // recSet: [u64 key][u64 value], little-endian
		rec = binary.LittleEndian.AppendUint64(rec, k)
		return binary.LittleEndian.AppendUint64(rec, v)
	}
	for _, rec := range [][]byte{set(7, 70), set(1<<63, 9), set(7, 71)} {
		if _, err := wlog.Commit(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := wlog.Close(); err != nil {
		t.Fatal(err)
	}

	srv, addr := startDurable(t, dir, Config{})
	defer srv.Shutdown()
	c := dial(t, addr)
	for cmd, want := range map[string]string{
		"GET 7":                   "VALUE 71",
		"GET 9223372036854775808": "VALUE 9",
		"LEN":                     "VALUE 2",
	} {
		if got := c.cmd(t, cmd); got != want {
			t.Fatalf("%s = %q, want %q", cmd, got, want)
		}
	}
	if st := stats(t, c); st["replayed_records"] != 3 {
		t.Fatalf("replayed_records = %d, want 3", st["replayed_records"])
	}
	// Replayed keys are above the checkpoint LSN, so the next delta must
	// carry them.
	if err := srv.dur.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if st := stats(t, c); st["checkpoint_deltas"] != 1 {
		t.Fatalf("checkpoint_deltas = %d, want 1", st["checkpoint_deltas"])
	}
}

// fuzzStore is a durable store with no log: enough for the two recovery
// decoders, which only touch the index and the dirty set.
func fuzzStore() *durableStore {
	return &durableStore{idx: altindex.New(altindex.Options{}), dirty: map[uint64]struct{}{}}
}

// FuzzApplyRecord feeds the redo decoder arbitrary payloads. A WAL record
// is outside input (old builds, other tools, bit rot the CRC missed): the
// decoder returns an error or applies at most the pairs the payload has
// room for, idempotently, and never panics or allocates by an unchecked
// count.
func FuzzApplyRecord(f *testing.F) {
	f.Add(append([]byte{recSet}, make([]byte, 16)...))
	f.Add(encDel(7))
	f.Add(encMput([]altindex.KV{{Key: 1, Value: 2}, {Key: 1 << 63, Value: 4}}))
	f.Add([]byte{recMput, 0xff, 0xff, 0xff, 0xff}) // 2^32-1 pairs declared, none present
	f.Add([]byte{recMput, 0, 0, 0, 0})
	f.Add([]byte{9})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, payload []byte) {
		d := fuzzStore()
		defer d.idx.Close()
		if err := d.applyRecord(payload); err != nil {
			return
		}
		n := d.idx.Len()
		if n > len(payload)/16 || len(d.dirty) > len(payload)/8 {
			t.Fatalf("a %d-byte record applied %d pairs and dirtied %d keys", len(payload), n, len(d.dirty))
		}
		if err := d.applyRecord(payload); err != nil || d.idx.Len() != n {
			t.Fatalf("second apply = (%v, Len %d), want (nil, %d): replay must be idempotent", err, d.idx.Len(), n)
		}
	})
}

// FuzzApplyDelta feeds the delta-file decoder arbitrary payloads inside a
// valid snapio frame (and the same bytes unframed, which the checksum must
// stop): an error or at most one applied entry per nine payload bytes,
// never a panic.
func FuzzApplyDelta(f *testing.F) {
	entry := func(kind byte, k, v uint64) []byte {
		out := binary.LittleEndian.AppendUint64([]byte{kind}, k)
		if kind == deltaSet {
			out = binary.LittleEndian.AppendUint64(out, v)
		}
		return out
	}
	good := []byte{3, 0, 0, 0}
	good = append(good, entry(deltaSet, 5, 50)...)
	good = append(good, entry(deltaTombstone, 6, 0)...)
	good = append(good, entry(deltaSet, 1<<63, 1)...)
	f.Add(good)
	f.Add(good[:len(good)-3])                            // truncated entry
	f.Add(append(bytes.Clone(good), 0))                  // bytes past the declared count
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})                // 2^32-1 entries declared
	f.Add(append([]byte{1, 0, 0, 0}, entry(7, 1, 1)...)) // unknown kind
	f.Add([]byte{0, 0})
	path := filepath.Join(f.TempDir(), "delta.snap")
	f.Fuzz(func(t *testing.T, payload []byte) {
		d := fuzzStore()
		defer d.idx.Close()
		if err := os.WriteFile(path, payload, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := d.applyDelta(path); !errors.Is(err, snapio.ErrCorrupt) {
			return // the fuzzer forged a frame (2^-32 per input); the decoder ran, which is the property below
		}
		if d.idx.Len() != 0 {
			t.Fatalf("the checksum refused the file after %d entries were applied", d.idx.Len())
		}
		framed := binary.LittleEndian.AppendUint64(bytes.Clone(payload), uint64(len(payload)))
		framed = binary.LittleEndian.AppendUint32(framed, crc32.ChecksumIEEE(payload))
		if err := os.WriteFile(path, framed, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := d.applyDelta(path); err != nil {
			return
		}
		n := d.idx.Len()
		if n > len(payload)/9 {
			t.Fatalf("a %d-byte delta applied %d entries", len(payload), n)
		}
		if err := d.applyDelta(path); err != nil || d.idx.Len() != n {
			t.Fatalf("second apply = (%v, Len %d), want (nil, %d)", err, d.idx.Len(), n)
		}
	})
}
