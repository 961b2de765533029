package memdb

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"altindex/internal/shard"
	"altindex/internal/wal"
)

func openT(t *testing.T, dir string, opts Options) *DB {
	t.Helper()
	db, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// TestDurableReopen: mutations survive a close/reopen cycle via log replay
// alone (no checkpoint was ever taken).
func TestDurableReopen(t *testing.T) {
	dir := t.TempDir()
	db := openT(t, dir, Options{})
	tbl := db.CreateTable("users", 2)
	const n = 500
	for pk := uint64(1); pk <= n; pk++ {
		if err := tbl.Insert(pk, []uint64{pk * 2, pk * 3}); err != nil {
			t.Fatal(err)
		}
	}
	for pk := uint64(1); pk <= n; pk += 5 {
		if err := tbl.Update(pk, []uint64{pk * 7, pk * 11}); err != nil {
			t.Fatal(err)
		}
	}
	for pk := uint64(2); pk <= n; pk += 10 {
		if err := tbl.Delete(pk); err != nil {
			t.Fatal(err)
		}
	}
	want := snapshotState(tbl, n)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2 := openT(t, dir, Options{})
	defer db2.Close()
	if db2.ReplayedRecords() == 0 {
		t.Fatal("reopen replayed nothing")
	}
	tbl2, err := db2.Table("users")
	if err != nil {
		t.Fatal(err)
	}
	checkState(t, tbl2, want, n)
}

// TestDurableCheckpointThenMoreWrites: recovery stitches checkpoint +
// log suffix, and the replayed count only covers the suffix.
func TestDurableCheckpointThenMoreWrites(t *testing.T) {
	dir := t.TempDir()
	db := openT(t, dir, Options{})
	tbl := db.CreateTable("kv", 1)
	for pk := uint64(1); pk <= 300; pk++ {
		if err := tbl.Insert(pk, []uint64{pk}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Post-checkpoint tail: updates over checkpointed rows plus new ones.
	for pk := uint64(1); pk <= 100; pk++ {
		if err := tbl.Update(pk, []uint64{pk + 1000}); err != nil {
			t.Fatal(err)
		}
	}
	for pk := uint64(301); pk <= 400; pk++ {
		if err := tbl.Insert(pk, []uint64{pk}); err != nil {
			t.Fatal(err)
		}
	}
	db.Close()

	db2 := openT(t, dir, Options{})
	defer db2.Close()
	if got := db2.ReplayedRecords(); got != 200 {
		t.Fatalf("replayed %d records, want exactly the 200 post-checkpoint ones", got)
	}
	tbl2, err := db2.Table("kv")
	if err != nil {
		t.Fatal(err)
	}
	if tbl2.Len() != 400 {
		t.Fatalf("rows after recovery = %d, want 400", tbl2.Len())
	}
	for pk := uint64(1); pk <= 100; pk++ {
		row, err := tbl2.Get(pk)
		if err != nil || row[0] != pk+1000 {
			t.Fatalf("pk %d = %v, %v; want the post-checkpoint update", pk, row, err)
		}
	}
}

// TestDurableDDLReplay: CreateTable options (shards) and secondary
// indexes come back from the log.
func TestDurableDDLReplay(t *testing.T) {
	dir := t.TempDir()
	db := openT(t, dir, Options{})
	tbl, err := db.CreateTableWith("orders", 3, TableOptions{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.CreateIndex("by_status", 1, 16); err != nil {
		t.Fatal(err)
	}
	for pk := uint64(1); pk <= 200; pk++ {
		if err := tbl.Insert(pk, []uint64{pk, pk % 5, pk * 2}); err != nil {
			t.Fatal(err)
		}
	}
	db.Close()

	db2 := openT(t, dir, Options{})
	defer db2.Close()
	tbl2, err := db2.Table("orders")
	if err != nil {
		t.Fatal(err)
	}
	st := tbl2.Stats()
	if st["primary_shards"] != 4 {
		t.Fatalf("shard layout lost in replay: primary_shards = %d", st["primary_shards"])
	}
	ix, err := tbl2.Index("by_status")
	if err != nil {
		t.Fatal(err)
	}
	got := ix.SelectWhere(3, 1000, func(pk uint64, row []uint64) bool { return true })
	if got != 40 {
		t.Fatalf("secondary index after replay found %d rows with status 3, want 40", got)
	}
}

// TestDurableReplayIdempotent: a snapshot published without truncating the
// log (the crash-between window) must recover to the same state — replay
// re-applies a prefix the snapshot already contains.
func TestDurableReplayIdempotent(t *testing.T) {
	dir := t.TempDir()
	db := openT(t, dir, Options{})
	tbl := db.CreateTable("t", 1)
	for pk := uint64(1); pk <= 100; pk++ {
		if err := tbl.Insert(pk, []uint64{pk}); err != nil {
			t.Fatal(err)
		}
	}
	for pk := uint64(1); pk <= 50; pk++ {
		if err := tbl.Delete(pk); err != nil {
			t.Fatal(err)
		}
	}
	// Simulate the torn checkpoint: snapshot + meta published, log intact.
	lsn := db.WAL().LastSeq()
	if err := db.Save(filepath.Join(dir, snapFileName)); err != nil {
		t.Fatal(err)
	}
	writeMetaT(t, dir, lsn)
	db.Close()

	db2 := openT(t, dir, Options{})
	defer db2.Close()
	tbl2, err := db2.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	if tbl2.Len() != 50 {
		t.Fatalf("double-applied replay: rows = %d, want 50", tbl2.Len())
	}
	for pk := uint64(51); pk <= 100; pk++ {
		if _, err := tbl2.Get(pk); err != nil {
			t.Fatalf("pk %d lost: %v", pk, err)
		}
	}
	for pk := uint64(1); pk <= 50; pk++ {
		if _, err := tbl2.Get(pk); err == nil {
			t.Fatalf("deleted pk %d resurrected by replay", pk)
		}
	}
}

// writeMetaT publishes a CHECKPOINT meta at lsn without truncating — the
// exact on-disk shape of a crash between snapshot publish and truncation.
func writeMetaT(t *testing.T, dir string, lsn uint64) {
	t.Helper()
	if err := writeCheckpointMeta(dir, checkpointMeta{LSN: lsn, HasSnapshot: true}); err != nil {
		t.Fatal(err)
	}
}

// TestDurableConcurrentWriters: concurrent committed writes all survive
// recovery (the group-commit path under contention).
func TestDurableConcurrentWriters(t *testing.T) {
	dir := t.TempDir()
	db := openT(t, dir, Options{WAL: wal.Options{Sync: wal.SyncAlways}})
	tbl := db.CreateTable("c", 1)
	const writers, per = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				pk := uint64(w*per + i + 1)
				if err := tbl.Insert(pk, []uint64{pk * 2}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	st := db.WAL().Stats()
	db.Close()

	if st.Appends < writers*per {
		t.Fatalf("wal saw %d appends, want ≥ %d", st.Appends, writers*per)
	}
	db2 := openT(t, dir, Options{})
	defer db2.Close()
	tbl2, err := db2.Table("c")
	if err != nil {
		t.Fatal(err)
	}
	if tbl2.Len() != writers*per {
		t.Fatalf("recovered %d rows, want %d", tbl2.Len(), writers*per)
	}
	for pk := uint64(1); pk <= writers*per; pk++ {
		row, err := tbl2.Get(pk)
		if err != nil || row[0] != pk*2 {
			t.Fatalf("pk %d = %v, %v", pk, row, err)
		}
	}
}

// TestDurableCorruptMetaRefuses: a corrupt CHECKPOINT file refuses to open
// rather than silently starting empty over a directory that has data.
func TestDurableCorruptMetaRefuses(t *testing.T) {
	dir := t.TempDir()
	db := openT(t, dir, Options{})
	tbl := db.CreateTable("t", 1)
	tbl.Insert(1, []uint64{1})
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	db.Close()

	meta := filepath.Join(dir, metaFileName)
	raw, err := os.ReadFile(meta)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xff
	if err := os.WriteFile(meta, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("open over corrupt meta: %v, want ErrBadSnapshot", err)
	}
}

// TestDurableMissingSnapshotRefuses: meta says a snapshot exists but the
// file is gone — opening must fail, not lose the checkpointed data.
func TestDurableMissingSnapshotRefuses(t *testing.T) {
	dir := t.TempDir()
	db := openT(t, dir, Options{})
	tbl := db.CreateTable("t", 1)
	tbl.Insert(1, []uint64{1})
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	db.Close()
	if err := os.Remove(filepath.Join(dir, snapFileName)); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("open succeeded with the checkpoint snapshot missing")
	}
}

// TestNonDurableNoops: a NewDB database takes the zero-cost paths and
// Checkpoint reports ErrNotDurable.
func TestNonDurableNoops(t *testing.T) {
	db := NewDB()
	defer db.Close()
	tbl := db.CreateTable("t", 1)
	if err := tbl.Insert(1, []uint64{1}); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); !errors.Is(err, ErrNotDurable) {
		t.Fatalf("Checkpoint on in-memory db: %v, want ErrNotDurable", err)
	}
	if db.WAL() != nil {
		t.Fatal("in-memory db reports a WAL")
	}
}

// snapshotState captures pk -> row for comparison across recovery.
func snapshotState(tbl *Table, maxPK uint64) map[uint64][]uint64 {
	state := map[uint64][]uint64{}
	for pk := uint64(0); pk <= maxPK; pk++ {
		if row, err := tbl.Get(pk); err == nil {
			state[pk] = row
		}
	}
	return state
}

func checkState(t *testing.T, tbl *Table, want map[uint64][]uint64, maxPK uint64) {
	t.Helper()
	if tbl.Len() != len(want) {
		t.Fatalf("recovered %d rows, want %d", tbl.Len(), len(want))
	}
	for pk := uint64(0); pk <= maxPK; pk++ {
		row, err := tbl.Get(pk)
		wantRow, ok := want[pk]
		if ok != (err == nil) {
			t.Fatalf("pk %d presence mismatch after recovery (want present=%v, err=%v)", pk, ok, err)
		}
		if ok {
			if fmt.Sprint(row) != fmt.Sprint(wantRow) {
				t.Fatalf("pk %d = %v, want %v", pk, row, wantRow)
			}
		}
	}
}

// TestDurableLegacyRebalanceRecordSkipped: a WAL written by a build that
// still reshaped shard boundaries online can hold opcode 5. Replay must
// check the record's framing and step over it — not refuse the log as an
// unknown opcode — and must still refuse a malformed one. The records are
// hand-encoded bytes: no encoder for the opcode exists any more.
func TestDurableLegacyRebalanceRecordSkipped(t *testing.T) {
	legacy := func(nbounds uint32, bounds ...uint64) []byte {
		rec := []byte{5, 6, 0, 'e', 'v', 'e', 'n', 't', 's'}
		rec = binary.LittleEndian.AppendUint32(rec, nbounds)
		for _, b := range bounds {
			rec = binary.LittleEndian.AppendUint64(rec, b)
		}
		return rec
	}
	// write logs [create table, 100 puts, rec, 100 puts] and closes.
	write := func(t *testing.T, rec []byte) string {
		dir := t.TempDir()
		db := openT(t, dir, Options{})
		tbl, err := db.CreateTableWith("events", 1, TableOptions{Shards: 4})
		if err != nil {
			t.Fatal(err)
		}
		for pk := uint64(1); pk <= 200; pk++ {
			if pk == 101 {
				seq, err := db.logAppend(rec)
				if err != nil {
					t.Fatal(err)
				}
				if err := db.logWait(seq); err != nil {
					t.Fatal(err)
				}
			}
			if err := tbl.Insert(pk*16, []uint64{pk}); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		return dir
	}

	t.Run("well-formed", func(t *testing.T) {
		dir := write(t, legacy(3, 800, 1600, 2400))
		db := openT(t, dir, Options{})
		defer db.Close()
		tbl, err := db.Table("events")
		if err != nil {
			t.Fatal(err)
		}
		if got := tbl.primary.(*shard.ALT).Shards(); got != 4 {
			t.Fatalf("replayed table has %d shards, want the 4 its DDL asked for", got)
		}
		for pk := uint64(1); pk <= 200; pk++ {
			row, err := tbl.Get(pk * 16)
			if err != nil || row[0] != pk {
				t.Fatalf("Get(%d) = (%v, %v), want [%d]", pk*16, row, err, pk)
			}
		}
	})
	for name, rec := range map[string][]byte{
		"truncated-bounds": legacy(3, 800, 1600),
		"too-many-bounds":  legacy(65, make([]uint64, 65)...),
		"no-count":         legacy(0)[:9],
	} {
		t.Run(name, func(t *testing.T) {
			dir := write(t, rec)
			if db, err := Open(dir, Options{}); err == nil {
				db.Close()
				t.Fatal("Open accepted a malformed legacy record")
			}
		})
	}
}
