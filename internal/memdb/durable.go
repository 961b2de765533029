package memdb

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"altindex/internal/snapio"
	"altindex/internal/wal"
)

// Durability: a DB created with Open is backed by a write-ahead log and
// checkpoint pair living in one directory:
//
//	<dir>/memdb.snap   full checkpoint (the ALTDB001 snapshot format)
//	<dir>/CHECKPOINT   snapio-framed JSON naming the checkpoint's LSN
//	<dir>/wal/         WAL segments (see internal/wal)
//
// Every mutation appends a logical redo record — Put (upsert), Delete,
// CreateTable, CreateIndex — to the log *inside* the same per-key stripe
// lock that serialises the apply, so log order always equals apply order,
// and the method returns only after the record reaches the configured
// commit point ("ack after commit"). Recovery in Open loads the latest
// checkpoint and replays every record above its LSN; replay application
// is idempotent (Put is an upsert, Delete tolerates absence, DDL returns
// existing objects), so a checkpoint that crashed between publishing its
// snapshot and truncating the log merely re-applies a prefix the
// snapshot already contains — converging, never double-counting.
//
// The recovery-time target: replay proceeds at over a million records per
// second (measured in EXPERIMENTS.md §WAL), so keeping the log under
// Checkpoint's default trigger keeps Open under a few seconds; embedders
// bound recovery by how often they call Checkpoint.

// ErrNotDurable is returned by durability operations on a DB that was not
// created with Open.
var ErrNotDurable = errors.New("memdb: database has no write-ahead log (use Open)")

// Options configure a durable database opened with Open. The zero value
// uses the WAL defaults (SyncAlways, 64 MiB segments).
type Options struct {
	// WAL tunes the write-ahead log (sync policy, segment size).
	WAL wal.Options
}

// Redo record opcodes. Records are little-endian, self-delimiting, and
// carry logical state changes only — replay rebuilds secondary indexes
// through the normal mutation paths, so they need no records of their own.
const (
	recPut         byte = 1 // [u16 nameLen][name][u64 pk][u16 cols][cols×u64]
	recDelete      byte = 2 // [u16 nameLen][name][u64 pk]
	recCreateTable byte = 3 // [u16 nameLen][name][u32 columns][u32 shards]
	recCreateIndex byte = 4 // [u16 nameLen][table][u16 nameLen][index][u32 col][u32 colBits]
	// recRebalance is a legacy opcode: builds that reshaped shard
	// boundaries online logged each new layout. Nothing writes it now;
	// replay checks its framing and skips it, so those logs still open.
	recRebalance byte = 5 // [u16 nameLen][name][u32 nbounds][nbounds×u64 bounds]
)

const (
	snapFileName = "memdb.snap"
	metaFileName = "CHECKPOINT"
	walDirName   = "wal"
)

// checkpointMeta is the CHECKPOINT file payload: which LSN the snapshot
// beside it covers. It is written through snapio, so a crash mid-publish
// leaves the previous (still consistent) generation.
type checkpointMeta struct {
	LSN         uint64 `json:"lsn"`
	HasSnapshot bool   `json:"has_snapshot"`
}

// Open opens (or creates) a durable database in dir: it loads the latest
// checkpoint, replays the write-ahead log above the checkpoint's LSN, and
// arms logging for every subsequent mutation. A corrupt checkpoint or an
// unstitchable log refuses to open rather than serving partial data.
func Open(dir string, opts Options) (*DB, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	metaPath := filepath.Join(dir, metaFileName)
	var meta checkpointMeta
	switch raw, err := snapio.ReadFile(metaPath); {
	case err == nil:
		if jerr := json.Unmarshal(raw, &meta); jerr != nil {
			return nil, fmt.Errorf("%w: checkpoint meta: %v", ErrBadSnapshot, jerr)
		}
	case errors.Is(err, os.ErrNotExist):
		// First boot.
	case errors.Is(err, snapio.ErrCorrupt):
		return nil, fmt.Errorf("%w: checkpoint meta: %v", ErrBadSnapshot, err)
	default:
		return nil, err
	}

	var db *DB
	snapPath := filepath.Join(dir, snapFileName)
	if meta.HasSnapshot {
		loaded, err := Load(snapPath)
		if err != nil {
			// The meta says a checkpoint exists and the log below its LSN
			// is gone; starting empty here would silently lose data.
			return nil, fmt.Errorf("memdb: recovery needs the checkpoint it cannot read: %w", err)
		}
		db = loaded
	} else {
		db = NewDB()
	}

	log, err := wal.Open(filepath.Join(dir, walDirName), opts.WAL)
	if err != nil {
		return nil, err
	}
	replayed, err := log.Replay(meta.LSN, func(_ uint64, payload []byte) error {
		return db.applyRecord(payload)
	})
	if err != nil {
		log.Close()
		return nil, fmt.Errorf("memdb: replay: %w", err)
	}
	db.wal = log
	db.dir = dir
	db.replayed = int64(replayed)
	return db, nil
}

// WAL returns the database's write-ahead log (nil for a non-durable DB) —
// exposed for stats surfaces and tests.
func (db *DB) WAL() *wal.Log { return db.wal }

// ReplayedRecords reports how many redo records Open applied during
// recovery.
func (db *DB) ReplayedRecords() int64 { return db.replayed }

// Checkpoint writes a full snapshot covering everything applied so far,
// publishes its LSN, and truncates the log below it — bounding both the
// log's disk footprint and the next recovery's replay time. Like Save it
// requires the database to be quiescent (it is a checkpoint operation,
// not a hot-path one).
func (db *DB) Checkpoint() error {
	if db.wal == nil {
		return ErrNotDurable
	}
	// Every assigned sequence number was appended inside the stripe lock
	// of an already-applied mutation, so the state Save scans contains
	// every record at or below this LSN.
	lsn := db.wal.LastSeq()
	if err := db.Save(filepath.Join(db.dir, snapFileName)); err != nil {
		return err
	}
	if err := writeCheckpointMeta(db.dir, checkpointMeta{LSN: lsn, HasSnapshot: true}); err != nil {
		return err
	}
	return db.wal.TruncateBelow(lsn + 1)
}

// writeCheckpointMeta atomically publishes the CHECKPOINT meta file.
func writeCheckpointMeta(dir string, meta checkpointMeta) error {
	raw, err := json.Marshal(meta)
	if err != nil {
		return err
	}
	return snapio.WriteFile(filepath.Join(dir, metaFileName), func(w io.Writer) error {
		_, werr := w.Write(raw)
		return werr
	})
}

// applyRecord applies one redo record with idempotent semantics: Put is
// an upsert, Delete tolerates a missing row, DDL returns existing
// objects. Idempotency is what makes re-replaying a prefix the snapshot
// already covers (crash between snapshot publish and log truncation)
// converge instead of corrupting counts.
func (db *DB) applyRecord(payload []byte) error {
	r := recReader{buf: payload}
	op := r.u8()
	switch op {
	case recPut:
		name := r.str()
		pk := r.u64()
		cols := int(r.u16())
		if r.err != nil || cols > 1<<16 {
			return fmt.Errorf("memdb: malformed put record")
		}
		row := make([]uint64, cols)
		for i := range row {
			row[i] = r.u64()
		}
		if r.err != nil {
			return fmt.Errorf("memdb: malformed put record")
		}
		t, err := db.Table(name)
		if err != nil {
			return err
		}
		if err := t.Insert(pk, row); errors.Is(err, ErrDuplicateKey) {
			return t.Update(pk, row)
		} else if err != nil {
			return err
		}
		return nil
	case recDelete:
		name := r.str()
		pk := r.u64()
		if r.err != nil {
			return fmt.Errorf("memdb: malformed delete record")
		}
		t, err := db.Table(name)
		if err != nil {
			return err
		}
		if err := t.Delete(pk); err != nil && !errors.Is(err, ErrRowNotFound) {
			return err
		}
		return nil
	case recCreateTable:
		name := r.str()
		columns := r.u32()
		shards := r.u32()
		if r.err != nil {
			return fmt.Errorf("memdb: malformed create-table record")
		}
		_, err := db.CreateTableWith(name, int(columns), TableOptions{Shards: int(shards)})
		return err
	case recCreateIndex:
		table := r.str()
		index := r.str()
		col := r.u32()
		colBits := r.u32()
		if r.err != nil {
			return fmt.Errorf("memdb: malformed create-index record")
		}
		t, err := db.Table(table)
		if err != nil {
			return err
		}
		_, err = t.CreateIndex(index, int(col), uint(colBits))
		return err
	case recRebalance:
		r.str()
		n := r.u32()
		if r.err != nil || n > 64 {
			return fmt.Errorf("memdb: malformed rebalance record")
		}
		for i := uint32(0); i < n; i++ {
			r.u64()
		}
		if r.err != nil {
			return fmt.Errorf("memdb: malformed rebalance record")
		}
		return nil
	}
	return fmt.Errorf("memdb: unknown redo opcode %d", op)
}

// --- record encoding -------------------------------------------------------

func encPut(table string, pk uint64, row []uint64) []byte {
	buf := make([]byte, 0, 1+2+len(table)+8+2+8*len(row))
	buf = append(buf, recPut)
	buf = encStr(buf, table)
	buf = binary.LittleEndian.AppendUint64(buf, pk)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(row)))
	for _, c := range row {
		buf = binary.LittleEndian.AppendUint64(buf, c)
	}
	return buf
}

func encDelete(table string, pk uint64) []byte {
	buf := make([]byte, 0, 1+2+len(table)+8)
	buf = append(buf, recDelete)
	buf = encStr(buf, table)
	return binary.LittleEndian.AppendUint64(buf, pk)
}

func encCreateTable(table string, columns, shards int) []byte {
	buf := make([]byte, 0, 1+2+len(table)+8)
	buf = append(buf, recCreateTable)
	buf = encStr(buf, table)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(columns))
	return binary.LittleEndian.AppendUint32(buf, uint32(shards))
}

func encCreateIndex(table, index string, col int, colBits uint) []byte {
	buf := make([]byte, 0, 1+4+len(table)+len(index)+8)
	buf = append(buf, recCreateIndex)
	buf = encStr(buf, table)
	buf = encStr(buf, index)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(col))
	return binary.LittleEndian.AppendUint32(buf, uint32(colBits))
}

func encStr(buf []byte, s string) []byte {
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(s)))
	return append(buf, s...)
}

// recReader is a tiny cursor with sticky-error decoding.
type recReader struct {
	buf []byte
	err error
}

func (r *recReader) take(n int) []byte {
	if r.err != nil || len(r.buf) < n {
		r.err = errors.New("short record")
		return nil
	}
	out := r.buf[:n]
	r.buf = r.buf[n:]
	return out
}

func (r *recReader) u8() byte {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *recReader) u16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

func (r *recReader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *recReader) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (r *recReader) str() string {
	n := r.u16()
	return string(r.take(int(n)))
}

// --- mutation-side logging -------------------------------------------------

// logAppend enqueues one redo record; a nil wal (non-durable DB, or a DB
// still replaying — the log is attached only after replay) is a no-op.
// Called with the relevant engine lock held so log order matches apply
// order; the durability wait happens after the lock is released.
func (db *DB) logAppend(rec []byte) (uint64, error) {
	if db == nil || db.wal == nil {
		return 0, nil
	}
	return db.wal.Append(rec)
}

// logWait blocks until seq's commit point (no-op for seq 0, the
// non-durable marker).
func (db *DB) logWait(seq uint64) error {
	if seq == 0 || db == nil || db.wal == nil {
		return nil
	}
	return db.wal.WaitDurable(seq)
}
