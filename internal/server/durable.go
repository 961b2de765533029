package server

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"altindex"
	"altindex/internal/failpoint"
	"altindex/internal/snapio"
	"altindex/internal/wal"
)

// Durability layout: a durable altdb keyspace lives in one directory:
//
//	<dir>/base-<gen>.snap       full index snapshot (ALTIX format) for
//	                            generation gen; written by compaction
//	<dir>/delta-<gen>-<n>.snap  n-th incremental checkpoint of generation
//	                            gen: the keys dirtied since the previous
//	                            checkpoint, as set records and tombstones
//	<dir>/CHECKPOINT            snapio-framed JSON: {generation, deltas, lsn}
//	<dir>/wal/                  WAL segments (see internal/wal)
//
// Writes ack only after their redo record reaches the WAL's commit point.
// Incremental checkpoints are non-blocking: they drain the dirty-key set
// into a small delta file and truncate the log, without pausing writers.
// When the delta chain grows past maxDeltas, compaction takes the write
// gate, saves a fresh full base under the next generation number and
// resets the chain. Base files are never overwritten in place — a crash
// mid-compaction leaves the previous generation's base + deltas + meta
// fully intact, because the CHECKPOINT meta flips generations atomically
// (snapio rename) only after the new base is durable.
//
// Recovery order is meta -> base -> deltas (in order) -> WAL replay above
// the meta's LSN. Each stage refuses on corruption rather than serving
// partial data. Replay is idempotent (set is an upsert, delete tolerates
// absence), so a crash between checkpoint publish and log truncation
// merely re-applies a prefix the checkpoint already covers.
//
// Storage faults: the first write, fsync or rotate error wedges the log
// for the life of the process (wal.Log.Err). From then on every mutation
// is refused under its stripe lock, before it touches the index, with a
// readOnlyError (ERR READONLY on the wire); reads keep serving the state
// that was acked; checkpoints neither publish nor truncate, because each
// one first syncs the log it is about to cover. Restarting on a healthy
// disk recovers exactly what the old log holds. A fault on the checkpoint
// side (delta, base or meta write) wedges nothing: the drained keys are
// re-marked, the previous chain stays published and the next checkpoint
// retries.

// fpCkptPublish fires between writing a checkpoint's payload files and
// publishing its CHECKPOINT meta — the edge where a crash must leave the
// previous checkpoint generation intact and the new files ignored.
var fpCkptPublish = failpoint.New("altdb/checkpoint/publish")

// Redo record opcodes for the flat u64 -> u64 keyspace.
const (
	recSet  byte = 1 // [u64 key][u64 value]; replay only — old logs hold it, nothing writes it
	recDel  byte = 2 // [u64 key]
	recMput byte = 3 // [u32 n][n × (u64 key, u64 value)]
)

// Delta-file entry kinds.
const (
	deltaTombstone byte = 0 // [u64 key]
	deltaSet       byte = 1 // [u64 key][u64 value]
)

const ckptMetaName = "CHECKPOINT"

// durableConfig tunes the durable store; zero values select defaults.
type durableConfig struct {
	Dir string
	WAL wal.Options
	// CheckpointInterval is the cadence of automatic incremental
	// checkpoints (default 15s; negative disables the background loop —
	// used by tests that drive checkpoints explicitly).
	CheckpointInterval time.Duration
}

func (c durableConfig) withDefaults() durableConfig {
	if c.CheckpointInterval == 0 {
		c.CheckpointInterval = 15 * time.Second
	}
	return c
}

// maxDeltas is the delta-chain length that triggers compaction into a
// fresh full base.
const maxDeltas = 8

// ckptMeta is the CHECKPOINT file payload.
type ckptMeta struct {
	Generation int    `json:"generation"` // 0 = no base file yet
	Deltas     int    `json:"deltas"`     // delta files in this generation
	LSN        uint64 `json:"lsn"`        // state covers all records <= LSN
}

// durableStore wraps the server's index with a write-ahead log and the
// incremental checkpoint machinery.
type durableStore struct {
	cfg durableConfig
	idx altindex.Index
	log *wal.Log

	// gate is held shared by every mutator and exclusively by compaction,
	// whose full-base save needs a quiescent index. stripes serialise
	// mutators per key so a key's apply and its log append are atomic
	// together — per-key log order equals apply order.
	gate    sync.RWMutex
	stripes [64]sync.Mutex

	// dirty is the set of keys mutated since the last checkpoint. A key is
	// marked before its record is appended, so at checkpoint time the
	// drained set covers every key with a record at or below LastSeq().
	dmu   sync.Mutex
	dirty map[uint64]struct{}

	// cmu serialises checkpoints/compactions; gen/deltas are the published
	// on-disk chain shape, guarded by cmu.
	cmu    sync.Mutex
	gen    int
	deltas int

	replayed int64
	lastCkpt atomic.Int64 // unix seconds of the last published checkpoint

	stop chan struct{}
	done chan struct{}
}

// openDurable recovers (or creates) a durable keyspace in cfg.Dir and
// arms logging and the background checkpoint loop.
func openDurable(cfg durableConfig) (_ *durableStore, err error) {
	cfg = cfg.withDefaults()
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, err
	}
	gcStaleTemps(cfg.Dir)

	var meta ckptMeta
	metaPath := filepath.Join(cfg.Dir, ckptMetaName)
	switch raw, err := snapio.ReadFile(metaPath); {
	case err == nil:
		if jerr := json.Unmarshal(raw, &meta); jerr != nil {
			return nil, fmt.Errorf("altdb: checkpoint meta: %w", jerr)
		}
	case errors.Is(err, os.ErrNotExist):
		// First boot.
	default:
		return nil, fmt.Errorf("altdb: checkpoint meta: %w", err)
	}

	idx := altindex.New(altindex.Options{})
	if meta.Generation > 0 {
		loaded, err := altindex.Load(basePath(cfg.Dir, meta.Generation), altindex.Options{})
		if err != nil {
			return nil, fmt.Errorf("altdb: recovery needs base generation %d it cannot read: %w",
				meta.Generation, err)
		}
		idx = loaded
	}
	// Replaying deltas and the log can grow the index past its retraining
	// trigger; a failed recovery must not leave those workers behind.
	defer func() {
		if err != nil {
			idx.Close()
		}
	}()
	d := &durableStore{
		cfg:    cfg,
		idx:    idx,
		dirty:  map[uint64]struct{}{},
		gen:    meta.Generation,
		deltas: meta.Deltas,
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	for n := 1; n <= meta.Deltas; n++ {
		if err := d.applyDelta(deltaPath(cfg.Dir, meta.Generation, n)); err != nil {
			return nil, fmt.Errorf("altdb: recovery: delta %d of generation %d: %w",
				n, meta.Generation, err)
		}
	}
	wlog, err := wal.Open(filepath.Join(cfg.Dir, "wal"), cfg.WAL)
	if err != nil {
		return nil, err
	}
	replayed, err := wlog.Replay(meta.LSN, func(_ uint64, payload []byte) error {
		return d.applyRecord(payload)
	})
	if err != nil {
		wlog.Close()
		return nil, fmt.Errorf("altdb: replay: %w", err)
	}
	d.log = wlog
	d.replayed = int64(replayed)
	// Best-effort checkpoint age across restarts: the meta's mtime.
	d.lastCkpt.Store(time.Now().Unix())
	if fi, err := os.Stat(metaPath); err == nil {
		d.lastCkpt.Store(fi.ModTime().Unix())
	}
	if cfg.CheckpointInterval > 0 {
		go d.checkpointLoop()
	} else {
		close(d.done)
	}
	return d, nil
}

// gcStaleTemps removes snapio temp files a crash may have stranded. The
// atomic-rename protocol means a .tmp is never part of recovery state.
func gcStaleTemps(dir string) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range ents {
		if filepath.Ext(e.Name()) == ".tmp" {
			os.Remove(filepath.Join(dir, e.Name()))
		}
	}
}

func basePath(dir string, gen int) string {
	return filepath.Join(dir, fmt.Sprintf("base-%08d.snap", gen))
}

func deltaPath(dir string, gen, n int) string {
	return filepath.Join(dir, fmt.Sprintf("delta-%08d-%04d.snap", gen, n))
}

func (d *durableStore) stripe(k uint64) *sync.Mutex {
	return &d.stripes[(k*0x9e3779b97f4a7c15)>>58]
}

func (d *durableStore) markDirty(k uint64) {
	d.dmu.Lock()
	d.dirty[k] = struct{}{}
	d.dmu.Unlock()
}

// remark puts a drained dirty set back after the checkpoint that drained
// it failed to publish.
func (d *durableStore) remark(keys map[uint64]struct{}) {
	d.dmu.Lock()
	for k := range keys {
		d.dirty[k] = struct{}{}
	}
	d.dmu.Unlock()
}

// readOnlyError is what a mutation returns once the log has wedged: the
// write was refused before it touched the index.
type readOnlyError struct{ cause error }

func (e readOnlyError) Error() string { return e.cause.Error() }

// writable reports the log's sticky failure as a readOnlyError. Mutators
// call it under their stripe locks before applying, so a write the log
// would refuse is never visible to a reader.
func (d *durableStore) writable() error {
	if err := d.log.Err(); err != nil {
		return readOnlyError{err}
	}
	return nil
}

// Del removes one key; found reports whether it existed. The ack waits
// for the tombstone record only when state actually changed.
func (d *durableStore) Del(k uint64) (bool, error) {
	found, seq, err := d.applyDel(k)
	if err != nil || !found {
		return found, err
	}
	return true, d.log.WaitDurable(seq)
}

func (d *durableStore) applyDel(k uint64) (bool, uint64, error) {
	d.gate.RLock()
	defer d.gate.RUnlock()
	m := d.stripe(k)
	m.Lock()
	defer m.Unlock()
	if err := d.writable(); err != nil {
		return false, 0, err
	}
	if !d.idx.Remove(k) {
		return false, 0, nil
	}
	d.markDirty(k)
	seq, err := d.log.Append(encDel(k))
	return true, seq, err
}

// Mput batch-upserts pairs as one redo record.
func (d *durableStore) Mput(pairs []altindex.KV) error {
	seq, err := d.applyMput(pairs)
	if err != nil {
		return err
	}
	return d.log.WaitDurable(seq)
}

func (d *durableStore) applyMput(pairs []altindex.KV) (uint64, error) {
	d.gate.RLock()
	defer d.gate.RUnlock()
	// Lock every touched stripe in ascending order (deadlock-free against
	// single-stripe mutators) so the batch's apply+append is atomic per key.
	var touched [64]bool
	for _, p := range pairs {
		touched[(p.Key*0x9e3779b97f4a7c15)>>58] = true
	}
	for i := range touched {
		if touched[i] {
			d.stripes[i].Lock()
		}
	}
	defer func() {
		for i := range touched {
			if touched[i] {
				d.stripes[i].Unlock()
			}
		}
	}()
	if err := d.writable(); err != nil {
		return 0, err
	}
	if err := d.idx.InsertBatch(pairs); err != nil {
		return 0, err
	}
	for _, p := range pairs {
		d.markDirty(p.Key)
	}
	return d.log.Append(encMput(pairs))
}

// applyRecord applies one redo record during replay; idempotent. Every
// replayed key is marked dirty: a replayed record is state above the
// published checkpoint LSN, so this process's next incremental checkpoint
// must carry it in a delta. (Without the mark, the next checkpoint would
// advance the meta LSN past the record with no delta covering its key —
// and the recovery after that would lose it. The crash matrix found
// exactly this at the wal/truncate kill site.)
func (d *durableStore) applyRecord(payload []byte) error {
	if len(payload) < 1 {
		return errors.New("altdb: empty redo record")
	}
	op, rest := payload[0], payload[1:]
	switch op {
	case recSet:
		if len(rest) != 16 {
			return errors.New("altdb: malformed set record")
		}
		k := binary.LittleEndian.Uint64(rest)
		d.markDirty(k)
		return d.idx.Insert(k, binary.LittleEndian.Uint64(rest[8:]))
	case recDel:
		if len(rest) != 8 {
			return errors.New("altdb: malformed delete record")
		}
		k := binary.LittleEndian.Uint64(rest)
		d.markDirty(k)
		d.idx.Remove(k)
		return nil
	case recMput:
		if len(rest) < 4 {
			return errors.New("altdb: malformed mput record")
		}
		n := int(binary.LittleEndian.Uint32(rest))
		rest = rest[4:]
		if len(rest) != 16*n {
			return errors.New("altdb: malformed mput record")
		}
		pairs := make([]altindex.KV, n)
		for i := range pairs {
			pairs[i] = altindex.KV{
				Key:   binary.LittleEndian.Uint64(rest[16*i:]),
				Value: binary.LittleEndian.Uint64(rest[16*i+8:]),
			}
			d.markDirty(pairs[i].Key)
		}
		return d.idx.InsertBatch(pairs)
	}
	return fmt.Errorf("altdb: unknown redo opcode %d", op)
}

func encDel(k uint64) []byte {
	buf := make([]byte, 9)
	buf[0] = recDel
	binary.LittleEndian.PutUint64(buf[1:], k)
	return buf
}

func encMput(pairs []altindex.KV) []byte {
	buf := make([]byte, 5+16*len(pairs))
	buf[0] = recMput
	binary.LittleEndian.PutUint32(buf[1:], uint32(len(pairs)))
	for i, p := range pairs {
		binary.LittleEndian.PutUint64(buf[5+16*i:], p.Key)
		binary.LittleEndian.PutUint64(buf[5+16*i+8:], p.Value)
	}
	return buf
}

// checkpointLoop runs incremental checkpoints on the configured cadence
// and compacts when the delta chain grows long.
func (d *durableStore) checkpointLoop() {
	defer close(d.done)
	tick := time.NewTicker(d.cfg.CheckpointInterval)
	defer tick.Stop()
	for {
		select {
		case <-d.stop:
			return
		case <-tick.C:
			if err := d.log.Err(); err != nil {
				log.Printf("event=checkpoint_skipped reason=wal_wedged error=%q", err.Error())
			} else if err := d.Checkpoint(); err != nil {
				log.Printf("event=checkpoint_failed error=%q", err.Error())
			}
		}
	}
}

// Checkpoint publishes one incremental checkpoint: the dirty-key set as a
// delta file, the CHECKPOINT meta, then log truncation. Writers are not
// paused. When the delta chain reaches maxDeltas, it compacts instead.
func (d *durableStore) Checkpoint() error {
	d.cmu.Lock()
	defer d.cmu.Unlock()
	if d.deltas >= maxDeltas {
		return d.compactLocked()
	}
	return d.deltaLocked()
}

// Compact forces a full-base compaction (used at shutdown, so a restart
// loads one base and replays nothing).
func (d *durableStore) Compact() error {
	d.cmu.Lock()
	defer d.cmu.Unlock()
	return d.compactLocked()
}

func (d *durableStore) deltaLocked() error {
	// The LSN a meta names must already be on disk: a meta ahead of the
	// log would make the next process reuse sequence numbers that replay
	// then skips. Sync also returns the sticky cause of a wedged log, so a
	// wedged store drains, publishes and truncates nothing.
	if err := d.log.Sync(); err != nil {
		return err
	}
	// The LSN is read BEFORE the dirty set is drained: a record at or
	// below it had its key marked before its append, and the append
	// happened before this read, so the mark is in the set we drain. The
	// set may also hold keys from newer records — their delta values are
	// then at least as new as the log suffix that re-applies them, and
	// replay's idempotence makes that converge.
	lsn := d.log.DurableSeq()
	d.dmu.Lock()
	dirty := d.dirty
	d.dirty = make(map[uint64]struct{}, 64)
	d.dmu.Unlock()

	n := d.deltas
	var err error
	if len(dirty) > 0 {
		n++
		err = d.writeDelta(deltaPath(d.cfg.Dir, d.gen, n), dirty)
	}
	if err == nil {
		err = fpCkptPublish.InjectErr()
	}
	if err == nil {
		err = d.writeMeta(ckptMeta{Generation: d.gen, Deltas: n, LSN: lsn})
	}
	if err != nil {
		// Nothing was published or truncated: the drained keys go back so
		// the next checkpoint retries them (it overwrites delta n, which
		// no meta names).
		d.remark(dirty)
		return err
	}
	d.deltas = n
	d.lastCkpt.Store(time.Now().Unix())
	return d.log.TruncateBelow(lsn + 1)
}

// compactLocked saves a full base under the next generation number,
// flips the meta to it, and garbage-collects the previous generation. It
// holds the write gate: the base must be an exact cut of the log.
func (d *durableStore) compactLocked() error {
	d.gate.Lock()
	// As in deltaLocked: the LSN goes to disk first, and a wedged log
	// stops the compaction here.
	if err := d.log.Sync(); err != nil {
		d.gate.Unlock()
		return err
	}
	d.idx.Quiesce()
	// Writers are gated and every append happens under a stripe lock after
	// its apply, so the quiescent index is exactly the state at LastSeq.
	lsn := d.log.LastSeq()
	// The base covers every key marked so far. The set is drained while
	// writers are still gated: a key marked after the gate reopens has a
	// record above lsn that this base does not hold, and wiping its mark
	// would let the next delta checkpoint step over that record.
	d.dmu.Lock()
	covered := d.dirty
	d.dirty = map[uint64]struct{}{}
	d.dmu.Unlock()
	newGen := d.gen + 1
	err := altindex.Save(d.idx, basePath(d.cfg.Dir, newGen))
	d.gate.Unlock() // meta publish and gc don't need the gate
	if err == nil {
		err = fpCkptPublish.InjectErr()
	}
	if err == nil {
		err = d.writeMeta(ckptMeta{Generation: newGen, Deltas: 0, LSN: lsn})
	}
	if err != nil {
		d.remark(covered) // the base was not published; the old chain still needs them
		return err
	}
	oldGen, oldDeltas := d.gen, d.deltas
	d.gen, d.deltas = newGen, 0
	d.lastCkpt.Store(time.Now().Unix())
	terr := d.log.TruncateBelow(lsn + 1)
	// The old generation is unreachable from the published meta; removing
	// it is best-effort cleanup, not correctness.
	if oldGen > 0 {
		os.Remove(basePath(d.cfg.Dir, oldGen))
	}
	for n := 1; n <= oldDeltas; n++ {
		os.Remove(deltaPath(d.cfg.Dir, oldGen, n))
	}
	return terr
}

// writeDelta persists the dirty keys' current state: a set record for a
// live key, a tombstone for a deleted one. Keys are written sorted so the
// file is deterministic for a given state.
func (d *durableStore) writeDelta(path string, dirty map[uint64]struct{}) error {
	keys := make([]uint64, 0, len(dirty))
	for k := range dirty {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return snapio.WriteFile(path, func(w io.Writer) error {
		var hdr [4]byte
		binary.LittleEndian.PutUint32(hdr[:], uint32(len(keys)))
		if _, err := w.Write(hdr[:]); err != nil {
			return err
		}
		var rec [17]byte
		for _, k := range keys {
			if v, ok := d.idx.Get(k); ok {
				rec[0] = deltaSet
				binary.LittleEndian.PutUint64(rec[1:], k)
				binary.LittleEndian.PutUint64(rec[9:], v)
				if _, err := w.Write(rec[:17]); err != nil {
					return err
				}
			} else {
				rec[0] = deltaTombstone
				binary.LittleEndian.PutUint64(rec[1:], k)
				if _, err := w.Write(rec[:9]); err != nil {
					return err
				}
			}
		}
		return nil
	})
}

// applyDelta replays one delta file into the index during recovery.
func (d *durableStore) applyDelta(path string) error {
	raw, err := snapio.ReadFile(path)
	if err != nil {
		return err
	}
	if len(raw) < 4 {
		return errors.New("truncated delta header")
	}
	n := int(binary.LittleEndian.Uint32(raw))
	raw = raw[4:]
	for i := 0; i < n; i++ {
		if len(raw) < 9 {
			return errors.New("truncated delta entry")
		}
		kind := raw[0]
		k := binary.LittleEndian.Uint64(raw[1:])
		switch kind {
		case deltaSet:
			if len(raw) < 17 {
				return errors.New("truncated delta entry")
			}
			if err := d.idx.Insert(k, binary.LittleEndian.Uint64(raw[9:])); err != nil {
				return err
			}
			raw = raw[17:]
		case deltaTombstone:
			d.idx.Remove(k)
			raw = raw[9:]
		default:
			return fmt.Errorf("unknown delta entry kind %d", kind)
		}
	}
	if len(raw) != 0 {
		return errors.New("delta entries past declared count")
	}
	return nil
}

func (d *durableStore) writeMeta(meta ckptMeta) error {
	raw, err := json.Marshal(meta)
	if err != nil {
		return err
	}
	return snapio.WriteFile(filepath.Join(d.cfg.Dir, ckptMetaName), func(w io.Writer) error {
		_, werr := w.Write(raw)
		return werr
	})
}

// Stats surfaces the durability counters merged into the STATS reply.
func (d *durableStore) Stats() map[string]int64 {
	st := d.log.Stats()
	d.cmu.Lock()
	gen, deltas := d.gen, d.deltas
	d.cmu.Unlock()
	var wedged int64
	if d.log.Err() != nil {
		wedged = 1
	}
	return map[string]int64{
		"wal_wedged":            wedged,
		"wal_appends":           st.Appends,
		"wal_fsyncs":            st.Fsyncs,
		"wal_batches":           st.Batches,
		"wal_bytes":             st.Bytes,
		"wal_segments":          st.Segments,
		"replayed_records":      d.replayed,
		"truncated_tail_bytes":  st.TruncatedTailBytes,
		"last_checkpoint_age_s": time.Now().Unix() - d.lastCkpt.Load(),
		"checkpoint_generation": int64(gen),
		"checkpoint_deltas":     int64(deltas),
	}
}

// Close stops the checkpoint loop, compacts one final full checkpoint (so
// the next start loads a single base and replays nothing), and closes the
// log. A failed final checkpoint is reported but the log still closes —
// the WAL alone fully covers the un-checkpointed suffix.
func (d *durableStore) Close() error {
	select {
	case <-d.stop:
	default:
		close(d.stop)
	}
	<-d.done
	err := d.Compact()
	if cerr := d.log.Close(); cerr != nil && !errors.Is(cerr, wal.ErrClosed) {
		err = errors.Join(err, cerr)
	}
	return err
}
