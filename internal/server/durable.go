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
	"strings"
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
//	<dir>/base-<gen>.snap  full index snapshot (ALTIX001, altindex.Save)
//	                       written by checkpoint generation gen
//	<dir>/CHECKPOINT       snapio-framed JSON: {generation, lsn}
//	<dir>/wal/             WAL segments (see internal/wal)
//
// Writes ack only after their redo record reaches the WAL's commit point.
// A checkpoint walks the live index into base-<gen+1> while writers keep
// running, flips the CHECKPOINT meta to it, truncates the log below its
// LSN and removes generation gen. Base files are never overwritten in
// place and the meta flip (a snapio rename) is the only publication point,
// so a crash anywhere leaves the published base and meta intact.
//
// Recovery order is meta -> base -> WAL replay above the meta's LSN. Each
// stage refuses on corruption rather than serving partial data. Replay is
// idempotent (mput is an upsert, delete tolerates absence), so a record the
// base already holds merely re-applies.
//
// These are the only files open reads, each in one format. It refuses by
// name, changing no file, what only earlier builds wrote: a base in
// another format (altindex.Load names its magic), a meta counting
// delta-<gen>-<n>.snap files ("deltas" > 0) or a record with another
// opcode. Each holds acked writes; dropping it would lose them silently.
//
// Storage faults: the first write, fsync or rotate error wedges the log
// for the life of the process (wal.Log.Err). From then on every mutation
// is refused under its stripe lock, before it touches the index, with a
// readOnlyError (ERR READONLY on the wire); reads keep serving the state
// that was acked; checkpoints neither publish nor truncate, because each
// one first syncs the log it is about to cover. Restarting on a healthy
// disk recovers exactly what the old log holds. A fault on the checkpoint
// side (base or meta write) wedges nothing: the previous base and meta
// stay published, the log stays untruncated and the next tick retries.

// fpCkptPublish fires between writing a checkpoint's payload files and
// publishing its CHECKPOINT meta — the edge where a crash must leave the
// previous checkpoint generation intact and the new files ignored.
var fpCkptPublish = failpoint.New("altdb/checkpoint/publish")

// Redo record opcodes for the flat u64 -> u64 keyspace. Opcode 1, a
// single-pair set only earlier builds wrote, is refused like any unknown
// opcode.
const (
	recDel  byte = 2 // [u64 key]
	recMput byte = 3 // [u32 n][n × (u64 key, u64 value)]
)

const ckptMetaName = "CHECKPOINT"

// durableConfig tunes the durable store; zero values select defaults.
type durableConfig struct {
	Dir string
	WAL wal.Options
	// CheckpointInterval is how often the background loop asks whether a
	// checkpoint is due (default 15s; negative disables the loop — used by
	// tests that drive checkpoints explicitly).
	CheckpointInterval time.Duration
}

func (c durableConfig) withDefaults() durableConfig {
	if c.CheckpointInterval == 0 {
		c.CheckpointInterval = 15 * time.Second
	}
	return c
}

// ckptMeta is the CHECKPOINT file payload.
type ckptMeta struct {
	Generation int    `json:"generation"`       // 0 = no base file yet
	Deltas     int    `json:"deltas,omitempty"` // earlier builds' delta files; open refuses any
	LSN        uint64 `json:"lsn"`              // state covers all records <= LSN
}

// durableStore wraps the server's index with a write-ahead log and the
// checkpoint machinery.
type durableStore struct {
	cfg durableConfig
	idx altindex.Index
	log *wal.Log

	// stripes serialise mutators per key so a key's apply and its log
	// append are atomic together — per-key log order equals apply order.
	// They are the only locks a write takes.
	stripes [64]sync.Mutex

	// cmu serialises checkpoints and guards the published shape:
	// baseBytes is the size of its base and logMark the log's
	// Stats().Bytes at its LSN (minus the bytes replayed at open), so
	// Stats().Bytes-logMark is the log above it. gen, the published
	// generation, is written under cmu too.
	cmu       sync.Mutex
	gen       atomic.Int64
	baseBytes int64
	logMark   int64

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

	var meta ckptMeta
	metaPath := filepath.Join(cfg.Dir, ckptMetaName)
	switch raw, err := snapio.ReadFile(metaPath); {
	case err == nil:
		if jerr := json.Unmarshal(raw, &meta); jerr != nil {
			return nil, fmt.Errorf("altdb: checkpoint meta: %w", jerr)
		}
		if meta.Deltas > 0 {
			return nil, fmt.Errorf("altdb: checkpoint meta counts %d delta file(s) (delta-%08d-*.snap) after base generation %d: "+
				"only earlier builds wrote them, and this build does not read them", meta.Deltas, meta.Generation, meta.Generation)
		}
		gcStale(cfg.Dir, &meta)
	case errors.Is(err, os.ErrNotExist):
		gcStale(cfg.Dir, nil) // first boot
	default:
		return nil, fmt.Errorf("altdb: checkpoint meta: %w", err)
	}

	idx := altindex.New(altindex.Options{})
	var baseBytes int64
	if meta.Generation > 0 {
		path := basePath(cfg.Dir, meta.Generation)
		loaded, err := altindex.Load(path, altindex.Options{})
		if err != nil {
			return nil, fmt.Errorf("altdb: recovery needs base generation %d it cannot read: %w",
				meta.Generation, err)
		}
		idx = loaded
		if fi, err := os.Stat(path); err == nil {
			baseBytes = fi.Size()
		}
	}
	// Replaying the log can grow the index past its retraining
	// trigger; a failed recovery must not leave those workers behind.
	defer func() {
		if err != nil {
			idx.Close()
		}
	}()
	d := &durableStore{
		cfg:       cfg,
		idx:       idx,
		baseBytes: baseBytes,
		stop:      make(chan struct{}),
		done:      make(chan struct{}),
	}
	d.gen.Store(int64(meta.Generation))
	wlog, err := wal.Open(filepath.Join(cfg.Dir, "wal"), cfg.WAL)
	if err != nil {
		return nil, err
	}
	replayed, err := wlog.Replay(meta.LSN, func(_ uint64, payload []byte) error {
		d.logMark -= wal.FrameHeader + int64(len(payload))
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

// gcStale removes the files no recovery reads: snapio temp files a crash
// stranded, and every base file the meta does not name — a crash between
// the meta flip and the previous generation's removal leaves that
// generation behind, and one before the flip an unpublished base. Without
// a meta (nil) it removes temp files only: a base with no meta naming it
// is not read, but it is not this process's to delete.
func gcStale(dir string, meta *ckptMeta) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range ents {
		name := e.Name()
		stale := meta != nil && strings.HasPrefix(name, "base-") && name != filepath.Base(basePath(dir, meta.Generation))
		if filepath.Ext(name) == ".tmp" || stale {
			os.Remove(filepath.Join(dir, name))
		}
	}
}

func basePath(dir string, gen int) string {
	return filepath.Join(dir, fmt.Sprintf("base-%08d.snap", gen))
}

func (d *durableStore) stripe(k uint64) *sync.Mutex {
	return &d.stripes[(k*0x9e3779b97f4a7c15)>>58]
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
	m := d.stripe(k)
	m.Lock()
	defer m.Unlock()
	if err := d.writable(); err != nil {
		return false, 0, err
	}
	if !d.idx.Remove(k) {
		return false, 0, nil
	}
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
	return d.log.Append(encMput(pairs))
}

// applyRecord applies one redo record during replay; idempotent.
func (d *durableStore) applyRecord(payload []byte) error {
	if len(payload) < 1 {
		return errors.New("altdb: empty redo record")
	}
	op, rest := payload[0], payload[1:]
	switch op {
	case recDel:
		if len(rest) != 8 {
			return errors.New("altdb: malformed delete record")
		}
		d.idx.Remove(binary.LittleEndian.Uint64(rest))
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

// checkpointLoop checks on the configured cadence whether a checkpoint
// is due and writes one when it is.
func (d *durableStore) checkpointLoop() {
	defer close(d.done)
	tick := time.NewTicker(d.cfg.CheckpointInterval)
	defer tick.Stop()
	for {
		select {
		case <-d.stop:
			return
		case <-tick.C:
			switch err := d.log.Err(); {
			case err != nil:
				log.Printf("event=checkpoint_skipped reason=wal_wedged error=%q", err.Error())
			case d.due():
				if err := d.Checkpoint(); err != nil {
					log.Printf("event=checkpoint_failed error=%q", err.Error())
				}
			}
		}
	}
}

// due reports whether the log above the published LSN has grown to the
// size of the published base. Checkpointing then keeps checkpoint I/O at
// most the log's own bytes, and a recovery replays at most one base's
// worth of log on top of the base it loads.
func (d *durableStore) due() bool {
	above, base := d.above()
	return above > 0 && above >= base
}

// above returns the bytes the log holds above the published LSN and the
// size of the published base.
func (d *durableStore) above() (logBytes, baseBytes int64) {
	d.cmu.Lock()
	defer d.cmu.Unlock()
	return d.log.Stats().Bytes - d.logMark, d.baseBytes
}

// Checkpoint writes the live index as base generation gen+1, publishes it
// in the CHECKPOINT meta, truncates the log below its LSN and removes
// generation gen. Writers keep running throughout. A failure before the
// meta flip leaves the previous base and meta published and the log
// whole; the next call retries and overwrites the unpublished base.
func (d *durableStore) Checkpoint() error {
	d.cmu.Lock()
	defer d.cmu.Unlock()
	// The LSN a meta names must already be on disk: a meta ahead of the
	// log would make the next process reuse sequence numbers that replay
	// then skips. Sync also returns the sticky cause of a wedged log, so a
	// wedged store publishes and truncates nothing.
	if err := d.log.Sync(); err != nil {
		return err
	}
	// The LSN is read before the walk starts. A write applies and then
	// appends under its stripe lock, so every record at or below the LSN
	// is in the index before the walk reads its key, and every later
	// change to a key has a record above the LSN. Replaying those records
	// over whatever state the walk read ends at each key's last logged
	// write, because replay is last-writer-wins per key.
	lsn := d.log.DurableSeq()
	mark := d.log.Stats().Bytes
	old := int(d.gen.Load())
	path := basePath(d.cfg.Dir, old+1)
	err := altindex.Save(d.idx, path)
	if err == nil {
		err = fpCkptPublish.InjectErr()
	}
	if err == nil {
		err = d.writeMeta(ckptMeta{Generation: old + 1, LSN: lsn})
	}
	if err != nil {
		return err
	}
	d.gen.Store(int64(old + 1))
	d.logMark = mark
	if fi, err := os.Stat(path); err == nil {
		d.baseBytes = fi.Size()
	}
	d.lastCkpt.Store(time.Now().Unix())
	terr := d.log.TruncateBelow(lsn + 1)
	// The previous generation is unreachable from the published meta;
	// removing it is cleanup, and the next open removes what a crash here
	// leaves behind.
	if old > 0 {
		os.Remove(basePath(d.cfg.Dir, old))
	}
	return terr
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
		"checkpoint_generation": d.gen.Load(),
	}
}

// Close stops the checkpoint loop, writes one final checkpoint when the
// log holds anything above the published LSN (so the next start loads a
// single base and replays nothing; an idle restart rewrites no base), and
// closes the log. A wedged log always takes the checkpoint path, which
// reports its sticky error. A failed final checkpoint is reported but the
// log still closes — the WAL alone fully covers the un-checkpointed
// suffix.
func (d *durableStore) Close() error {
	select {
	case <-d.stop:
	default:
		close(d.stop)
	}
	<-d.done
	var err error
	if above, _ := d.above(); above > 0 || d.log.Err() != nil {
		err = d.Checkpoint()
	}
	if cerr := d.log.Close(); cerr != nil && !errors.Is(cerr, wal.ErrClosed) {
		err = errors.Join(err, cerr)
	}
	return err
}
