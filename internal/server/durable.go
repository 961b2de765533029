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
	"altindex/internal/fsys"
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
// LSN and removes generation gen. Bases are never overwritten in place
// and the meta flip (a snapio rename) is the only publication point, so
// a crash anywhere leaves the published base and meta intact. Every disk
// change goes through internal/fsys, where TestCrashImages checks each
// state a kill or a power loss can leave.
//
// Recovery is a read-only plan, then one apply. The plan (planRecovery)
// makes every read and check: the meta, the base, and the WAL records
// above the meta's LSN replayed onto the base in memory (idempotently:
// mput is an upsert, delete tolerates absence). The apply reads nothing:
// it removes stale files, opens the log on the tail the plan read and
// starts the checkpoint loop. The plan refuses, changing no file, a
// corrupt file, a log that does not hold every seq above the LSN (one
// starting above LSN+1 is missing records; one ending below the LSN would
// hand out seqs replay then skips), and what only earlier builds wrote: a
// base in another format, a meta counting delta-<gen>-<n>.snap files
// ("deltas" > 0) or a record with another opcode. Each holds acked
// writes; serving without them would lose them silently.
//
// Storage faults (DESIGN.md §8): the first write or fsync error wedges
// the log for the life of the process (wal.Log.Err), and every mutation
// is then refused under its stripe lock, before it touches the index,
// with a readOnlyError (ERR READONLY on the wire); reads keep serving,
// checkpoints neither publish nor truncate (each first syncs the log it
// covers) and a restart on a healthy disk recovers what the log holds. A
// fault on the checkpoint side wedges nothing: the previous base and
// meta stay published and the next tick retries.

// Redo record opcodes for the flat u64 -> u64 keyspace. Opcode 1, a
// single-pair set only earlier builds wrote, is refused like any unknown
// opcode.
const (
	recDel  byte = 2 // [u64 key]
	recMput byte = 3 // [u32 n][n × (u64 key, u64 value)]
)

const ckptMetaName = "CHECKPOINT"

// ckptMeta is the CHECKPOINT file payload.
type ckptMeta struct {
	Generation int    `json:"generation"`       // 0 = no base file yet
	Deltas     int    `json:"deltas,omitempty"` // earlier builds' delta files; open refuses any
	LSN        uint64 `json:"lsn"`              // state covers all records <= LSN
}

// durableStore wraps the server's index with a write-ahead log and the
// checkpoint machinery.
type durableStore struct {
	cfg Config // WALDir and CheckpointInterval
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

// recoveryPlan is what planRecovery read: the store the base and the log
// above the meta's LSN rebuild (still without a log), the log's tail, the
// files no recovery reads, and the time to read the meta and listing, to
// load the base and to replay the log.
type recoveryPlan struct {
	*durableStore
	tail               wal.Tail
	stale              []string
	read, load, replay time.Duration
}

// planRecovery makes every read and every check that can refuse an open
// of dir, and rebuilds the recovered index in memory. It creates, writes,
// renames and removes nothing, so a refused open leaves dir as it was.
func planRecovery(dir string) (p recoveryPlan, err error) {
	lap := time.Now()
	var meta ckptMeta
	switch raw, err := snapio.ReadFile(filepath.Join(dir, ckptMetaName)); {
	case err == nil:
		if jerr := json.Unmarshal(raw, &meta); jerr != nil {
			return p, fmt.Errorf("altdb: checkpoint meta: %w", jerr)
		}
		if meta.Deltas > 0 {
			return p, fmt.Errorf("altdb: checkpoint meta counts %d delta file(s) (delta-%08d-*.snap) after base generation %d: "+
				"only earlier builds wrote them, and this build does not read them", meta.Deltas, meta.Generation, meta.Generation)
		}
	case !errors.Is(err, os.ErrNotExist):
		return p, fmt.Errorf("altdb: checkpoint meta: %w", err)
	}
	// Stale files are what no recovery reads: snapio temp files a crash
	// stranded, and every base but the one the meta names (a crash around
	// a checkpoint's meta flip leaves one). With no base named, all stay.
	ents, err := os.ReadDir(dir)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return p, err
	}
	for _, e := range ents {
		path := filepath.Join(dir, e.Name())
		if filepath.Ext(path) == ".tmp" || meta.Generation > 0 && strings.HasPrefix(e.Name(), "base-") && path != basePath(dir, meta.Generation) {
			p.stale = append(p.stale, path)
		}
	}
	d := &durableStore{stop: make(chan struct{}), done: make(chan struct{})}
	d.gen.Store(int64(meta.Generation))
	// Best-effort checkpoint age across restarts: the meta's mtime.
	d.lastCkpt.Store(time.Now().Unix())
	if fi, err := os.Stat(filepath.Join(dir, ckptMetaName)); err == nil {
		d.lastCkpt.Store(fi.ModTime().Unix())
	}
	p.read, lap = time.Since(lap), time.Now()
	if meta.Generation == 0 {
		d.idx = altindex.New(altindex.Options{})
	} else {
		path := basePath(dir, meta.Generation)
		if d.idx, err = altindex.Load(path, altindex.Options{}); err != nil {
			return p, fmt.Errorf("altdb: recovery needs base generation %d it cannot read: %w", meta.Generation, err)
		}
		if fi, err := os.Stat(path); err == nil {
			d.baseBytes = fi.Size()
		}
	}
	p.load, lap = time.Since(lap), time.Now()
	p.tail, err = wal.Read(filepath.Join(dir, "wal"), meta.LSN, func(_ uint64, rec []byte) error {
		d.logMark -= wal.FrameHeader + int64(len(rec))
		return d.applyRecord(rec)
	})
	switch t := p.tail; {
	case err != nil:
	case t.LastSeq < meta.LSN:
		err = fmt.Errorf("the log ends at seq %d, below the checkpoint's LSN %d", t.LastSeq, meta.LSN)
	case t.FirstSeq > meta.LSN+1:
		err = fmt.Errorf("the log starts at seq %d, above the checkpoint's LSN %d + 1", t.FirstSeq, meta.LSN)
	}
	if err != nil {
		// Replaying the log can grow the index past its retraining
		// trigger; a refused open must not leave those workers behind.
		d.idx.Close()
		return p, fmt.Errorf("altdb: replay: %w", err)
	}
	d.replayed = int64(p.tail.Records)
	p.durableStore, p.replay = d, time.Since(lap)
	return p, nil
}

// openDurable recovers (or creates) the durable keyspace in cfg.WALDir:
// planRecovery, then apply.
func openDurable(cfg Config, opts wal.Options) (*durableStore, error) {
	p, err := planRecovery(cfg.WALDir)
	if err != nil {
		return nil, err
	}
	return p.apply(cfg, opts)
}

// apply opens the store p planned for cfg.WALDir, reading nothing: it
// removes the stale files, opens the log on the tail the plan read and
// starts the checkpoint loop. Its errors are failed creates and writes.
func (p recoveryPlan) apply(cfg Config, opts wal.Options) (*durableStore, error) {
	t0 := time.Now()
	for _, path := range p.stale {
		fsys.Remove(path) // best effort: one left behind is stale again at the next open
	}
	d := p.durableStore
	var err error
	if d.log, err = p.tail.Open(opts); err != nil {
		d.idx.Close()
		return nil, err
	}
	d.cfg = cfg
	if cfg.CheckpointInterval > 0 {
		go d.checkpointLoop()
	} else {
		close(d.done)
	}
	log.Printf("event=recovered generation=%d records=%d plan_io_s=%.3f base_load_s=%.3f replay_s=%.3f apply_s=%.3f",
		d.gen.Load(), d.replayed, p.read.Seconds(), p.load.Seconds(), p.replay.Seconds(), time.Since(t0).Seconds())
	return d, nil
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
	path := basePath(d.cfg.WALDir, old+1)
	err := altindex.Save(d.idx, path)
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
		fsys.Remove(basePath(d.cfg.WALDir, old))
	}
	return terr
}

func (d *durableStore) writeMeta(meta ckptMeta) error {
	raw, err := json.Marshal(meta)
	if err != nil {
		return err
	}
	return snapio.WriteFile(filepath.Join(d.cfg.WALDir, ckptMetaName), func(w io.Writer) error {
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
