// Package wal is a segmented write-ahead log with batched group commit,
// the durability tier under the altdb server.
//
// # Model
//
// Callers append opaque redo payloads; the log assigns each a dense,
// monotonically increasing sequence number (the LSN) and makes it durable
// according to the configured SyncPolicy. Append is a non-blocking enqueue
// (safe to call under an engine lock, so log order matches apply order);
// WaitDurable blocks until the record's commit point, and Commit combines
// the two. A single committer goroutine coalesces everything enqueued by
// concurrent appenders into one buffered write — and, under SyncAlways,
// one fsync — per wakeup, so N writers cost far fewer than N fsyncs
// (group commit, the same grouping idiom as the batched index fast path).
//
// # On-disk format
//
// A log is a directory of segment files named wal-<firstSeq:016x>.seg:
//
//	segment header: magic "ALTWAL01", u64 firstSeq
//	record frame:   u32 payloadLen, u32 crc32(seq‖payload), u64 seq, payload
//
// Records are contiguous by sequence number across segments. The log
// never appends to a pre-existing segment: Open always rotates to a fresh
// one, so a tail torn by a crash is left in place as evidence and the
// reader (see replay.go) tolerates it — a torn or half-written frame at
// the end of any segment is skipped iff the next segment continues the
// sequence exactly; any other gap is corruption and refuses to load.
//
// # Failure model
//
// The process can die at any instruction (the crash-matrix harness kills
// it at every site below with a real SIGKILL). The guarantees:
//
//   - a record whose WaitDurable returned nil under SyncAlways survives
//     any crash (it was fsynced before the wait was released);
//   - under SyncInterval/SyncNone, WaitDurable returns once the record is
//     written to the OS, so an acked record survives process death
//     (kill -9) but up to Interval (or arbitrarily much) may be lost to
//     power failure — the documented relaxation;
//   - replay never yields a record that was not fully appended, never
//     yields one twice, and never reorders (CRC framing + dense seqs);
//   - any write or fsync error wedges the log: every subsequent Append
//     and WaitDurable fails, so an engine can never ack a write the log
//     silently dropped.
//
// Failpoint sites (armed by the chaos suites and crash matrix):
//
//	wal/append    committer, before the batch write — pending records are
//	              only in process memory (none of them acked)
//	wal/sync      committer, after fsync, before waiters are released —
//	              records durable but unacked
//	wal/rotate    between finishing one segment and creating the next
//	wal/truncate  between successive segment deletions in TruncateBelow
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"altindex/internal/failpoint"
)

// SyncPolicy selects the commit point of WaitDurable.
type SyncPolicy int

const (
	// SyncAlways fsyncs every committed batch before releasing its
	// waiters: an acked write survives power loss. The group-commit
	// batching keeps fsyncs/sec well below commits/sec under concurrency.
	SyncAlways SyncPolicy = iota
	// SyncInterval acks once the record reaches the OS and fsyncs at most
	// every Options.Interval: an acked write survives kill -9 but the
	// last interval may be lost to power failure.
	SyncInterval
	// SyncNone acks once the record reaches the OS and never fsyncs
	// explicitly (the OS flushes on its own schedule).
	SyncNone
)

// String returns the flag spelling of the policy.
func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncNone:
		return "none"
	}
	return fmt.Sprintf("SyncPolicy(%d)", int(p))
}

// ParseSyncPolicy parses the -wal-sync flag spelling.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "none":
		return SyncNone, nil
	}
	return 0, fmt.Errorf("wal: unknown sync policy %q (always, interval, none)", s)
}

// Options tune a log; the zero value is the production default
// (SyncAlways, 64 MiB segments).
type Options struct {
	// Sync selects the commit point (default SyncAlways).
	Sync SyncPolicy
	// Interval is the fsync cadence under SyncInterval (default 50ms).
	Interval time.Duration
	// SegmentBytes rotates to a new segment once the current one exceeds
	// this size (default 64 MiB). Small values are for tests and the
	// crash matrix, which need rotation to actually happen.
	SegmentBytes int64
}

func (o Options) withDefaults() Options {
	if o.Interval <= 0 {
		o.Interval = 50 * time.Millisecond
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 64 << 20
	}
	return o
}

// Stats is a point-in-time counter snapshot (see Log.Stats).
type Stats struct {
	Appends            int64 // records accepted by Append
	Fsyncs             int64 // fsync calls on segment files
	Batches            int64 // committer wakeups that wrote at least one record
	Bytes              int64 // framed bytes written (excluding segment headers)
	Rotations          int64 // segment rotations since Open
	Truncations        int64 // segment files deleted by TruncateBelow
	Segments           int64 // segment files currently on disk
	TruncatedTailBytes int64 // torn bytes skipped by Open's recovery scan
	LastSeq            uint64
	DurableSeq         uint64
}

// ErrClosed is returned by operations on a closed log.
var ErrClosed = errors.New("wal: log closed")

// ErrCorrupt reports a log directory whose segments cannot be stitched
// into one contiguous record sequence (a gap that is not a tolerated torn
// tail, a foreign file, a broken sequence).
var ErrCorrupt = errors.New("wal: corrupt log")

const (
	segPrefix     = "wal-"
	segSuffix     = ".seg"
	segHeaderSize = 16
	frameHeader   = 16
	// maxRecordBytes bounds one payload; anything larger in a frame header
	// is treated as tail garbage by the reader.
	maxRecordBytes = 1 << 28
)

var segMagic = [8]byte{'A', 'L', 'T', 'W', 'A', 'L', '0', '1'}

// Failpoint sites — see the package comment for placement semantics.
var (
	fpAppend   = failpoint.New("wal/append")
	fpSync     = failpoint.New("wal/sync")
	fpRotate   = failpoint.New("wal/rotate")
	fpTruncate = failpoint.New("wal/truncate")
)

// segMeta is one on-disk segment: its path and the first sequence number
// it holds (from its header/filename).
type segMeta struct {
	path     string
	firstSeq uint64
}

// Log is an append-only segmented WAL. All methods are safe for
// concurrent use. Create with Open.
type Log struct {
	dir  string
	opts Options

	// mu guards the append side: sequence assignment, the pending buffer,
	// the segment list and the sticky error. Append holds it briefly —
	// callers may hold engine locks across Append, never across
	// WaitDurable.
	mu      sync.Mutex
	pend    []byte
	pendSeq uint64
	nextSeq uint64
	segs    []segMeta // on-disk segments, ascending firstSeq (incl. active)
	failed  error     // sticky wedge: set on the first write/fsync error
	closed  bool

	// Committer/waiter rendezvous.
	cmu       sync.Mutex
	cond      *sync.Cond
	written   uint64 // highest seq handed to the OS
	durable   uint64 // highest seq fsynced
	forceSync bool   // set by Sync: next flush fsyncs regardless of policy
	lastSync  time.Time

	// Committer-owned segment state (no lock: single goroutine).
	seg     *os.File
	segSize int64

	work chan struct{}
	quit chan struct{}
	dead chan struct{}

	// recovery holds the segments found at Open time plus the torn-tail
	// accounting; Replay reads exactly these files.
	recovery []segMeta
	lastSeq  uint64 // highest valid seq found at Open
	tornTail int64

	stAppends     atomic.Int64
	stFsyncs      atomic.Int64
	stBatches     atomic.Int64
	stBytes       atomic.Int64
	stRotations   atomic.Int64
	stTruncations atomic.Int64
}

// Open scans dir (creating it if missing), validates the record chain,
// rotates to a fresh segment and starts the committer. Use Replay before
// appending to recover state, then append freely. Torn tails left by a
// crash are tolerated and reported in Stats().TruncatedTailBytes; any
// other inconsistency returns ErrCorrupt.
func Open(dir string, opts Options) (*Log, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	l := &Log{
		dir:  dir,
		opts: opts,
		work: make(chan struct{}, 1),
		quit: make(chan struct{}),
		dead: make(chan struct{}),
	}
	l.cond = sync.NewCond(&l.cmu)
	if err := l.scan(); err != nil {
		return nil, err
	}
	l.nextSeq = l.lastSeq + 1
	l.written = l.lastSeq
	l.durable = l.lastSeq // everything pre-crash is as durable as it gets
	// A previous generation may have left a segment holding no valid
	// records (a clean close right after rotation, or a tail torn before
	// the first record landed). The fresh active segment reuses its name
	// via O_TRUNC, so drop the stale entry rather than tracking the same
	// file twice — a duplicate would let TruncateBelow delete the active
	// segment out from under the committer.
	if n := len(l.segs); n > 0 && l.segs[n-1].firstSeq == l.nextSeq {
		l.segs = l.segs[:n-1]
	}
	// Snapshot the recovery set before rotating: Replay reads exactly the
	// segments that predate this generation, so records appended after
	// Open can never be replayed back into the engine.
	l.recovery = append([]segMeta(nil), l.segs...)
	if err := l.rotate(l.nextSeq); err != nil {
		return nil, err
	}
	l.lastSync = time.Now()
	go l.committer()
	return l, nil
}

// Dir returns the log's directory.
func (l *Log) Dir() string { return l.dir }

// Append frames payload, assigns it the next sequence number and enqueues
// it for the committer. It never blocks on I/O, so it is safe to call
// under an engine's per-key lock — which is exactly what keeps log order
// identical to apply order. Durability is WaitDurable's job.
func (l *Log) Append(payload []byte) (uint64, error) {
	if len(payload) > maxRecordBytes {
		return 0, fmt.Errorf("wal: record of %d bytes exceeds the %d-byte bound", len(payload), maxRecordBytes)
	}
	l.mu.Lock()
	if err := l.usableLocked(); err != nil {
		l.mu.Unlock()
		return 0, err
	}
	seq := l.nextSeq
	l.nextSeq++
	l.pend = appendFrame(l.pend, seq, payload)
	l.pendSeq = seq
	l.mu.Unlock()
	l.stAppends.Add(1)
	select {
	case l.work <- struct{}{}:
	default:
	}
	return seq, nil
}

// WaitDurable blocks until seq has reached the policy's commit point
// (disk under SyncAlways, the OS otherwise) or the log has failed.
func (l *Log) WaitDurable(seq uint64) error {
	l.cmu.Lock()
	defer l.cmu.Unlock()
	for {
		if l.opts.Sync == SyncAlways {
			if l.durable >= seq {
				return nil
			}
		} else if l.written >= seq {
			return nil
		}
		l.mu.Lock()
		err := l.usableLocked()
		l.mu.Unlock()
		if err != nil {
			return err
		}
		l.cond.Wait()
	}
}

// Commit appends payload and waits for its commit point: the one-call
// durable write ("ack only after commit").
func (l *Log) Commit(payload []byte) (uint64, error) {
	seq, err := l.Append(payload)
	if err != nil {
		return 0, err
	}
	return seq, l.WaitDurable(seq)
}

// Sync forces everything appended so far to disk regardless of policy
// (used by checkpoints and Close).
func (l *Log) Sync() error {
	l.mu.Lock()
	target := l.nextSeq - 1
	err := l.usableLocked()
	l.mu.Unlock()
	if err != nil {
		return err
	}
	l.cmu.Lock()
	defer l.cmu.Unlock()
	for l.durable < target {
		select {
		case l.work <- struct{}{}:
		default:
		}
		l.forceSync = true
		l.cond.Wait()
		l.mu.Lock()
		err := l.usableLocked()
		l.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}

// LastSeq returns the highest sequence number assigned so far (0 if the
// log is empty). Every record at or below it has already been applied by
// its writer, which is what makes it the right checkpoint LSN.
func (l *Log) LastSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextSeq - 1
}

// DurableSeq returns the highest fsynced sequence number.
func (l *Log) DurableSeq() uint64 {
	l.cmu.Lock()
	defer l.cmu.Unlock()
	return l.durable
}

// Stats returns a counter snapshot.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	segs := int64(len(l.segs))
	last := l.nextSeq - 1
	l.mu.Unlock()
	l.cmu.Lock()
	durable := l.durable
	l.cmu.Unlock()
	return Stats{
		Appends:            l.stAppends.Load(),
		Fsyncs:             l.stFsyncs.Load(),
		Batches:            l.stBatches.Load(),
		Bytes:              l.stBytes.Load(),
		Rotations:          l.stRotations.Load(),
		Truncations:        l.stTruncations.Load(),
		Segments:           segs,
		TruncatedTailBytes: l.tornTail,
		LastSeq:            last,
		DurableSeq:         durable,
	}
}

// TruncateBelow deletes every segment whose records all have sequence
// numbers below keepFrom — called after a checkpoint covering keepFrom-1
// is durable. The active segment is never deleted. Safe to run
// concurrently with appends.
func (l *Log) TruncateBelow(keepFrom uint64) error {
	l.mu.Lock()
	// A segment's records end where the next segment begins; the last
	// entry is the active segment and always stays.
	var drop []segMeta
	for len(l.segs) > 1 && l.segs[1].firstSeq <= keepFrom {
		drop = append(drop, l.segs[0])
		l.segs = l.segs[1:]
	}
	l.mu.Unlock()
	for _, s := range drop {
		fpTruncate.Inject()
		if err := fpTruncate.InjectErr(); err != nil {
			return err
		}
		if err := os.Remove(s.path); err != nil && !errors.Is(err, os.ErrNotExist) {
			return err
		}
		l.stTruncations.Add(1)
	}
	if len(drop) > 0 {
		syncDir(l.dir)
	}
	return nil
}

// Close drains pending records, fsyncs, and stops the committer. Further
// appends return ErrClosed.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	l.mu.Unlock()
	close(l.quit)
	<-l.dead
	l.mu.Lock()
	err := l.failed
	l.mu.Unlock()
	return err
}

// Err reports why the log refuses writes — the sticky cause of the first
// hard I/O error, or ErrClosed — and nil while it accepts them. An engine
// checks it under its per-key lock before mutating, so a write the log
// would refuse never becomes visible.
func (l *Log) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.usableLocked()
}

// usableLocked reports the sticky failure state; callers hold l.mu.
func (l *Log) usableLocked() error {
	if l.failed != nil {
		return l.failed
	}
	if l.closed {
		return ErrClosed
	}
	return nil
}

// wedge records the first hard I/O error and wakes every waiter: the log
// refuses all further work, so no write is ever acked after its record
// was dropped.
func (l *Log) wedge(err error) {
	l.mu.Lock()
	if l.failed == nil {
		l.failed = fmt.Errorf("wal: log failed: %w", err)
	}
	l.mu.Unlock()
	l.cmu.Lock()
	l.cond.Broadcast()
	l.cmu.Unlock()
}

// appendFrame appends one framed record to buf.
func appendFrame(buf []byte, seq uint64, payload []byte) []byte {
	var hdr [frameHeader]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(len(payload)))
	var seqb [8]byte
	binary.LittleEndian.PutUint64(seqb[:], seq)
	crc := crc32.NewIEEE()
	crc.Write(seqb[:])
	crc.Write(payload)
	binary.LittleEndian.PutUint32(hdr[4:], crc.Sum32())
	copy(hdr[8:], seqb[:])
	buf = append(buf, hdr[:]...)
	return append(buf, payload...)
}

// --- committer -------------------------------------------------------------

func (l *Log) committer() {
	defer close(l.dead)
	var tick *time.Ticker
	var tickC <-chan time.Time
	if l.opts.Sync == SyncInterval {
		tick = time.NewTicker(l.opts.Interval)
		tickC = tick.C
		defer tick.Stop()
	}
	for {
		select {
		case <-l.work:
			l.flush(false)
		case <-tickC:
			l.flush(false)
		case <-l.quit:
			// Final drain: everything enqueued before Close is made
			// durable, then the segment is closed.
			l.flush(true)
			if l.seg != nil {
				if err := l.seg.Sync(); err != nil {
					l.wedge(err)
				}
				l.stFsyncs.Add(1)
				if err := l.seg.Close(); err != nil {
					l.wedge(err)
				}
				l.seg = nil
			}
			return
		}
	}
}

// flush writes the pending batch (one buffered write for however many
// records concurrent appenders enqueued — the group in group commit),
// advances the written/durable watermarks per policy and wakes waiters.
func (l *Log) flush(final bool) {
	l.mu.Lock()
	if l.failed != nil {
		l.mu.Unlock()
		return
	}
	batch := l.pend
	upTo := l.pendSeq
	l.pend = nil
	needRotate := l.segSize+int64(len(batch)) > l.opts.SegmentBytes && l.segSize > segHeaderSize
	firstSeq := l.written + 1
	l.mu.Unlock()

	l.cmu.Lock()
	force := l.forceSync
	l.forceSync = false
	l.cmu.Unlock()

	if len(batch) == 0 && !force {
		return
	}

	if len(batch) > 0 {
		if needRotate {
			if err := l.rotateActive(firstSeq); err != nil {
				l.wedge(err)
				return
			}
		}
		// Crash point: the batch exists only in process memory. None of
		// its records has been acked (their waiters are parked), so a kill
		// here loses only unacked work.
		fpAppend.Inject()
		if err := fpAppend.InjectErr(); err != nil {
			l.wedge(err)
			return
		}
		if _, err := l.seg.Write(batch); err != nil {
			l.wedge(err)
			return
		}
		l.segSize += int64(len(batch))
		l.stBytes.Add(int64(len(batch)))
		l.stBatches.Add(1)
		l.cmu.Lock()
		l.written = upTo
		if l.opts.Sync != SyncAlways {
			l.cond.Broadcast()
		}
		l.cmu.Unlock()
	}

	syncNow := force || final || l.opts.Sync == SyncAlways
	if l.opts.Sync == SyncInterval && time.Since(l.lastSync) >= l.opts.Interval {
		syncNow = true
	}
	if !syncNow {
		return
	}
	if err := l.seg.Sync(); err != nil {
		l.wedge(err)
		return
	}
	l.stFsyncs.Add(1)
	l.lastSync = time.Now()
	// Crash point: records are on disk but their acks have not been
	// released — the audit must find every one of them after recovery.
	fpSync.Inject()
	if err := fpSync.InjectErr(); err != nil {
		l.wedge(err)
		return
	}
	l.cmu.Lock()
	if l.written > l.durable {
		l.durable = l.written
	}
	l.cond.Broadcast()
	l.cmu.Unlock()
}

// rotateActive finishes the current segment (fsync, close) and opens a
// fresh one whose first record will be firstSeq.
func (l *Log) rotateActive(firstSeq uint64) error {
	fpRotate.Inject()
	if err := fpRotate.InjectErr(); err != nil {
		return err
	}
	if l.seg != nil {
		if err := l.seg.Sync(); err != nil {
			return err
		}
		l.stFsyncs.Add(1)
		if err := l.seg.Close(); err != nil {
			return err
		}
		l.seg = nil
	}
	return l.rotate(firstSeq)
}

// rotate creates the segment file for firstSeq and makes it the active
// one. Called from Open (before the committer starts) and rotateActive
// (committer goroutine).
func (l *Log) rotate(firstSeq uint64) error {
	path := filepath.Join(l.dir, fmt.Sprintf("%s%016x%s", segPrefix, firstSeq, segSuffix))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	var hdr [segHeaderSize]byte
	copy(hdr[:8], segMagic[:])
	binary.LittleEndian.PutUint64(hdr[8:], firstSeq)
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		return err
	}
	// The header is durable before any record can land in it, and the
	// directory entry before any ack can depend on it.
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	l.stFsyncs.Add(1)
	syncDir(l.dir)
	l.seg = f
	l.segSize = segHeaderSize
	l.mu.Lock()
	l.segs = append(l.segs, segMeta{path: path, firstSeq: firstSeq})
	l.mu.Unlock()
	l.stRotations.Add(1)
	return nil
}

// syncDir makes directory mutations (segment create/delete) durable;
// best-effort, mirroring snapio.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	_ = d.Sync()
	_ = d.Close()
}
