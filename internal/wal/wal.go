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
// never appends to a pre-existing segment: it always opens by rotating to
// a fresh one, so a tail torn by a crash is left in place as evidence and
// the reader (see replay.go) tolerates it — a torn or half-written frame
// at the end of any segment is skipped iff the next segment continues the
// sequence exactly; any other gap is corruption and refuses to load.
//
// # Failure model
//
// The process can die at any instruction and the machine can lose power
// between any two calls that change the disk; every such call goes
// through internal/fsys, whose calls the crash-state enumerator in
// internal/server records to build each image a crash can leave. Each
// policy's rule, as the enumerator checks it, is about the prefix of the
// appended records that a crash image recovers:
//
//   - SyncAlways: WaitDurable returns once the record's bytes, and its
//     segment's directory entry, are fsynced. After kill -9 or power loss
//     the log recovers a prefix that holds every acked record;
//   - SyncNone: WaitDurable returns once the record is written to the OS.
//     After kill -9 the log recovers a prefix that holds every acked
//     record. After power loss it recovers a prefix that holds every
//     record at or below DurableSeq, which only Sync, Open and Close
//     advance (altdb's checkpoints call Sync). The prefix has no gap
//     because a rotation fsyncs the segment it closes, so no unsynced
//     record ever lies below a synced one;
//   - replay never yields a record that was not fully appended, never
//     yields one twice, and never reorders (CRC framing + dense seqs);
//   - any write or fsync error wedges the log: every subsequent Append
//     and WaitDurable fails, so an engine can never ack a write the log
//     silently dropped.
//
// There is no timed (interval) policy: no crash image can check a time
// bound, and the only rule one can check for it is SyncNone's.
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

	"altindex/internal/fsys"
)

// SyncPolicy selects the commit point of WaitDurable.
type SyncPolicy int

const (
	// SyncAlways fsyncs every committed batch before releasing its
	// waiters: an acked write survives power loss. The group-commit
	// batching keeps fsyncs/sec well below commits/sec under concurrency.
	SyncAlways SyncPolicy = iota
	// SyncNone acks once the record reaches the OS and fsyncs only on
	// Sync, Open, rotation and Close (the OS flushes on its own schedule):
	// an acked write survives kill -9, not power loss.
	SyncNone
)

// String returns the flag spelling of the policy.
func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
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
	case "none":
		return SyncNone, nil
	}
	return 0, fmt.Errorf("wal: unknown sync policy %q (always, none)", s)
}

// Options tune a log; the zero value is the production default
// (SyncAlways, 64 MiB segments).
type Options struct {
	// Sync selects the commit point (default SyncAlways).
	Sync SyncPolicy
	// SegmentBytes rotates to a new segment once the current one exceeds
	// this size (default 64 MiB); tests set small values to rotate.
	SegmentBytes int64
}

func (o Options) withDefaults() Options {
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
	TruncatedTailBytes int64 // torn bytes skipped by the Read the log was opened on
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
	// FrameHeader is what a frame adds to its payload: Stats.Bytes grows
	// by FrameHeader+len(payload) per record.
	FrameHeader = 16
	// maxRecordBytes bounds one payload; anything larger in a frame header
	// is treated as tail garbage by the reader.
	maxRecordBytes = 1 << 28
)

var segMagic = [8]byte{'A', 'L', 'T', 'W', 'A', 'L', '0', '1'}

// segMeta is one on-disk segment: its path and the first sequence number
// it holds (from its header/filename).
type segMeta struct {
	path     string
	firstSeq uint64
}

// Log is an append-only segmented WAL. All methods are safe for
// concurrent use. Create with Open or Tail.Open.
type Log struct {
	tail Tail // the chain found at Open: its directory, and what Replay scans
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

	// Committer-owned segment state (no lock: single goroutine).
	seg     *fsys.File
	segSize int64

	work chan struct{}
	quit chan struct{}
	dead chan struct{}

	stAppends     atomic.Int64
	stFsyncs      atomic.Int64
	stBatches     atomic.Int64
	stBytes       atomic.Int64
	stRotations   atomic.Int64
	stTruncations atomic.Int64
}

// Open is Read(dir, 0, nil) and then Tail.Open. Use Replay before
// appending to recover state, then append freely; torn tails are reported
// in Stats().TruncatedTailBytes, any other inconsistency is ErrCorrupt.
func Open(dir string, opts Options) (*Log, error) {
	t, err := Read(dir, 0, nil)
	if err != nil {
		return nil, err
	}
	return t.Open(opts)
}

// Open starts a log on the chain Read found, reading no segment: it
// creates the directory if it is missing, fsyncs the segment holding
// LastSeq, rotates to a fresh segment at LastSeq+1 and starts the
// committer. Replay then scans exactly the tail's segments, so records
// appended after Open are never replayed. It judges nothing the read did
// not; its errors are I/O errors.
func (t Tail) Open(opts Options) (*Log, error) {
	opts = opts.withDefaults()
	if err := fsys.MkdirAll(t.dir); err != nil {
		return nil, err
	}
	// A segment holding no record (a close right after a rotation, or a
	// crash before its first record) is reused by the new one via O_TRUNC;
	// tracking it twice would let TruncateBelow delete the active one.
	if n := len(t.segs); n > 0 && t.segs[n-1].firstSeq == t.LastSeq+1 {
		t.segs = t.segs[:n-1]
	}
	// A killed process may have left the records Read found in the page
	// cache only. They are made durable before a segment can follow them,
	// or a power loss could leave a gap below the new segment.
	if n := len(t.segs); n > 0 {
		if err := fsys.SyncPath(t.segs[n-1].path); err != nil {
			return nil, err
		}
	}
	l := &Log{
		tail:    t,
		opts:    opts,
		segs:    append([]segMeta(nil), t.segs...),
		nextSeq: t.LastSeq + 1,
		written: t.LastSeq,
		durable: t.LastSeq, // synced above
		work:    make(chan struct{}, 1),
		quit:    make(chan struct{}),
		dead:    make(chan struct{}),
	}
	l.cond = sync.NewCond(&l.cmu)
	if err := l.rotate(l.nextSeq); err != nil {
		return nil, err
	}
	go l.committer()
	return l, nil
}

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
		TruncatedTailBytes: l.tail.TornBytes,
		LastSeq:            last,
		DurableSeq:         durable,
	}
}

// TruncateBelow deletes every segment whose records all have sequence
// numbers below keepFrom — called after a checkpoint covering keepFrom-1
// is durable. The active segment is never deleted. Safe to run
// concurrently with appends.
func (l *Log) TruncateBelow(keepFrom uint64) error {
	// Oldest first, each removal durable before the segment leaves the
	// list and before the next: a power loss then undoes at most the
	// newest one, the segments left still form one chain, and a failed
	// removal leaves its segment listed for the next call.
	for {
		// A segment's records end where the next segment begins; the last
		// entry is the active segment and always stays.
		l.mu.Lock()
		if len(l.segs) < 2 || l.segs[1].firstSeq > keepFrom {
			l.mu.Unlock()
			return nil
		}
		path := l.segs[0].path
		l.mu.Unlock()
		if err := fsys.Remove(path); err != nil && !errors.Is(err, os.ErrNotExist) {
			return err
		}
		if err := fsys.SyncPath(l.tail.dir); err != nil {
			return err
		}
		l.mu.Lock()
		l.segs = l.segs[1:]
		l.mu.Unlock()
		l.stTruncations.Add(1)
	}
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
	var hdr [FrameHeader]byte
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
	for {
		select {
		case <-l.work:
			l.flush(false)
		case <-l.quit:
			// Final drain: everything enqueued before Close is made
			// durable, then the segment is closed.
			l.flush(true)
			if l.seg != nil {
				if err := l.seg.Close(); err != nil {
					l.wedge(err)
				}
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

	if len(batch) == 0 && !force && !final {
		return
	}

	if len(batch) > 0 {
		if needRotate {
			if err := l.rotateActive(firstSeq); err != nil {
				l.wedge(err)
				return
			}
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

	if !force && !final && l.opts.Sync != SyncAlways {
		return
	}
	if err := l.seg.Sync(); err != nil {
		l.wedge(err)
		return
	}
	l.stFsyncs.Add(1)
	l.cmu.Lock()
	if l.written > l.durable {
		l.durable = l.written
	}
	l.cond.Broadcast()
	l.cmu.Unlock()
}

// rotateActive finishes the current segment (fsync, close) and opens a
// fresh one whose first record will be firstSeq. Under SyncNone the fsync
// is what keeps a power loss from dropping records below the new
// segment's: without it the log would recover with a gap.
func (l *Log) rotateActive(firstSeq uint64) error {
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
// one. Called from Tail.Open (before the committer starts) and rotateActive
// (committer goroutine).
func (l *Log) rotate(firstSeq uint64) error {
	path := filepath.Join(l.tail.dir, fmt.Sprintf("%s%016x%s", segPrefix, firstSeq, segSuffix))
	f, err := fsys.Create(path)
	if err != nil {
		return err
	}
	var hdr [segHeaderSize]byte
	copy(hdr[:8], segMagic[:])
	binary.LittleEndian.PutUint64(hdr[8:], firstSeq)
	// The header is durable before any record can land in it, and the
	// directory entry before any ack can depend on it.
	_, err = f.Write(hdr[:])
	if err == nil {
		err = f.Sync()
		l.stFsyncs.Add(1)
	}
	if err == nil {
		err = fsys.SyncPath(l.tail.dir)
	}
	if err != nil {
		f.Close()
		return err
	}
	l.seg = f
	l.segSize = segHeaderSize
	l.mu.Lock()
	l.segs = append(l.segs, segMeta{path: path, firstSeq: firstSeq})
	l.mu.Unlock()
	l.stRotations.Add(1)
	return nil
}
