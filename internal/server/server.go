// Package server implements the altdb protocol engine: a tiny in-memory
// key/value database over TCP with ALT-index underneath, hardened for
// unattended operation and (optionally) fully durable via a write-ahead
// log with incremental checkpoints.
//
// The network hot path is pipelined: a connection's handler parses and
// dispatches every complete request line already buffered before flushing
// replies once per wakeup, so a client that pipelines N requests pays one
// write syscall per batch instead of one per command. Runs of consecutive
// point commands (GET/SET/DEL) are grouped through the index's batched
// fast path, and above a configurable connection count the groups of all
// connections coalesce into shared batches (see internal/opsched).
package server

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"altindex"
	"altindex/internal/failpoint"
	"altindex/internal/opsched"
	"altindex/internal/wal"
)

// maxBatch caps the number of keys one MGET/MPUT request may carry, and
// the size of one grouped point-command run.
const maxBatch = 4096

// maxLineBytes sizes the per-connection line buffer for the largest legal
// request: an MPUT with maxBatch pairs of 20-digit uint64s plus separators.
// Longer lines are a protocol violation answered with ERR TOOLONG.
const maxLineBytes = 2*maxBatch*21 + 64

// ErrServerClosed is returned by Serve after Shutdown stops the listener.
var ErrServerClosed = errors.New("altdb: server closed")

// fpDispatch fires on every dispatched command; armed with panic it
// simulates a handler crash inside one connection's goroutine, which the
// per-connection recovery must contain without taking down the process.
var fpDispatch = failpoint.New("altdb/dispatch")

// Structured error codes: every ERR reply is "ERR <CODE> <detail...>", so
// clients can switch on the second token instead of parsing prose.
const (
	errUsage    = "USAGE"    // wrong argument shape for the command
	errBadInt   = "BADINT"   // a key/value token is not a uint64
	errTooBig   = "TOOBIG"   // batch exceeds maxBatch
	errTooLong  = "TOOLONG"  // request line exceeds maxLineBytes
	errUnknown  = "UNKNOWN"  // unrecognized command
	errInternal = "INTERNAL" // handler panic or engine failure
	errReadOnly = "READONLY" // the write-ahead log is wedged; reads still serve
)

// Config tunes the server's robustness envelope. Zero values select
// production defaults (see withDefaults).
type Config struct {
	// MaxConns caps concurrently served connections. Excess dials queue
	// in the kernel accept backlog — backpressure, not errors — until a
	// slot frees.
	MaxConns int
	// ReadTimeout bounds the wait for the next request line; an idle or
	// stalled-writer client is disconnected when it expires.
	ReadTimeout time.Duration
	// WriteTimeout bounds flushing one reply batch; a client that stops
	// reading its replies (stalled reader) is disconnected when it expires.
	WriteTimeout time.Duration
	// DrainTimeout bounds Shutdown's wait for in-flight handlers.
	DrainTimeout time.Duration
	// CoalesceConns is the live-connection count at or above which point
	// ops from different connections coalesce into shared index batches
	// (0 = 8; negative disables coalescing). Below the gate every command
	// keeps direct-call latency.
	CoalesceConns int
	// WALDir, when set, makes the keyspace durable: every write commits to
	// a write-ahead log before it is acknowledged, incremental checkpoints
	// bound recovery time, and startup recovers base + deltas + log.
	// Without it the keyspace lives only in memory.
	WALDir string
	// WALSync selects the commit point ("always" fsyncs before acking —
	// survives power loss; "interval"/"none" ack after the write reaches
	// the OS — survives process crashes, not power loss).
	WALSync string
	// WALSegmentBytes caps one WAL segment file (0 = 64 MiB default).
	WALSegmentBytes int64
	// CheckpointInterval is the incremental-checkpoint cadence (0 = 15s;
	// negative disables the background loop).
	CheckpointInterval time.Duration
}

func (c Config) withDefaults() Config {
	if c.MaxConns == 0 {
		c.MaxConns = 256
	}
	if c.ReadTimeout == 0 {
		c.ReadTimeout = 5 * time.Minute
	}
	if c.WriteTimeout == 0 {
		c.WriteTimeout = 30 * time.Second
	}
	if c.DrainTimeout == 0 {
		c.DrainTimeout = 10 * time.Second
	}
	return c
}

// idleRelease is how long a connection's previous read blocked before its
// pooled 64KiB buffers are returned while it parks on the next read. Busy
// pipelined connections never hit it.
const idleRelease = 100 * time.Millisecond

// netStats are the wire-level counters surfaced in STATS: they make the
// pipelining and coalescing effects observable (flushes/op, bytes moved,
// idle buffer releases) without a profiler.
type netStats struct {
	cmds        atomic.Int64 // dispatched commands (non-empty lines)
	flushes     atomic.Int64 // reply write syscalls
	bytesIn     atomic.Int64 // bytes read off client sockets
	bytesOut    atomic.Int64 // reply bytes written
	bufReleases atomic.Int64 // idle-park buffer returns to the pool
}

func (n *netStats) snapshot() map[string]int64 {
	return map[string]int64{
		"net_cmds":         n.cmds.Load(),
		"net_flushes":      n.flushes.Load(),
		"net_bytes_in":     n.bytesIn.Load(),
		"net_bytes_out":    n.bytesOut.Load(),
		"net_buf_releases": n.bufReleases.Load(),
	}
}

// Server is the altdb protocol engine: a single keyspace on one ALT-index.
// Exposed as a package (rather than inline in the altdb main) so tests
// and the net-path bench harness can drive it over a real connection.
type Server struct {
	cfg Config
	idx altindex.Index
	dur *durableStore // non-nil when cfg.WALDir is set; owns idx's durability
	co  *opsched.Coalescer
	sem chan struct{} // connection slots; acquired before Accept
	net netStats

	idleRelease time.Duration // the idleRelease constant; tests shorten it before Serve

	mu    sync.Mutex
	conns map[net.Conn]struct{}
	ln    net.Listener

	done     chan struct{}
	shutOnce sync.Once
	handlers sync.WaitGroup
}

// NewServer builds an empty database with default robustness settings. The
// index trains its learned layer automatically as data arrives.
func NewServer() (*Server, error) {
	return NewServerWith(Config{})
}

// NewServerWith builds a server with cfg. With cfg.WALDir set it recovers
// the keyspace stored there first; a directory it cannot recover is a
// startup error (refusing to serve silently-empty data).
func NewServerWith(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:         cfg,
		sem:         make(chan struct{}, cfg.MaxConns),
		conns:       map[net.Conn]struct{}{},
		done:        make(chan struct{}),
		idleRelease: idleRelease,
	}
	if cfg.WALDir == "" {
		s.idx = altindex.New(altindex.Options{})
	} else {
		sync := wal.SyncAlways
		if cfg.WALSync != "" {
			parsed, err := wal.ParseSyncPolicy(cfg.WALSync)
			if err != nil {
				return nil, err
			}
			sync = parsed
		}
		dur, err := openDurable(durableConfig{
			Dir:                cfg.WALDir,
			WAL:                wal.Options{Sync: sync, SegmentBytes: cfg.WALSegmentBytes},
			CheckpointInterval: cfg.CheckpointInterval,
		})
		if err != nil {
			return nil, err
		}
		s.dur, s.idx = dur, dur.idx
	}
	s.co = opsched.New(backend{s}, opsched.Options{GateConns: cfg.CoalesceConns, MaxBatch: maxBatch})
	return s, nil
}

// backend adapts the server's mutation routing (durable or direct) to the
// coalescer's sink interface. SetBatch maps to the durable store's Mput in
// durable mode, so every coalesced write acks after its group's redo
// record commits.
type backend struct{ s *Server }

func (b backend) GetBatch(keys, vals []uint64, found []bool) { b.s.idx.GetBatch(keys, vals, found) }
func (b backend) SetBatch(pairs []altindex.KV) error         { return b.s.mput(pairs) }
func (b backend) Del(k uint64) (bool, error)                 { return b.s.del(k) }

// Serve accepts connections until the listener closes or Shutdown is
// called. A connection slot is acquired before Accept, so when MaxConns
// handlers are busy the server stops accepting and excess dials wait in
// the listen backlog instead of spawning unbounded goroutines.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	for {
		select {
		case s.sem <- struct{}{}:
		case <-s.done:
			return ErrServerClosed
		}
		conn, err := ln.Accept()
		if err != nil {
			<-s.sem
			select {
			case <-s.done:
				return ErrServerClosed
			default:
			}
			return err
		}
		s.mu.Lock()
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.handlers.Add(1)
		go s.handle(conn)
	}
}

// Shutdown stops accepting, nudges blocked readers off their sockets,
// waits up to DrainTimeout for in-flight handlers, writes the final
// checkpoint (durable mode) and stops the index's retraining workers. It
// returns the errors of a timed-out drain or a failed checkpoint, joined.
func (s *Server) Shutdown() error {
	s.shutOnce.Do(func() { close(s.done) })
	s.mu.Lock()
	if s.ln != nil {
		s.ln.Close()
	}
	// Unblock handlers parked in a read: an immediate read deadline makes
	// the pending read fail while completed replies stay flushed. Writes
	// keep their own (fresh) deadline, so an in-flight reply finishes.
	for c := range s.conns {
		c.SetReadDeadline(time.Now())
	}
	s.mu.Unlock()

	drained := make(chan struct{})
	go func() {
		s.handlers.Wait()
		close(drained)
	}()
	var err error
	select {
	case <-drained:
	case <-time.After(s.cfg.DrainTimeout):
		err = fmt.Errorf("altdb: %d connections still draining after %v",
			len(s.snapshotConns()), s.cfg.DrainTimeout)
	}
	// Stop the coalescer's drainers; a handler that outlived the drain
	// timeout falls back to direct index calls (opsched close semantics),
	// so this is safe even on a timed-out drain.
	s.co.Close()
	if s.dur != nil {
		// Final full checkpoint + log close: every acknowledged write is
		// already in the WAL, so even a failed checkpoint loses nothing —
		// but a clean one makes the next start replay-free.
		if derr := s.dur.Close(); derr != nil {
			err = errors.Join(err, fmt.Errorf("altdb: shutdown checkpoint: %w", derr))
		}
	}
	// Reap the retraining workers. A handler that outlived the drain still
	// works: a closed index stays readable and writable.
	return errors.Join(err, s.idx.Close())
}

// Preload bulk-upserts pairs through the server's normal write routing
// (durable or direct), bypassing the wire protocol. Benchmark harnesses
// use it to seed the keyspace before measurement.
func (s *Server) Preload(pairs []altindex.KV) error {
	for off := 0; off < len(pairs); off += maxBatch {
		end := off + maxBatch
		if end > len(pairs) {
			end = len(pairs)
		}
		if err := s.mput(pairs[off:end]); err != nil {
			return err
		}
	}
	return nil
}

// del and mput route mutations through the durable store when one is
// configured (ack after commit) and straight to the index otherwise.
func (s *Server) del(k uint64) (bool, error) {
	if s.dur != nil {
		return s.dur.Del(k)
	}
	return s.idx.Remove(k), nil
}

func (s *Server) mput(pairs []altindex.KV) error {
	if s.dur != nil {
		return s.dur.Mput(pairs)
	}
	return s.idx.InsertBatch(pairs)
}

func (s *Server) snapshotConns() []net.Conn {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		out = append(out, c)
	}
	return out
}

// handle runs one connection's protocol loop (see proto.go) and releases
// its slot, socket and pooled buffers on the way out.
func (s *Server) handle(conn net.Conn) {
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		<-s.sem
		s.handlers.Done()
	}()
	s.co.ConnOpened()
	defer s.co.ConnClosed()

	cs := newConnState(s, conn)
	defer cs.release()
	s.servePipelined(cs)
}
