package server

// The connection protocol loop: every complete request line already
// buffered is parsed and dispatched (allocation-free) before replies are
// flushed once per wakeup, so a client pipelining N commands costs one
// write syscall per batch. Runs of consecutive point commands (GET/SET/DEL)
// are additionally grouped through the index's batched fast path — and,
// above the coalescing gate, merged with other connections' runs (opsched).
//
// Invariants:
//
//   - replies are emitted in command order; a pending group is flushed
//     before any non-groupable command (or malformed group command)
//     produces a reply, so LEN/GET always observe earlier SETs of the
//     same connection (read-your-writes);
//   - a request line longer than maxLineBytes gets ERR TOOLONG and the
//     connection closes (the stream cannot resynchronize);
//   - every blocking read carries ReadTimeout, every flush WriteTimeout;
//   - a panicking dispatch is contained to its connection: the client
//     sees ERR INTERNAL and the socket closes, the process keeps serving.

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"altindex"
	"altindex/internal/netproto"
)

// connBufSize is the pooled per-connection buffer class, used for both the
// read window and the reply accumulator. A request line that does not fit
// grows the read window (unpooled) up to maxLineBytes.
const connBufSize = 64 * 1024

// outHighWater flushes the reply accumulator mid-batch once it holds this
// much, bounding reply memory for huge pipelines and keeping SCAN streams
// moving. It stays well under connBufSize so the accumulator never
// outgrows its pooled backing.
const outHighWater = 32 * 1024

// bufPool holds the 64KiB connection buffers. Fixed-size array pointers
// (not slices) so Get/Put never allocate interface boxes.
var bufPool = sync.Pool{New: func() any { return new([connBufSize]byte) }}

// Group kinds for pending point-command runs.
const (
	groupNone = iota
	groupGet
	groupSet
	groupDel
)

// connState is one connection's protocol state: pooled read/reply buffers,
// tokenizer scratch, and the pending point-command group. All scratch is
// reused across commands, so a warmed-up connection dispatches GET/SET/DEL
// with zero heap allocations.
type connState struct {
	srv  *Server
	conn connection

	inArr *[connBufSize]byte // pooled read backing; nil while idle-released
	in    []byte             // read window (inArr[:] or a grown big buffer)
	r, w  int                // in[r:w] holds unconsumed bytes

	outArr *[connBufSize]byte // pooled reply backing; nil while idle-released
	out    []byte             // accumulated replies
	failed bool               // a flush failed; the connection is dead

	fields [][]byte // tokenizer scratch, aliases in

	gKind  int           // pending group kind (groupNone when empty)
	gKeys  []uint64      // GET/DEL run keys
	gVals  []uint64      // GET results
	gFound []bool        // GET/DEL results
	gPairs []altindex.KV // SET run pairs; also MGET/MPUT arg scratch

	lastBlocked time.Duration // how long the previous socket read blocked
	one         [1]byte       // 1-byte park buffer for idle-released reads
}

// connection is the subset of net.Conn the protocol loop uses; tests
// substitute in-memory implementations.
type connection interface {
	Read(p []byte) (int, error)
	Write(p []byte) (int, error)
	SetReadDeadline(t time.Time) error
	SetWriteDeadline(t time.Time) error
}

func newConnState(s *Server, conn connection) *connState {
	cs := &connState{srv: s, conn: conn}
	cs.acquireBufs()
	return cs
}

func (cs *connState) acquireBufs() {
	cs.inArr = bufPool.Get().(*[connBufSize]byte)
	cs.in = cs.inArr[:]
	cs.outArr = bufPool.Get().(*[connBufSize]byte)
	cs.out = cs.outArr[:0]
}

// releaseBufs returns the pooled buffers; only legal when the read window
// is drained and the reply accumulator is flushed. A grown (big) read
// window is simply dropped for the GC.
func (cs *connState) releaseBufs() {
	if cs.inArr != nil {
		bufPool.Put(cs.inArr)
		cs.inArr = nil
	}
	cs.in = nil
	cs.r, cs.w = 0, 0
	if cs.outArr != nil {
		bufPool.Put(cs.outArr)
		cs.outArr = nil
	}
	cs.out = nil
}

func (cs *connState) release() { cs.releaseBufs() }

// nextLine returns the next complete request line (without its '\n') from
// the read window, or ok=false when none is buffered.
func (cs *connState) nextLine() (line []byte, ok bool) {
	for i := cs.r; i < cs.w; i++ {
		if cs.in[i] == '\n' {
			line = cs.in[cs.r:i]
			cs.r = i + 1
			return line, true
		}
	}
	return nil, false
}

// fill blocks for more request bytes. toolong reports a line past
// maxLineBytes (protocol violation; the caller replies and closes); a
// non-nil error is a dead, timed-out or shut-down connection.
//
// When the previous read blocked longer than idleRelease and the
// window is drained, the connection first parks bufferless: both pooled
// 64KiB buffers go back to the pool and the wait happens on a 1-byte
// read, so an idle connection under the cap pins ~90 bytes instead of
// ~128KiB. Busy pipelined connections (fast previous read) skip this.
func (cs *connState) fill() (toolong bool, err error) {
	s := cs.srv
	if cs.r > 0 {
		// Compact the partial line (if any) to the front.
		copy(cs.in, cs.in[cs.r:cs.w])
		cs.w -= cs.r
		cs.r = 0
	}
	if cs.w == len(cs.in) {
		if len(cs.in) >= maxLineBytes {
			return true, nil
		}
		// The line outgrew the pooled window; move to a full-size buffer.
		big := make([]byte, maxLineBytes)
		copy(big, cs.in[:cs.w])
		cs.in = big
		if cs.inArr != nil {
			bufPool.Put(cs.inArr)
			cs.inArr = nil
		}
	}

	if cs.lastBlocked > s.idleRelease && cs.w == 0 && len(cs.out) == 0 {
		cs.releaseBufs()
		s.net.bufReleases.Add(1)
		if err := cs.armRead(); err != nil {
			return false, err
		}
		start := time.Now()
		n, rerr := cs.conn.Read(cs.one[:])
		cs.lastBlocked = time.Since(start)
		cs.acquireBufs()
		if n > 0 {
			cs.in[0] = cs.one[0]
			cs.w = 1
			s.net.bytesIn.Add(1)
			return false, nil
		}
		return false, rerr
	}

	if err := cs.armRead(); err != nil {
		return false, err
	}
	start := time.Now()
	n, rerr := cs.conn.Read(cs.in[cs.w:])
	cs.lastBlocked = time.Since(start)
	if n > 0 {
		cs.w += n
		s.net.bytesIn.Add(int64(n))
		return false, nil
	}
	return false, rerr
}

// armRead stamps the deadline of the next blocking read, then re-checks
// shutdown: Shutdown closes done and only then pokes every connection with
// an immediate deadline, so a stamp that overwrote the poke is always
// followed by seeing done closed — without the re-check such a handler
// would sit out a full ReadTimeout and fail the drain.
func (cs *connState) armRead() error {
	cs.conn.SetReadDeadline(time.Now().Add(cs.srv.cfg.ReadTimeout))
	select {
	case <-cs.srv.done:
		return ErrServerClosed
	default:
		return nil
	}
}

// flush writes the accumulated replies under the write deadline. false
// means the client is not draining its socket (or is gone); the failure
// is sticky so mid-command emitters (SCAN) stop streaming.
func (cs *connState) flush() bool {
	if cs.failed {
		return false
	}
	if len(cs.out) == 0 {
		return true
	}
	cs.conn.SetWriteDeadline(time.Now().Add(cs.srv.cfg.WriteTimeout))
	n, err := cs.conn.Write(cs.out)
	cs.srv.net.flushes.Add(1)
	cs.srv.net.bytesOut.Add(int64(n))
	cs.out = cs.out[:0]
	if err != nil {
		cs.failed = true
		return false
	}
	return true
}

// budget flushes when the reply accumulator crosses the high-water mark.
func (cs *connState) budget() bool {
	if len(cs.out) >= outHighWater {
		return cs.flush()
	}
	return !cs.failed
}

// servePipelined is the connection loop: drain every buffered request
// line, flush once, block for more.
func (s *Server) servePipelined(cs *connState) {
	for {
		select {
		case <-s.done:
			return
		default:
		}
		for {
			line, ok := cs.nextLine()
			if !ok {
				break
			}
			if !s.processLine(cs, line) {
				return
			}
			if !cs.budget() {
				return
			}
		}
		// The read window holds no complete line: settle the pending
		// group, flush everything, block for more input.
		if !s.flushGroup(cs) {
			cs.flush()
			return
		}
		if !cs.flush() {
			return
		}
		toolong, err := cs.fill()
		if toolong {
			cs.out = fmt.Appendf(cs.out, "ERR %s line exceeds %d bytes\n", errTooLong, maxLineBytes)
			cs.flush()
			return
		}
		if err != nil {
			return
		}
	}
}

// processLine tokenizes and dispatches one request line. false asks the
// caller to close the connection (QUIT, panic, dead socket).
func (s *Server) processLine(cs *connState, line []byte) bool {
	cs.fields = netproto.Fields(cs.fields[:0], line)
	if len(cs.fields) == 0 {
		return true
	}
	s.net.cmds.Add(1)
	if len(cs.fields) == 1 && netproto.EqFold(cs.fields[0], "QUIT") {
		if !s.flushGroup(cs) {
			cs.flush()
			return false
		}
		cs.out = append(cs.out, "BYE\n"...)
		cs.flush()
		return false
	}
	if !s.dispatchRecover(cs) {
		cs.flush()
		return false
	}
	return !cs.failed
}

// dispatchRecover contains a panicking handler to its own connection: the
// client gets a structured internal error and is disconnected, while every
// other connection (and the process) keeps serving. A pending group is
// discarded — its commands were never executed or acknowledged, and the
// closing connection tells the client so.
func (s *Server) dispatchRecover(cs *connState) (ok bool) {
	defer func() {
		if p := recover(); p != nil {
			cs.gKind = groupNone
			cs.out = fmt.Appendf(cs.out, "ERR %s %v\n", errInternal, p)
			ok = false
		}
	}()
	s.dispatch(cs)
	return true
}

// dispatch routes one tokenized command. Well-formed point commands join
// the pending group (their replies are deferred to the group's flush);
// everything else settles the group first so replies stay in command
// order, then executes directly.
func (s *Server) dispatch(cs *connState) {
	fpDispatch.Inject()
	f := cs.fields
	args := f[1:]
	switch {
	case netproto.EqFold(f[0], "GET") && len(args) == 1:
		if k, ok := netproto.ParseUint(args[0]); ok {
			s.group(cs, groupGet, k, 0)
			return
		}
	case netproto.EqFold(f[0], "SET") && len(args) == 2:
		k, ok1 := netproto.ParseUint(args[0])
		v, ok2 := netproto.ParseUint(args[1])
		if ok1 && ok2 {
			s.group(cs, groupSet, k, v)
			return
		}
	case netproto.EqFold(f[0], "DEL") && len(args) == 1:
		if k, ok := netproto.ParseUint(args[0]); ok {
			s.group(cs, groupDel, k, 0)
			return
		}
	}
	if !s.flushGroup(cs) {
		return
	}
	s.dispatchSlow(cs, f[0], args)
}

// group appends one point op to the pending run, flushing first on a kind
// switch (reply order + read-your-writes) or when the run is full.
func (s *Server) group(cs *connState, kind int, k, v uint64) {
	if cs.gKind != groupNone && (cs.gKind != kind || len(cs.gKeys)+len(cs.gPairs) >= maxBatch) {
		if !s.flushGroup(cs) {
			return
		}
	}
	cs.gKind = kind
	if kind == groupSet {
		cs.gPairs = append(cs.gPairs, altindex.KV{Key: k, Value: v})
	} else {
		cs.gKeys = append(cs.gKeys, k)
	}
}

// flushGroup executes the pending point-command run through the batched
// index fast path — via the coalescer, which merges it with other
// connections' runs when the gate is engaged — and emits its deferred
// replies in command order. false means the connection is dead (flush
// failure or contained panic) and must close.
func (s *Server) flushGroup(cs *connState) (ok bool) {
	if cs.gKind == groupNone {
		return !cs.failed
	}
	defer func() {
		if p := recover(); p != nil {
			cs.gKind = groupNone
			cs.out = fmt.Appendf(cs.out, "ERR %s %v\n", errInternal, p)
			ok = false
		}
	}()
	kind := cs.gKind
	cs.gKind = groupNone
	switch kind {
	case groupGet:
		n := len(cs.gKeys)
		cs.gVals = growU64(cs.gVals, n)
		cs.gFound = growBool(cs.gFound, n)
		err := s.co.Gets(cs.gKeys, cs.gVals[:n], cs.gFound[:n])
		for i := 0; i < n; i++ {
			if err != nil {
				cs.appendEngineErr(err)
			} else if cs.gFound[i] {
				cs.out = append(cs.out, "VALUE "...)
				cs.out = strconv.AppendUint(cs.out, cs.gVals[i], 10)
				cs.out = append(cs.out, '\n')
			} else {
				cs.out = append(cs.out, "NIL\n"...)
			}
			if !cs.budget() {
				cs.gKeys = cs.gKeys[:0]
				return false
			}
		}
		cs.gKeys = cs.gKeys[:0]
	case groupSet:
		err := s.co.Sets(cs.gPairs)
		for range cs.gPairs {
			if err != nil {
				cs.appendEngineErr(err)
			} else {
				cs.out = append(cs.out, "OK\n"...)
			}
			if !cs.budget() {
				cs.gPairs = cs.gPairs[:0]
				return false
			}
		}
		cs.gPairs = cs.gPairs[:0]
	case groupDel:
		n := len(cs.gKeys)
		cs.gFound = growBool(cs.gFound, n)
		err := s.co.Dels(cs.gKeys, cs.gFound[:n])
		for i := 0; i < n; i++ {
			if err != nil {
				cs.appendEngineErr(err)
			} else if cs.gFound[i] {
				cs.out = append(cs.out, "OK\n"...)
			} else {
				cs.out = append(cs.out, "NIL\n"...)
			}
			if !cs.budget() {
				cs.gKeys = cs.gKeys[:0]
				return false
			}
		}
		cs.gKeys = cs.gKeys[:0]
	}
	return !cs.failed
}

func growU64(s []uint64, n int) []uint64 {
	if cap(s) < n {
		return make([]uint64, n)
	}
	return s[:n]
}

func growBool(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	return s[:n]
}

// appendEngineErr emits the reply for a failed engine call: READONLY when
// the durable store refused the write because its log is wedged, INTERNAL
// for everything else.
func (cs *connState) appendEngineErr(err error) {
	code := errInternal
	if errors.As(err, new(readOnlyError)) {
		code = errReadOnly
	}
	cs.out = fmt.Appendf(cs.out, "ERR %s %v\n", code, err)
}

// appendBadInt emits the structured BADINT reply for one non-uint64 token.
func (cs *connState) appendBadInt(tok []byte) {
	cs.out = netproto.AppendErrToken(cs.out, errBadInt, "", tok, "is not a uint64")
}
