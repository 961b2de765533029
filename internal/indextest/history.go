package indextest

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"altindex/internal/index"
)

// OpKind names a per-key register operation of a recorded history.
type OpKind uint8

const (
	OpGet OpKind = iota
	OpInsert
	OpUpdate
	OpRemove
)

// Op is one per-key operation of a history. A batch records one Op per
// lane; its lanes share the batch's Call and Return stamps and are told
// apart by Lane, their submission order.
type Op struct {
	Kind  OpKind
	Key   uint64
	Value uint64 // the value written (Insert, Update) or read (Get)
	OK    bool   // Get: found; Update, Remove: the reported result

	Goroutine int
	Lane      int   // position in its batch counting from 1; 0 for a single op
	Call      int64 // clock stamp taken before the call
	Return    int64 // clock stamp taken after it returned
}

// Recorder logs a concurrent history: every call and return is stamped
// from one atomic clock, so a stamp order is a real-time order. Each
// goroutine records through its own Session.
type Recorder struct {
	clock    atomic.Int64
	mu       sync.Mutex
	sessions []*Session
}

// Scan is one recorded ScanAppend call: its window, max and output. A Walk
// records one Scan per pull.
type Scan struct {
	Start, End uint64
	Max        int
	Out        []index.KV

	Goroutine int
	Call      int64
	Return    int64
}

// Session records one goroutine's operations on one index. Not safe for
// concurrent use.
type Session struct {
	r     *Recorder
	ix    index.Concurrent
	b     index.Batcher
	g     int
	ops   []Op
	scans []Scan
}

// Session returns a recording view of ix for one goroutine. Batches go
// through index.BatchOf(ix), so an index with a native batch path is
// checked on it.
func (r *Recorder) Session(ix index.Concurrent) *Session {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &Session{r: r, ix: ix, b: index.BatchOf(ix), g: len(r.sessions)}
	r.sessions = append(r.sessions, s)
	return s
}

// History returns every recorded op. Call it once all sessions are done.
func (r *Recorder) History() []Op {
	r.mu.Lock()
	defer r.mu.Unlock()
	var ops []Op
	for _, s := range r.sessions {
		ops = append(ops, s.ops...)
	}
	return ops
}

// Scans returns every recorded scan. Call it once all sessions are done.
func (r *Recorder) Scans() []Scan {
	r.mu.Lock()
	defer r.mu.Unlock()
	var scans []Scan
	for _, s := range r.sessions {
		scans = append(scans, s.scans...)
	}
	return scans
}

func (s *Session) record(op Op, call int64) {
	op.Goroutine, op.Call, op.Return = s.g, call, s.r.clock.Add(1)
	s.ops = append(s.ops, op)
}

func (s *Session) Get(k uint64) {
	call := s.r.clock.Add(1)
	v, ok := s.ix.Get(k)
	s.record(Op{Kind: OpGet, Key: k, Value: v, OK: ok}, call)
}

// Insert records the insert unless it fails; the caller fails the test.
func (s *Session) Insert(k, v uint64) error {
	call := s.r.clock.Add(1)
	if err := s.ix.Insert(k, v); err != nil {
		return err
	}
	s.record(Op{Kind: OpInsert, Key: k, Value: v}, call)
	return nil
}

func (s *Session) Update(k, v uint64) {
	call := s.r.clock.Add(1)
	ok := s.ix.Update(k, v)
	s.record(Op{Kind: OpUpdate, Key: k, Value: v, OK: ok}, call)
}

func (s *Session) Remove(k uint64) {
	call := s.r.clock.Add(1)
	ok := s.ix.Remove(k)
	s.record(Op{Kind: OpRemove, Key: k, OK: ok}, call)
}

// GetBatch records one Get per lane.
func (s *Session) GetBatch(keys []uint64) {
	vals := make([]uint64, len(keys))
	found := make([]bool, len(keys))
	call := s.r.clock.Add(1)
	s.b.GetBatch(keys, vals, found)
	ret := s.r.clock.Add(1)
	for i, k := range keys {
		s.ops = append(s.ops, Op{Kind: OpGet, Key: k, Value: vals[i], OK: found[i],
			Goroutine: s.g, Lane: i + 1, Call: call, Return: ret})
	}
}

// InsertBatch records one Insert per lane. On an error it records none;
// the caller fails the test.
func (s *Session) InsertBatch(pairs []index.KV) error {
	call := s.r.clock.Add(1)
	if err := s.b.InsertBatch(pairs); err != nil {
		return err
	}
	ret := s.r.clock.Add(1)
	for i, kv := range pairs {
		s.ops = append(s.ops, Op{Kind: OpInsert, Key: kv.Key, Value: kv.Value,
			Goroutine: s.g, Lane: i + 1, Call: call, Return: ret})
	}
	return nil
}

// ScanAppend records one ScanAppend call of the window [start, end).
func (s *Session) ScanAppend(start, end uint64, max int) []index.KV {
	return s.scanAppend(nil, start, end, max)
}

func (s *Session) scanAppend(dst []index.KV, start, end uint64, max int) []index.KV {
	call := s.r.clock.Add(1)
	out := s.ix.ScanAppend(dst, start, end, max)
	s.scans = append(s.scans, Scan{Start: start, End: end, Max: max, Out: slices.Clone(out[len(dst):]),
		Goroutine: s.g, Call: call, Return: s.r.clock.Add(1)})
	return out
}

// Walk runs index.Walk over the window and records each of its pulls as a
// Scan: a walk is not atomic across pulls, so each pull is checked alone.
func (s *Session) Walk(start, end uint64, max int) int {
	return index.Walk(pullRecorder{s.ix, s}, start, end, max, func(uint64, uint64) bool { return true })
}

// pullRecorder is the index a recorded Walk pulls from.
type pullRecorder struct {
	index.Concurrent
	s *Session
}

func (p pullRecorder) ScanAppend(dst []index.KV, start, end uint64, max int) []index.KV {
	return p.s.scanAppend(dst, start, end, max)
}

// CheckHistory reports every key whose operations admit no linearization
// against a register that starts at initial[key] (absent when the key is
// not in initial), one rendered history per key. Keys are independent, so
// the history is checked key by key, Porcupine-style: a depth-first search
// over the ops whose intervals let them go next, memoizing the (done set,
// register state) pairs already explored. Lanes of one batch on one key
// linearize in submission order, the batch contract of index.Batcher.
func CheckHistory(ops []Op, initial map[uint64]uint64) []string {
	byKey := map[uint64][]Op{}
	for _, op := range ops {
		byKey[op.Key] = append(byKey[op.Key], op)
	}
	var bad []string
	for k, kops := range byKey {
		slices.SortFunc(kops, func(a, b Op) int {
			return cmp.Or(cmp.Compare(a.Call, b.Call), cmp.Compare(a.Lane, b.Lane))
		})
		v, ok := initial[k]
		init := register{ok, v}
		if linearizable(kops, init) {
			continue
		}
		bad = append(bad, render(k, init, minimize(kops, init)))
	}
	slices.Sort(bad)
	return bad
}

// register is one key's state: present with a value, or absent.
type register struct {
	present bool
	val     uint64
}

// step applies op to s, reporting false when op's result is impossible
// from s.
func step(s register, op Op) (register, bool) {
	switch op.Kind {
	case OpGet:
		return s, op.OK == s.present && (!s.present || op.Value == s.val)
	case OpInsert:
		return register{true, op.Value}, true
	case OpUpdate:
		if op.OK != s.present {
			return s, false
		}
		if s.present {
			s.val = op.Value
		}
		return s, true
	default: // OpRemove
		return register{}, op.OK == s.present
	}
}

// linearizable searches for an order of ops (sorted by Call, then Lane)
// that respects real time and batch submission order and that the
// register, starting at init, accepts.
func linearizable(ops []Op, init register) bool {
	done := make([]uint64, (len(ops)+63)/64)
	isDone := func(i int) bool { return done[i/64]&(1<<(i%64)) != 0 }
	explored := map[string]bool{}
	memo := make([]byte, 0, len(done)*8+9)
	var search func(s register, left int) bool
	search = func(s register, left int) bool {
		if left == 0 {
			return true
		}
		memo = memo[:0]
		for _, w := range done {
			memo = binary.LittleEndian.AppendUint64(memo, w)
		}
		memo = binary.LittleEndian.AppendUint64(memo, s.val)
		if s.present {
			memo = append(memo, 1)
		}
		if explored[string(memo)] {
			return false
		}
		explored[string(memo)] = true
		// An op may go next only if it was called before every pending
		// op returned.
		minRet := int64(math.MaxInt64)
		for i := range ops {
			if !isDone(i) {
				minRet = min(minRet, ops[i].Return)
			}
		}
		for i := range ops {
			if ops[i].Call > minRet {
				break
			}
			if isDone(i) || i > 0 && ops[i-1].Call == ops[i].Call && !isDone(i-1) {
				continue // done, or an earlier lane of its batch is not
			}
			ns, ok := step(s, ops[i])
			if !ok {
				continue
			}
			done[i/64] |= 1 << (i % 64)
			if search(ns, left-1) {
				return true
			}
			done[i/64] &^= 1 << (i % 64)
		}
		return false
	}
	return search(init, len(ops))
}

// minimize drops every Get the violation does not need. Removing a read
// never turns a linearizable history into one that is not, so what is left
// still fails for the original reason; writes all stay, since dropping one
// could strand a read it explained.
func minimize(ops []Op, init register) []Op {
	ops = slices.Clone(ops)
	for i := len(ops) - 1; i >= 0; i-- {
		if ops[i].Kind != OpGet {
			continue
		}
		without := slices.Delete(slices.Clone(ops), i, i+1)
		if !linearizable(without, init) {
			ops = without
		}
	}
	return ops
}

// render prints one key's failing history, one op per line in call order.
func render(key uint64, init register, ops []Op) string {
	var b strings.Builder
	fmt.Fprintf(&b, "key %#x: no linearization of %d ops (minimized; initial %s)", key, len(ops), init)
	for _, op := range ops {
		renderOp(&b, op)
	}
	return b.String()
}

func renderOp(b *strings.Builder, op Op) {
	fmt.Fprintf(b, "\n  g%d [%d, %d]", op.Goroutine, op.Call, op.Return)
	if op.Lane > 0 {
		fmt.Fprintf(b, " lane %d", op.Lane)
	}
	switch op.Kind {
	case OpGet:
		fmt.Fprintf(b, " Get -> %s", register{op.OK, op.Value})
	case OpInsert:
		fmt.Fprintf(b, " Insert(%#x)", op.Value)
	case OpUpdate:
		fmt.Fprintf(b, " Update(%#x) -> %v", op.Value, op.OK)
	case OpRemove:
		fmt.Fprintf(b, " Remove -> %v", op.OK)
	}
}

// CheckScans checks every recorded scan against the point-op history ops
// of an index that started with initial, by three rules:
//
//   - the output is strictly ascending, inside the window and at most max
//     pairs long;
//   - every key present across the scan's whole interval is in the output
//     if it lies in the returned prefix (up to the last returned key), or
//     anywhere in the window when fewer than max pairs came back;
//   - every returned key carries a value some write could have left: one
//     written before the scan returned and not certainly overwritten
//     before it began, and no remove of the key completed before the scan
//     began with no insert since that could have come after it.
//
// The last two rules hold for the keys tracked reports true for (nil: all),
// which must be keys whose every write is in ops. A violation is reported
// with the key's writes; reads never decide a scan rule, so none is shown.
func CheckScans(ops []Op, scans []Scan, initial map[uint64]uint64, tracked func(uint64) bool) []string {
	if tracked == nil {
		tracked = func(uint64) bool { return true }
	}
	hist := map[uint64]*keyWrites{}
	at := func(k uint64) *keyWrites {
		h := hist[k]
		if h == nil {
			h = &keyWrites{}
			hist[k] = h
		}
		return h
	}
	for k, v := range initial {
		if tracked(k) {
			at(k).writes = append(at(k).writes, Op{Kind: OpInsert, Key: k, Value: v}) // stamped 0: before every call
		}
	}
	for _, op := range ops {
		switch {
		case !tracked(op.Key):
		case op.Kind == OpInsert || op.Kind == OpUpdate && op.OK:
			at(op.Key).writes = append(at(op.Key).writes, op)
		case op.Kind == OpRemove && op.OK:
			at(op.Key).removes = append(at(op.Key).removes, op)
		}
	}
	keys := make([]uint64, 0, len(hist))
	for k := range hist {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	var bad []string
	for _, sc := range scans {
		if k, why := checkScan(sc, keys, hist, tracked); why != "" {
			bad = append(bad, renderScan(sc, k, why, hist[k]))
		}
	}
	return bad
}

// keyWrites is what the scan rules read of one key's history: the writes
// that leave it present with a value (the initial value stamped 0, inserts
// and successful updates) and its successful removes.
type keyWrites struct {
	writes, removes []Op
}

// present reports whether the key is present across all of [call, ret] in
// every linearization: an insert was called after every successful remove
// that could come before ret had returned, and returned before call.
func (h *keyWrites) present(call, ret int64) bool {
	last := int64(-1)
	for _, rm := range h.removes {
		if rm.Call < ret {
			last = max(last, rm.Return)
		}
	}
	for _, w := range h.writes {
		if w.Kind == OpInsert && w.Call > last && w.Return < call {
			return true
		}
	}
	return false
}

// couldHold reports whether a scan over [call, ret] may read val: some
// write of val was called before ret, and no write certainly came after it
// and returned before call.
func (h *keyWrites) couldHold(val uint64, call, ret int64) bool {
	for _, w := range h.writes {
		if w.Value != val || w.Call >= ret {
			continue
		}
		if !slices.ContainsFunc(h.writes, func(w2 Op) bool { return w2.Call > w.Return && w2.Return < call }) {
			return true
		}
	}
	return false
}

// removedBefore reports whether a remove of the key returned before call
// with no insert that could come after it and before ret.
func (h *keyWrites) removedBefore(call, ret int64) bool {
	for _, rm := range h.removes {
		if rm.Return < call && !slices.ContainsFunc(h.writes, func(w Op) bool {
			return w.Kind == OpInsert && w.Return > rm.Call && w.Call < ret
		}) {
			return true
		}
	}
	return false
}

// checkScan applies CheckScans' rules to one scan over the sorted tracked
// keys and returns the first violation with the key it concerns.
func checkScan(sc Scan, keys []uint64, hist map[uint64]*keyWrites, tracked func(uint64) bool) (uint64, string) {
	hi, ok := index.Inclusive(sc.Start, sc.End)
	if len(sc.Out) > sc.Max {
		return 0, fmt.Sprintf("returned %d pairs, max %d", len(sc.Out), sc.Max)
	}
	for i, kv := range sc.Out {
		switch {
		case !ok || kv.Key < sc.Start || kv.Key > hi:
			return kv.Key, "returned outside the window"
		case i > 0 && kv.Key <= sc.Out[i-1].Key:
			return kv.Key, fmt.Sprintf("returned after %#x: not ascending", sc.Out[i-1].Key)
		case !tracked(kv.Key):
		case hist[kv.Key] == nil || !hist[kv.Key].couldHold(kv.Value, sc.Call, sc.Return):
			return kv.Key, fmt.Sprintf("returned with %#x, a value no write could have left", kv.Value)
		case hist[kv.Key].removedBefore(sc.Call, sc.Return):
			return kv.Key, "returned after a remove that completed before the scan, with no insert since"
		}
	}
	if !ok || sc.Max <= 0 {
		return 0, ""
	}
	if len(sc.Out) == sc.Max {
		hi = sc.Out[len(sc.Out)-1].Key // only the returned prefix is owed
	}
	lo, _ := slices.BinarySearch(keys, sc.Start)
	i := 0
	for _, k := range keys[lo:] {
		if k > hi {
			break
		}
		for i < len(sc.Out) && sc.Out[i].Key < k {
			i++
		}
		if (i == len(sc.Out) || sc.Out[i].Key != k) && hist[k].present(sc.Call, sc.Return) {
			return k, "missing, though present across the scan's whole interval"
		}
	}
	return 0, ""
}

// renderScan prints one failing scan and the writes of the key it names
// that the verdict can rest on: those called before the scan returned and
// not certainly followed by another write or remove before it began.
func renderScan(sc Scan, key uint64, why string, h *keyWrites) string {
	var b strings.Builder
	fmt.Fprintf(&b, "g%d [%d, %d] ScanAppend([%#x, %#x), max %d) -> %d pairs: key %#x %s",
		sc.Goroutine, sc.Call, sc.Return, sc.Start, sc.End, sc.Max, len(sc.Out), key, why)
	if h == nil {
		return b.String()
	}
	all := slices.Concat(h.writes, h.removes)
	var writes []Op
	for _, op := range all {
		if op.Call < sc.Return && !slices.ContainsFunc(all, func(o Op) bool { return o.Call > op.Return && o.Return < sc.Call }) {
			writes = append(writes, op)
		}
	}
	slices.SortFunc(writes, func(a, b Op) int {
		return cmp.Or(cmp.Compare(a.Call, b.Call), cmp.Compare(a.Lane, b.Lane))
	})
	for _, op := range writes {
		if op.Call == 0 {
			fmt.Fprintf(&b, "\n  initial %#x", op.Value)
			continue
		}
		renderOp(&b, op)
	}
	return b.String()
}

func (s register) String() string {
	if !s.present {
		return "absent"
	}
	return fmt.Sprintf("%#x", s.val)
}
