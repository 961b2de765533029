// Package workload builds the operation streams of the ALT-index paper's
// evaluation (§IV-A2): read-only through write-only mixes, the hot-write
// retraining trigger, and the 100-key scan workload. Reads follow a Zipfian
// distribution (default θ=0.99) over the bulk-loaded keys; inserts are
// uniformly distributed fresh keys; scans start at Zipfian-selected keys.
//
// A Workload is split into per-thread Streams so each benchmark goroutine
// draws from its own deterministic sequence with no shared mutable state.
package workload

import (
	"fmt"

	"altindex/internal/xrand"
)

// Kind enumerates operation types.
type Kind uint8

// Operation kinds.
const (
	Get Kind = iota
	Insert
	Update
	Remove
	Scan
)

func (k Kind) String() string {
	switch k {
	case Get:
		return "get"
	case Insert:
		return "insert"
	case Update:
		return "update"
	case Remove:
		return "remove"
	case Scan:
		return "scan"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Op is one generated operation. For Scan, N is the scan length.
type Op struct {
	Kind  Kind
	Key   uint64
	Value uint64
	N     int
}

// Mix is an operation mix in percent. Fields must sum to 100.
type Mix struct {
	Name    string
	Get     int
	Insert  int
	Update  int
	Remove  int
	Scan    int
	ScanLen int
}

// The workload mixes of §IV-A2.
var (
	ReadOnly   = Mix{Name: "read-only", Get: 100}
	ReadHeavy  = Mix{Name: "read-heavy", Get: 80, Insert: 20}
	Balanced   = Mix{Name: "balanced", Get: 50, Insert: 50}
	WriteHeavy = Mix{Name: "write-heavy", Get: 20, Insert: 80}
	WriteOnly  = Mix{Name: "write-only", Insert: 100}
	ScanOnly   = Mix{Name: "scan", Scan: 100, ScanLen: 100}
)

// Mixes returns the five point-operation mixes in paper order (Fig 7 a-e).
func Mixes() []Mix {
	return []Mix{ReadOnly, ReadHeavy, Balanced, WriteHeavy, WriteOnly}
}

// Config parameterises a Workload.
type Config struct {
	Mix     Mix
	Theta   float64 // Zipfian θ for Get/Update/Scan key choice; default 0.99
	Threads int
	Seed    uint64
}

// Workload owns the key populations and hands out per-thread Streams.
type Workload struct {
	cfg    Config
	loaded []uint64   // keys present after bulkload (read targets)
	shuf   []uint64   // loaded keys scrambled so zipf rank != key order
	insert [][]uint64 // per-thread fresh-key queues
	zipf   *xrand.Zipf
	maxKey uint64
}

// New builds a workload over loaded (the bulkloaded keys, ascending) and
// pending (fresh keys to insert, in any order); pending is dealt round-robin
// to threads. Either slice may be nil when the mix does not need it.
func New(cfg Config, loaded, pending []uint64) *Workload {
	if cfg.Threads <= 0 {
		cfg.Threads = 1
	}
	if cfg.Theta == 0 {
		cfg.Theta = 0.99
	}
	w := &Workload{cfg: cfg, loaded: loaded}
	if len(loaded) > 0 {
		w.maxKey = loaded[len(loaded)-1]
		w.zipf = xrand.NewZipf(uint64(len(loaded)), cfg.Theta)
		// Scramble the rank->key mapping so the hottest keys are spread
		// across the keyspace (YCSB convention).
		w.shuf = make([]uint64, len(loaded))
		copy(w.shuf, loaded)
		r := xrand.New(cfg.Seed ^ 0xdecafbad)
		for i := len(w.shuf) - 1; i > 0; i-- {
			j := r.Intn(i + 1)
			w.shuf[i], w.shuf[j] = w.shuf[j], w.shuf[i]
		}
	}
	if p := pending; len(p) > 0 {
		if p[len(p)-1] > w.maxKey {
			w.maxKey = p[len(p)-1]
		}
	}
	w.insert = make([][]uint64, cfg.Threads)
	for i, k := range pending {
		t := i % cfg.Threads
		w.insert[t] = append(w.insert[t], k)
	}
	return w
}

// Stream returns the deterministic operation stream for thread tid
// (0 <= tid < cfg.Threads).
func (w *Workload) Stream(tid int) *Stream {
	return &Stream{
		w:     w,
		r:     xrand.New(w.cfg.Seed + uint64(tid)*0x9e3779b97f4a7c15 + 1),
		queue: w.insert[tid],
		// Synthesised overflow keys are spaced by thread so streams
		// never collide.
		synth: w.maxKey + 1 + uint64(tid),
		step:  uint64(w.cfg.Threads),
	}
}

// Stream generates operations for one thread. Not safe for concurrent use;
// each goroutine takes its own Stream.
type Stream struct {
	w     *Workload
	r     *xrand.Rng
	queue []uint64
	pos   int
	synth uint64
	step  uint64
}

// Next returns the next operation.
func (s *Stream) Next() Op {
	m := &s.w.cfg.Mix
	p := s.r.Intn(100)
	switch {
	case p < m.Get:
		return Op{Kind: Get, Key: s.readKey()}
	case p < m.Get+m.Insert:
		k := s.insertKey()
		return Op{Kind: Insert, Key: k, Value: k*0x9e3779b97f4a7c15 + 1}
	case p < m.Get+m.Insert+m.Update:
		k := s.readKey()
		return Op{Kind: Update, Key: k, Value: s.r.Next()}
	case p < m.Get+m.Insert+m.Update+m.Remove:
		return Op{Kind: Remove, Key: s.readKey()}
	default:
		n := m.ScanLen
		if n <= 0 {
			n = 100
		}
		return Op{Kind: Scan, Key: s.readKey(), N: n}
	}
}

func (s *Stream) readKey() uint64 {
	if s.w.zipf == nil {
		return s.r.Next()
	}
	return s.w.shuf[s.w.zipf.Rank(s.r)]
}

func (s *Stream) insertKey() uint64 {
	if s.pos < len(s.queue) {
		k := s.queue[s.pos]
		s.pos++
		return k
	}
	k := s.synth
	s.synth += s.step
	return k
}

// SplitLoad divides a sorted dataset into the bulkload portion and the
// pending insert keys, per the paper's default of bulkloading initRatio of
// the dataset (0.5 in §IV-A2) and inserting the rest. The pending keys are
// returned shuffled (uniform insert order) under seed.
//
// The split is in place: the returned slices alias keys, which is
// partitioned (loaded sorted at the front, pending shuffled behind it) —
// so at the 50-200M-key tier the split adds zero resident bytes instead of
// materializing a second full copy of the sorted key set. Callers may keep
// using keys as a multiset but must not rely on its original order.
func SplitLoad(keys []uint64, initRatio float64, seed uint64) (loaded, pending []uint64) {
	if initRatio < 0 {
		initRatio = 0
	}
	if initRatio > 1 {
		initRatio = 1
	}
	// Take every k-th key into the load set so both halves span the full
	// key range (matching how SOSD benchmarks split: inserts interleave
	// with loaded keys rather than extending past them).
	n := len(keys)
	want := int(float64(n) * initRatio)
	if want > 0 {
		// Stable-for-selected partition: the sampled positions swap to the
		// front in ascending order, so loaded stays sorted; the displaced
		// keys land in the tail in arbitrary order, which the shuffle below
		// erases. A position is only ever written at or before its own
		// step, so each selection still reads the original sorted key.
		stride := float64(n) / float64(want)
		next := 0.0
		idx := 0
		for i := 0; i < n && idx < want; i++ {
			if i == int(next) {
				keys[idx], keys[i] = keys[i], keys[idx]
				idx++
				next += stride
			}
		}
		want = idx
	} else {
		want = 0
	}
	loaded, pending = keys[:want:want], keys[want:]
	r := xrand.New(seed ^ 0xfeedbeef)
	for i := len(pending) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		pending[i], pending[j] = pending[j], pending[i]
	}
	return loaded, pending
}

// HotSplit reserves a consecutive run of keys for insertion (the paper's
// hot-write workload: 20M consecutive keys reserved out of 200M, indexes
// initialised with the rest). frac is the reserved fraction; the reserved
// run is taken from the middle of the keyspace, in ascending (hot) order.
//
// Only the reserved run is copied out; the remainder is compacted in
// place, so loaded aliases keys and the split allocates frac·n keys
// instead of a full second copy. Callers must treat keys as consumed:
// after the split it holds loaded in its first n-res positions and
// garbage beyond.
func HotSplit(keys []uint64, frac float64, _ uint64) (loaded, pending []uint64) {
	n := len(keys)
	res := int(float64(n) * frac)
	if res <= 0 {
		return keys, nil
	}
	start := (n - res) / 2
	pending = append(make([]uint64, 0, res), keys[start:start+res]...)
	copy(keys[start:], keys[start+res:])
	return keys[: n-res : n-res], pending
}
