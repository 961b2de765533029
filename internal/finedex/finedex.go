// Package finedex reimplements FINEdex (Li et al., VLDB 2021) — a baseline
// in the ALT-index paper — with the behaviours that drive its benchmark
// profile:
//
//   - models trained by the Learning Probe Algorithm (LPA) over the bulk
//     data, kept in a flat sorted directory,
//   - bounded secondary search: a lookup predicts a position and binary
//     searches within the model's error bound (the prediction-error cost
//     the paper's Fig 3b sweeps),
//   - fine-grained per-slot delta buffers ("level bins") that absorb all
//     runtime inserts; bins grow level by level and degrade lookups and
//     memory as they fill (Fig 7/8a).
//
// The trained arrays are immutable, so reads touch them lock-free; only
// bins take locks, giving FINEdex its good read scalability but
// write-buffer-bound insert path.
package finedex

import (
	"sort"
	"sync"
	"sync/atomic"
	"unsafe"

	"altindex/internal/gpl"
	"altindex/internal/index"
)

const defaultErrBound = 32 // the error bound FINEdex's paper recommends

// Index is a concurrent FINEdex-style learned index.
type Index struct {
	tab  atomic.Pointer[table]
	size atomic.Int64
	// ErrBound is the training error bound; set before Bulkload
	// (defaults to 32).
	ErrBound int
}

type table struct {
	firsts []uint64
	models []*fmodel
}

// fmodel is one trained model: an immutable sorted key array with a linear
// fit of bounded error, per-slot tombstones, and per-slot level bins.
type fmodel struct {
	seg  gpl.Segment
	keys []uint64 // immutable after build
	vals []atomic.Uint64
	dead []atomic.Uint64 // tombstone bitmap
	errB int

	// mu serializes writes to vals and dead, so a write decides on the
	// tombstone it changes; reads take no lock.
	mu sync.Mutex

	// bins[i] holds inserted keys that sort between keys[i] and
	// keys[i+1] (bin len(keys) catches the tail). Allocated lazily.
	bins []atomic.Pointer[bin]
}

// bin is a level bin: a small sorted buffer guarded by its own lock. When a
// level fills, the bin grows to the next level (capacity doubles) — the
// FINEdex level-bin chain, flattened.
type bin struct {
	mu      sync.Mutex
	ver     atomic.Uint64
	keys    []atomic.Uint64
	vals    []atomic.Uint64
	n       atomic.Int32
	deleted []atomic.Uint32
}

const binLevel0 = 4

func newBin(capacity int) *bin {
	return &bin{
		keys:    make([]atomic.Uint64, capacity),
		vals:    make([]atomic.Uint64, capacity),
		deleted: make([]atomic.Uint32, capacity),
	}
}

// New returns an empty index.
func New() *Index { return &Index{ErrBound: defaultErrBound} }

// Name implements index.Concurrent.
func (ix *Index) Name() string { return "FINEdex" }

// Len returns the number of live keys.
func (ix *Index) Len() int { return int(ix.size.Load()) }

// Bulkload trains LPA models over the pairs and lays each model's keys out
// in a packed sorted array.
func (ix *Index) Bulkload(pairs []index.KV) error {
	keys := make([]uint64, len(pairs))
	vals := make([]uint64, len(pairs))
	for i, kv := range pairs {
		if i > 0 && kv.Key <= keys[i-1] {
			return index.ErrUnsortedBulk
		}
		keys[i] = kv.Key
		vals[i] = kv.Value
	}
	eb := ix.ErrBound
	if eb <= 0 {
		eb = defaultErrBound
	}
	var firsts []uint64
	var models []*fmodel
	if len(keys) > 0 {
		segs := gpl.LPA(keys, float64(eb))
		off := 0
		for _, seg := range segs {
			m := &fmodel{
				seg:  seg,
				keys: append([]uint64(nil), keys[off:off+seg.N]...),
				vals: make([]atomic.Uint64, seg.N),
				dead: make([]atomic.Uint64, (seg.N+63)/64),
				errB: eb,
				bins: make([]atomic.Pointer[bin], seg.N+1),
			}
			for i := 0; i < seg.N; i++ {
				m.vals[i].Store(vals[off+i])
			}
			first := seg.First
			if off == 0 {
				first = 0
			}
			firsts = append(firsts, first)
			models = append(models, m)
			off += seg.N
		}
	} else {
		m := &fmodel{seg: gpl.Segment{Slope: 1}, errB: eb,
			bins: make([]atomic.Pointer[bin], 1)}
		firsts = []uint64{0}
		models = []*fmodel{m}
	}
	ix.tab.Store(&table{firsts: firsts, models: models})
	ix.size.Store(int64(len(keys)))
	return nil
}

func (tb *table) find(key uint64) *fmodel {
	lo, hi := 0, len(tb.firsts)
	for lo < hi {
		mid := (lo + hi) / 2
		if tb.firsts[mid] <= key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	i := lo - 1
	if i < 0 {
		i = 0
	}
	return tb.models[i]
}

// locate returns the index of key in m.keys, or ^insertionPoint if absent,
// using prediction plus a binary search inside the error bound — the
// bounded secondary search that defines FINEdex's read cost.
func (m *fmodel) locate(key uint64) (int, bool) {
	n := len(m.keys)
	if n == 0 {
		return 0, false
	}
	pred := int(m.seg.Predict(key))
	lo := pred - m.errB
	hi := pred + m.errB + 1
	if lo < 0 {
		lo = 0
	}
	if hi > n {
		hi = n
	}
	// The error bound only holds for trained keys; runtime probes of
	// arbitrary keys widen to the full array when the window misses.
	if lo >= n {
		lo = n - 1
	}
	if lo > 0 && m.keys[lo] > key {
		lo = 0
	}
	if hi < n && m.keys[hi-1] < key {
		hi = n
	}
	i := lo + sort.Search(hi-lo, func(j int) bool { return m.keys[lo+j] >= key })
	if i < n && m.keys[i] == key {
		return i, true
	}
	return i, false
}

func (m *fmodel) isDead(i int) bool {
	return m.dead[i>>6].Load()&(1<<(uint(i)&63)) != 0
}

// setDead sets slot i's tombstone and reports whether that changed it.
// The caller holds m.mu.
func (m *fmodel) setDead(i int, dead bool) bool {
	w, bit := &m.dead[i>>6], uint64(1)<<(uint(i)&63)
	old := w.Load()
	next := old &^ bit
	if dead {
		next = old | bit
	}
	w.Store(next)
	return next != old
}

// Get returns the value stored for key.
func (ix *Index) Get(key uint64) (uint64, bool) {
	tb := ix.tab.Load()
	if tb == nil {
		return 0, false
	}
	m := tb.find(key)
	if i, ok := m.locate(key); ok {
		if m.isDead(i) {
			return 0, false
		}
		return m.vals[i].Load(), true
	} else if b := m.binAt(i); b != nil {
		return b.get(key)
	}
	return 0, false
}

// binAt returns the bin covering insertion point i, or nil.
func (m *fmodel) binAt(i int) *bin {
	if i < 0 || i >= len(m.bins) {
		return nil
	}
	return m.bins[i].Load()
}

// get reads a bin under its seqlock.
func (b *bin) get(key uint64) (uint64, bool) {
	for {
		v := b.ver.Load()
		if v&1 != 0 {
			continue
		}
		n := int(b.n.Load())
		var val uint64
		found := false
		for i := 0; i < n && i < len(b.keys); i++ {
			if b.keys[i].Load() == key {
				found = b.deleted[i].Load() == 0
				val = b.vals[i].Load()
				break
			}
		}
		if b.ver.Load() == v {
			return val, found
		}
	}
}

var _ index.Concurrent = (*Index)(nil)
var _ index.Stats = (*Index)(nil)

// MemoryUsage approximates retained heap bytes including level bins — the
// delta-buffer overhead of Fig 8a.
func (ix *Index) MemoryUsage() uintptr {
	tb := ix.tab.Load()
	if tb == nil {
		return 0
	}
	total := uintptr(len(tb.firsts)) * 16
	for _, m := range tb.models {
		total += unsafe.Sizeof(fmodel{}) + uintptr(len(m.keys))*(8+8) +
			uintptr(len(m.dead))*8 + uintptr(len(m.bins))*8
		for i := range m.bins {
			if b := m.bins[i].Load(); b != nil {
				total += unsafe.Sizeof(bin{}) + uintptr(len(b.keys))*(8+8+4)
			}
		}
	}
	return total
}

// StatsMap implements index.Stats.
func (ix *Index) StatsMap() map[string]int64 {
	tb := ix.tab.Load()
	if tb == nil {
		return map[string]int64{}
	}
	binCount, binKeys := int64(0), int64(0)
	for _, m := range tb.models {
		for i := range m.bins {
			if b := m.bins[i].Load(); b != nil {
				binCount++
				binKeys += int64(b.n.Load())
			}
		}
	}
	return map[string]int64{
		"models":   int64(len(tb.models)),
		"bins":     binCount,
		"bin_keys": binKeys,
	}
}
