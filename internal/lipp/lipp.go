// Package lipp reimplements LIPP+ — the concurrent variant of LIPP (Wu et
// al., VLDB 2021) used as a baseline in the ALT-index paper — with the
// behaviours that drive its benchmark profile:
//
//   - precise-position nodes: a key is exactly at its predicted slot or in
//     a child node hanging off that slot (no secondary search),
//   - prediction conflicts create child nodes (the 40.7%% insert overhead
//     the paper quotes),
//   - generous slot allocation (FMCD-style min-max fit with 2x slots),
//     which is why LIPP+ tops the memory chart in Fig 8a,
//   - per-node statistics counters updated on every node of every insert
//     path — the cache-invalidation scalability bottleneck the paper
//     highlights (especially the root counter).
package lipp

import (
	"sync"
	"sync/atomic"
	"unsafe"

	"altindex/internal/index"
)

// Slot kinds.
const (
	slotEmpty uint32 = iota
	slotData
	slotChild
)

const slotExpansion = 2 // slots per key at build time

// Index is a concurrent LIPP+-style learned index.
type Index struct {
	root atomic.Pointer[node]
	size atomic.Int64
}

type node struct {
	mu  sync.Mutex
	ver atomic.Uint64 // seqlock: odd while a writer mutates

	base   uint64
	slope  float64
	nslots int

	// stat mimics LIPP+'s per-node insert statistics; every insert
	// updates it along the whole path, invalidating the cache line.
	stat atomic.Int64

	kinds  []atomic.Uint32
	keys   []atomic.Uint64
	vals   []atomic.Uint64
	childs []atomic.Pointer[node]
}

// New returns an empty index.
func New() *Index { return &Index{} }

// Name implements index.Concurrent.
func (ix *Index) Name() string { return "LIPP+" }

// Len returns the number of live keys.
func (ix *Index) Len() int { return int(ix.size.Load()) }

// newNode builds a node over sorted keys with a min-max fit (an FMCD
// simplification: spread the keys across 2x slots between min and max).
func newNode(keys, vals []uint64) *node {
	n := &node{}
	if len(keys) == 0 {
		n.nslots = 8
		n.slope = 1
	} else {
		n.nslots = len(keys) * slotExpansion
		if n.nslots < 8 {
			n.nslots = 8
		}
		n.base = keys[0]
		span := keys[len(keys)-1] - keys[0]
		if span == 0 {
			n.slope = 1
		} else {
			n.slope = float64(n.nslots-1) / float64(span)
		}
	}
	n.kinds = make([]atomic.Uint32, n.nslots)
	n.keys = make([]atomic.Uint64, n.nslots)
	n.vals = make([]atomic.Uint64, n.nslots)
	n.childs = make([]atomic.Pointer[node], n.nslots)

	// Place keys; conflicting groups become child nodes.
	i := 0
	for i < len(keys) {
		s := n.predict(keys[i])
		j := i + 1
		for j < len(keys) && n.predict(keys[j]) == s {
			j++
		}
		if j-i == 1 {
			n.keys[s].Store(keys[i])
			n.vals[s].Store(vals[i])
			n.kinds[s].Store(slotData)
		} else {
			child := newNode(keys[i:j], vals[i:j])
			n.childs[s].Store(child)
			n.kinds[s].Store(slotChild)
		}
		i = j
	}
	return n
}

func (n *node) predict(key uint64) int {
	if key <= n.base {
		return 0
	}
	// Clamp in float: a key far above the node's range can put the
	// product past MaxInt64, where int() is undefined (MinInt64 on amd64,
	// which would send the largest keys to slot 0, out of order).
	f := n.slope * float64(key-n.base)
	if f >= float64(n.nslots-1) {
		return n.nslots - 1
	}
	if f < 0 {
		return 0
	}
	return int(f)
}

func (n *node) readVersion() (uint64, bool) {
	v := n.ver.Load()
	return v, v&1 == 0
}
func (n *node) validate(v uint64) bool { return n.ver.Load() == v }
func (n *node) beginWrite()            { n.mu.Lock(); n.ver.Add(1) }
func (n *node) endWrite()              { n.ver.Add(1); n.mu.Unlock() }

// Bulkload replaces the index contents.
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
	ix.root.Store(newNode(keys, vals))
	ix.size.Store(int64(len(keys)))
	return nil
}

// Get returns the value stored for key: a chain of exact predictions, no
// secondary search.
func (ix *Index) Get(key uint64) (uint64, bool) {
	cur := ix.root.Load()
	if cur == nil {
		return 0, false
	}
	for {
		v, ok := cur.readVersion()
		if !ok {
			continue
		}
		s := cur.predict(key)
		kind := cur.kinds[s].Load()
		switch kind {
		case slotEmpty:
			if cur.validate(v) {
				return 0, false
			}
		case slotData:
			k := cur.keys[s].Load()
			val := cur.vals[s].Load()
			if cur.validate(v) {
				return val, k == key
			}
		case slotChild:
			child := cur.childs[s].Load()
			if cur.validate(v) && child != nil {
				cur = child
			}
		}
	}
}

// Insert stores key/value (upsert). Every traversed node's statistics
// counter is updated — LIPP+'s concurrency bottleneck by design.
func (ix *Index) Insert(key, value uint64) error {
	for {
		cur := ix.root.Load()
		if cur == nil {
			n := newNode([]uint64{key}, []uint64{value})
			if ix.root.CompareAndSwap(nil, n) {
				ix.size.Add(1)
				return nil
			}
			continue
		}
		if ix.insertFrom(cur, key, value) {
			return nil
		}
	}
}

func (ix *Index) insertFrom(cur *node, key, value uint64) bool {
	for {
		cur.stat.Add(1) // statistics update: root line is the hot spot
		s := cur.predict(key)
		cur.beginWrite()
		switch cur.kinds[s].Load() {
		case slotEmpty:
			cur.keys[s].Store(key)
			cur.vals[s].Store(value)
			cur.kinds[s].Store(slotData)
			cur.endWrite()
			ix.size.Add(1)
			return true
		case slotData:
			k := cur.keys[s].Load()
			if k == key {
				cur.vals[s].Store(value)
				cur.endWrite()
				return true
			}
			// Prediction conflict: push both keys into a new child.
			ev := cur.vals[s].Load()
			var ck, cv []uint64
			if k < key {
				ck, cv = []uint64{k, key}, []uint64{ev, value}
			} else {
				ck, cv = []uint64{key, k}, []uint64{value, ev}
			}
			child := newNode(ck, cv)
			cur.childs[s].Store(child)
			cur.kinds[s].Store(slotChild)
			cur.endWrite()
			ix.size.Add(1)
			return true
		default: // child
			child := cur.childs[s].Load()
			cur.endWrite()
			if child == nil {
				return false
			}
			cur = child
		}
	}
}

// Update overwrites the value of an existing key.
func (ix *Index) Update(key, value uint64) bool {
	cur := ix.root.Load()
	for cur != nil {
		s := cur.predict(key)
		cur.beginWrite()
		switch cur.kinds[s].Load() {
		case slotEmpty:
			cur.endWrite()
			return false
		case slotData:
			ok := cur.keys[s].Load() == key
			if ok {
				cur.vals[s].Store(value)
			}
			cur.endWrite()
			return ok
		default:
			child := cur.childs[s].Load()
			cur.endWrite()
			cur = child
		}
	}
	return false
}

// Remove deletes key by emptying its slot (children are kept; LIPP does
// not merge subtrees on deletion).
func (ix *Index) Remove(key uint64) bool {
	cur := ix.root.Load()
	for cur != nil {
		s := cur.predict(key)
		cur.beginWrite()
		switch cur.kinds[s].Load() {
		case slotEmpty:
			cur.endWrite()
			return false
		case slotData:
			ok := cur.keys[s].Load() == key
			if ok {
				cur.kinds[s].Store(slotEmpty)
			}
			cur.endWrite()
			if ok {
				ix.size.Add(-1)
			}
			return ok
		default:
			child := cur.childs[s].Load()
			cur.endWrite()
			cur = child
		}
	}
	return false
}

// ScanAppend appends up to max pairs with keys in [start, end) to dst in
// ascending order (the index.Concurrent contract; slot order equals key
// order, and child subtrees sit between their neighbours).
func (ix *Index) ScanAppend(dst []index.KV, start, end uint64, max int) []index.KV {
	hi, ok := index.Inclusive(start, end)
	if max <= 0 || !ok {
		return dst
	}
	base := len(dst)
	for {
		if _, ok := ix.collect(ix.root.Load(), start, hi, base+max, &dst); ok {
			return dst
		}
		// Every pair collected was read under a valid version: resume
		// after the last one. Any insert moves the root's version, so a
		// restart from scratch could be cut short forever.
		if n := len(dst); n > base {
			if dst[n-1].Key == hi {
				return dst
			}
			start = dst[n-1].Key + 1
		}
	}
}

// collect appends n's pairs with keys in [start, hi] to out until it holds
// max, reporting ok=false on a version conflict; each pair is appended only
// once its slot read validated, so the pairs before a conflict stand. past
// reports a key above hi: nothing after it in slot order can be in the
// window.
func (ix *Index) collect(n *node, start, hi uint64, max int, out *[]index.KV) (past, ok bool) {
	if n == nil || len(*out) >= max {
		return false, true
	}
	v, ok := n.readVersion()
	if !ok {
		return false, false
	}
	from := n.predict(start)
	for s := from; s < n.nslots && len(*out) < max; s++ {
		switch n.kinds[s].Load() {
		case slotData:
			k := n.keys[s].Load()
			val := n.vals[s].Load()
			if !n.validate(v) {
				return false, false
			}
			if k > hi {
				return true, true
			}
			if k >= start {
				*out = append(*out, index.KV{Key: k, Value: val})
			}
		case slotChild:
			child := n.childs[s].Load()
			if !n.validate(v) {
				return false, false
			}
			if past, ok := ix.collect(child, start, hi, max, out); past || !ok {
				return past, ok
			}
		}
	}
	return false, n.validate(v)
}

// MemoryUsage approximates retained heap bytes; LIPP's generous slot
// allocation makes this the largest of the compared indexes.
func (ix *Index) MemoryUsage() uintptr { return memWalk(ix.root.Load()) }

func memWalk(n *node) uintptr {
	if n == nil {
		return 0
	}
	total := unsafe.Sizeof(node{}) + uintptr(n.nslots)*(4+8+8+8)
	for s := 0; s < n.nslots; s++ {
		if n.kinds[s].Load() == slotChild {
			total += memWalk(n.childs[s].Load())
		}
	}
	return total
}

// StatsMap implements index.Stats.
func (ix *Index) StatsMap() map[string]int64 {
	nodes, depth := int64(0), int64(0)
	var walk func(*node, int64)
	walk = func(n *node, d int64) {
		if n == nil {
			return
		}
		nodes++
		if d > depth {
			depth = d
		}
		for s := 0; s < n.nslots; s++ {
			if n.kinds[s].Load() == slotChild {
				walk(n.childs[s].Load(), d+1)
			}
		}
	}
	walk(ix.root.Load(), 1)
	return map[string]int64{"nodes": nodes, "depth": depth}
}

var _ index.Concurrent = (*Index)(nil)
var _ index.Stats = (*Index)(nil)
