package art

import (
	"sync"

	"altindex/internal/index"
)

// ScanAppend is AppendRange over the half-open window [start, end), with
// end == ^uint64(0) as the unbounded sentinel (the index.Concurrent
// contract).
func (t *Tree) ScanAppend(dst []index.KV, start, end uint64, max int) []index.KV {
	hi, ok := index.Inclusive(start, end)
	if !ok {
		return dst
	}
	return t.AppendRange(dst, start, hi, max)
}

// AppendRange appends up to max pairs with keys in [start, end] (end
// inclusive) in ascending key order to dst and returns the extended slice,
// pruning subtrees outside the window on both sides. Callers that keep dst
// alive across scans amortize the result buffer away entirely.
//
// Every pair comes from a version-validated snapshot of its parent node, so
// a key resident for the whole call is always returned; the result is never
// cut short by contention. A validation conflict keeps the pairs collected
// so far — in-order traversal makes them exactly the window's keys up to
// the last one — and resumes the descent just above it, so a scan under
// sustained writes pays one root-to-leaf path per conflict instead of
// starting over.
func (t *Tree) AppendRange(dst []index.KV, start, end uint64, max int) []index.KV {
	if max <= 0 || end < start {
		return dst
	}
	sc := rangeScratchPool.Get().(*rangeScratch)
	base := len(dst)
	for !t.collectFast(t.root.Load(), 0, 0, 0, start, end, base+max, &dst, sc) {
		if n := len(dst); n > base {
			if dst[n-1].Key == end {
				break
			}
			start = dst[n-1].Key + 1
		}
	}
	rangeScratchPool.Put(sc)
	return dst
}

// rangeScratch holds one child-list snapshot per tree level for the bulk
// collector. A level's snapshot stays live while its children are being
// descended into, so levels cannot share storage; uint64 keys bound the
// descent at 9 levels (8 key bytes plus the root). Only the first cnt
// entries written by a visit are ever read back, so recycled scratches
// need no clearing — that is the point.
type rangeScratch struct {
	levels [9]struct {
		bs [256]byte
		cs [256]*Node
	}
}

var rangeScratchPool = sync.Pool{New: func() any { return new(rangeScratch) }}

// collectFast is the bulk collector behind AppendRange: it appends in-order
// pairs of [start, end] from n's subtree, returning false on a version
// conflict. acc carries the key bytes fixed by the path so far
// (high-aligned) and depth their count; lvl is the recursion depth indexing
// the scratch (distinct from depth, which also advances over compressed
// prefixes). One pooled scratch carries a per-level child snapshot for the
// whole descent, so a visit costs writes proportional to the node's fanout
// rather than a fixed 2.3KB zero-fill.
//
// Children are visited after their parent's snapshot validated, without
// lock coupling, so — like the root (see enter) — a child may have been
// re-parented by a prefix extraction since: its Depth(), read under its own
// version, must still equal the depth the path implies.
func (t *Tree) collectFast(n *Node, acc uint64, depth, lvl int, start, end uint64, max int, out *[]index.KV, sc *rangeScratch) bool {
	if n == nil || len(*out) >= max {
		return true
	}
	if n.kind == kindLeaf {
		if lf := n.leaf(); lf.key >= start && lf.key <= end {
			*out = append(*out, index.KV{Key: lf.key, Value: lf.value.Load()})
		}
		return true
	}
	v, okv := n.readLockOrRestart()
	if !okv {
		return false
	}
	if n.Depth() != depth {
		return false
	}
	acc, depth = nodeSpan(n, acc, depth)
	// Snapshot the ordered child list into this level's scratch before
	// validating, and only the child bytes whose subtrees can intersect
	// [start, end]: near the root the window spans a byte or two out of
	// 256, so a wide node costs the handful of probes the descent will
	// actually visit instead of 256.
	lev := &sc.levels[lvl]
	cnt := 0
	if depth <= 7 {
		lo, hi := windowBytes(acc, depth, start, end)
		cnt = n.childrenInto(lo, hi, &lev.bs, &lev.cs)
	}
	if !n.checkOrRestart(v) {
		return false
	}
	if depth > 7 {
		return true
	}
	for i := 0; i < cnt; i++ {
		if len(*out) >= max {
			return true
		}
		childAcc := acc | uint64(lev.bs[i])<<(56-8*depth)
		if !t.collectFast(lev.cs[i], childAcc, depth+1, lvl+1, start, end, max, out, sc) {
			return false
		}
	}
	return true
}

// windowBytes returns the inclusive child-byte range [lo, hi] at the given
// depth whose subtrees can intersect [start, end], given that acc carries
// the depth key bytes fixed by the path. Returns lo > hi when the whole
// node lies outside the window (the path's fixed bytes already diverge
// from it). Relies on Go's defined shift semantics: at depth 0 the
// shift+8 == 64 right-shifts yield 0, so the upper-byte comparison is
// trivially equal and the bounds come straight from start and end.
func windowBytes(acc uint64, depth int, start, end uint64) (int, int) {
	shift := uint(56 - 8*depth)
	lo, hi := 0, 255
	au, su, eu := acc>>(shift+8), start>>(shift+8), end>>(shift+8)
	if au == su {
		lo = int(start >> shift & 0xff)
	} else if au < su {
		return 1, 0 // every key here is below start
	}
	if au == eu {
		hi = int(end >> shift & 0xff)
	} else if au > eu {
		return 1, 0 // every key here is above end
	}
	return lo, hi
}
