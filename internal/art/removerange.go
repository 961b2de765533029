package art

import "altindex/internal/index"

// RemoveRange deletes every key in [lo, hi] (both inclusive), appends the
// removed pairs to dst in ascending key order and returns the extended
// slice. One traversal does the work of N Remove calls: subtrees entirely
// inside the window are unlinked wholesale and their leaves harvested,
// instead of paying a root-to-leaf descent per key.
//
// Locking discipline. The traversal uses pessimistic lock coupling — at
// most a parent/child pair of write locks is held at a time, acquired
// top-down like every other writer, so it cannot deadlock against inserts,
// removes or other RemoveRange calls. Under a locked parent the in-window
// children are classified: covered subtrees are unlinked (and consumed
// after the parent lock is released), boundary children that only partly
// overlap are locked before the parent is released and then recursed into.
// Every node of an unlinked subtree is write-locked and marked obsolete
// before its leaves are emitted, so a writer that raced past the unlink
// point either completed its mutation first (and is observed) or restarts
// from the root and finds the subtree gone.
//
// Concurrency semantics: keys removed are exactly the in-window keys
// present at each subtree's unlink instant. A concurrent in-window insert
// may land after its subtree was processed and survive (it linearizes
// after the removal); a concurrent in-window update may be emitted with
// either value. Callers that need an exact cut — ALT retraining — must
// first block in-window writers (the model freeze does exactly that).
func (t *Tree) RemoveRange(lo, hi uint64, dst []index.KV) []index.KV {
	if hi < lo {
		return dst
	}
	for {
		root := t.root.Load()
		if root == nil {
			return dst
		}
		v, ok := root.readLockOrRestart()
		if !ok {
			continue // stale root pointer; reload
		}
		if !root.upgradeToWriteLockOrRestart(v) {
			continue
		}
		if t.root.Load() != root {
			root.writeUnlock()
			continue
		}
		if root.kind == kindLeaf {
			if k := root.leaf().key; k >= lo && k <= hi {
				t.root.Store(nil)
				dst = t.consumeSubtree(root, dst)
			} else {
				root.writeUnlock()
			}
			return dst
		}
		acc, depth := nodeSpan(root, 0, 0)
		switch sMax := spanMax(acc, depth); {
		case sMax < lo || acc > hi:
			root.writeUnlock()
			return dst
		case acc >= lo && sMax <= hi:
			t.root.Store(nil)
			return t.consumeSubtree(root, dst)
		default:
			return t.removeRangeIn(root, acc, depth, lo, hi, dst)
		}
	}
}

// nodeSpan folds n's compressed-path prefix into acc (the key bytes fixed
// by the path above n, high-aligned) and returns the extended accumulator
// plus the total number of fixed bytes. Caller holds n's write lock or
// validates its version afterwards.
func nodeSpan(n *Node, acc uint64, depth int) (uint64, int) {
	pl, _, _ := n.loadMeta()
	pw := n.in().prefixW.Load()
	for i := 0; i < pl && depth+i < 8; i++ {
		acc |= uint64(byte(pw>>(8*i))) << (56 - 8*(depth+i))
	}
	return acc, depth + pl
}

// spanMax returns the largest key reachable under a node whose first
// nbytes key bytes are fixed in acc.
func spanMax(acc uint64, nbytes int) uint64 {
	if nbytes >= 8 {
		return acc
	}
	return acc | (uint64(1)<<(64-8*nbytes) - 1)
}

// lockNode spin-acquires n's write lock. The caller guarantees n cannot be
// unlinked meanwhile (it holds n's parent lock, or n is already detached),
// so obsolescence cannot race in and the spin always terminates.
func lockNode(n *Node) {
	for spins := 0; ; spins++ {
		v := n.version.Load()
		if !isLocked(v) && n.upgradeToWriteLockOrRestart(v) {
			return
		}
		spinWait(spins)
	}
}

// rrAction is one classified overlapping child, processed after the parent
// lock is dropped. The node is write-locked; unless partial (a boundary
// subtree to recurse into), it is already unlinked from the parent.
type rrAction struct {
	node    *Node
	partial bool
	acc     uint64 // partial only: fixed bytes incl. the node's own prefix
	depth   int    // partial only: count of fixed bytes
}

// removeRangeIn processes an inner node that partially overlaps [lo, hi].
// n is write-locked and linked; acc/depth include n's prefix. Under n's
// lock it unlinks fully-covered children and locks the (at most two)
// boundary children, then releases n before the expensive part — consuming
// detached subtrees and recursing into boundaries — so n's out-of-window
// children stay reachable throughout. Releases n's lock; emission stays in
// ascending order because children are classified and processed in byte
// order.
func (t *Tree) removeRangeIn(n *Node, acc uint64, depth int, lo, hi uint64, dst []index.KV) []index.KV {
	if depth > 7 {
		n.writeUnlock()
		return dst
	}
	var bs [256]byte
	var cs [256]*Node
	// Only the child bytes whose subtrees can intersect the window.
	wlo, whi := windowBytes(acc, depth, lo, hi)
	cnt := n.childrenInto(wlo, whi, &bs, &cs)

	var acts []rrAction
	for i := 0; i < cnt; i++ {
		c := cs[i]
		childAcc := acc | uint64(bs[i])<<(56-8*depth)
		lockNode(c)
		if c.kind == kindLeaf {
			if k := c.leaf().key; k >= lo && k <= hi {
				n.removeChild(bs[i])
				acts = append(acts, rrAction{node: c})
			} else {
				c.writeUnlock()
			}
			continue
		}
		cAcc, cDepth := nodeSpan(c, childAcc, depth+1)
		switch cMax := spanMax(cAcc, cDepth); {
		case cMax < lo || cAcc > hi:
			c.writeUnlock() // prefix steers the subtree outside the window
		case cAcc >= lo && cMax <= hi:
			n.removeChild(bs[i])
			acts = append(acts, rrAction{node: c})
		default:
			acts = append(acts, rrAction{node: c, partial: true, acc: cAcc, depth: cDepth})
		}
	}
	n.writeUnlock()

	for _, a := range acts {
		if a.partial {
			dst = t.removeRangeIn(a.node, a.acc, a.depth, lo, hi, dst)
		} else {
			dst = t.consumeSubtree(a.node, dst)
		}
	}
	return dst
}

// consumeSubtree harvests a detached subtree: n is write-locked and
// unlinked. Every node is marked obsolete under its lock — not just freed —
// because writers that entered the subtree before the unlink can still
// complete mutations into it; obsoleting each node forces them to restart
// against the live tree, and locking each node first means any mutation
// that did complete is observed here. Leaves are emitted in order.
func (t *Tree) consumeSubtree(n *Node, dst []index.KV) []index.KV {
	if n.kind == kindLeaf {
		dst = append(dst, index.KV{Key: n.leaf().key, Value: n.leaf().value.Load()})
		t.size.Add(-1)
		n.writeUnlockObsolete()
		return dst
	}
	var bs [256]byte
	var cs [256]*Node
	cnt := n.childrenInto(0, 255, &bs, &cs)
	n.writeUnlockObsolete()
	for i := 0; i < cnt; i++ {
		lockNode(cs[i])
		dst = t.consumeSubtree(cs[i], dst)
	}
	return dst
}
