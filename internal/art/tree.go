package art

import (
	"sync/atomic"

	"altindex/internal/index"
)

// SMOHooks receives structure-modification callbacks. The callbacks run
// while the affected nodes are write-locked, so implementations must be
// short and must not re-enter the tree.
type SMOHooks interface {
	// OnReplace reports that old is being replaced by new as the entry
	// point of its subtree: either a node expansion (the paper's case ②,
	// new is a larger copy of old) or a prefix extraction (case ①, new
	// is the freshly created parent of old). A fast pointer that led to
	// old must now lead to new.
	OnReplace(old, new *Node)
}

// Tree is a concurrent ART over 8-byte keys implementing index.Concurrent.
type Tree struct {
	root  atomic.Pointer[Node]
	size  atomic.Int64
	hooks SMOHooks
}

// New returns an empty tree. hooks may be nil.
func New(hooks SMOHooks) *Tree { return &Tree{hooks: hooks} }

// Name implements index.Concurrent.
func (t *Tree) Name() string { return "ART" }

// Len returns the number of live keys.
func (t *Tree) Len() int { return int(t.size.Load()) }

// Root returns the current root node (possibly nil). Exposed for the
// fast-pointer construction walk.
func (t *Tree) Root() *Node { return t.root.Load() }

func (t *Tree) onReplace(old, new *Node) {
	if t.hooks != nil {
		t.hooks.OnReplace(old, new)
	}
}

// prefixMismatch returns the index of the first of n's pl prefix bytes that
// differs from key's bytes starting at depth, or -1 if they all match.
// Safe for optimistic readers.
func prefixMismatch(n *Node, key uint64, depth, pl int) int {
	w := n.in().prefixW.Load()
	for i := 0; i < pl; i++ {
		if byte(w>>(8*i)) != keyByte(key, depth+i) {
			return i
		}
	}
	return -1
}

// Bulkload implements index.Concurrent by inserting the pairs, which must
// be strictly ascending. Sorted insertion builds a well-shaped radix tree
// without a dedicated bulk path.
func (t *Tree) Bulkload(pairs []index.KV) error {
	var prev uint64
	for i, kv := range pairs {
		if i > 0 && kv.Key <= prev {
			return index.ErrUnsortedBulk
		}
		prev = kv.Key
		if err := t.Insert(kv.Key, kv.Value); err != nil {
			return err
		}
	}
	return nil
}

// Get returns the value stored for key.
func (t *Tree) Get(key uint64) (uint64, bool) {
	for {
		val, found, _, ok := t.tryGet(nil, key)
		if ok {
			return val, found
		}
	}
}

// GetFrom looks key up starting at start, an intermediate node reached via
// a fast pointer whose Depth() key bytes are already matched. It returns
// the number of nodes traversed (the paper's "lookup length", Fig 10a).
// If start keeps failing entry (obsolete, hot, or re-parented so that it no
// longer covers key), the lookup falls back to a root traversal.
func (t *Tree) GetFrom(start *Node, key uint64) (val uint64, found bool, pathLen int) {
	if start != nil && start.kind == kindLeaf {
		start = nil // a leaf records no depth, so it is no entry point
	}
	for attempt := 0; ; attempt++ {
		val, found, pathLen, ok := t.tryGet(start, key)
		if ok {
			return val, found, pathLen
		}
		if start != nil && attempt >= 2 {
			start = nil
		}
	}
}

// enter begins a traversal at the root (start == nil) or at a fast-pointer
// entry node: it returns the node to walk from, a version snapshot of it
// and the number of key bytes consumed above it. A nil cur with ok means an
// empty tree; !ok means restart.
//
// Holding a pointer to a node says nothing about where the node sits: a
// prefix extraction (case ①) re-parents a live node — the old root becomes a
// child of the new root, with a trimmed prefix and a raised depth — and
// bumps its version without marking it obsolete. So the position is read
// under the version: the root pointer is re-checked after the snapshot (any
// later extraction fails the walker's next validation), and a fast-pointer
// entry reads Depth() after it (callers also confirm coversKey under the
// same snapshot). Every later hop is covered by lock coupling.
func (t *Tree) enter(start *Node) (cur *Node, v uint64, depth int, ok bool) {
	if start != nil {
		v, ok = start.readLockOrRestart()
		return start, v, start.Depth(), ok
	}
	if cur = t.root.Load(); cur == nil {
		return nil, 0, 0, true
	}
	v, ok = cur.readLockOrRestart()
	return cur, v, 0, ok && t.root.Load() == cur
}

// tryGet is one optimistic lookup attempt; ok=false means restart.
func (t *Tree) tryGet(start *Node, key uint64) (val uint64, found bool, pathLen int, ok bool) {
	cur, v, depth, okv := t.enter(start)
	if !okv || (start != nil && !cur.coversKey(key)) {
		return 0, false, 0, false
	}
	if cur == nil {
		return 0, false, 0, true
	}
	for {
		pathLen++
		if cur.kind == kindLeaf {
			lf := cur.leaf()
			val = lf.value.Load()
			if !cur.checkOrRestart(v) {
				return 0, false, 0, false
			}
			return val, lf.key == key, pathLen, true
		}
		pl, _, _ := cur.loadMeta()
		if prefixMismatch(cur, key, depth, pl) >= 0 {
			if !cur.checkOrRestart(v) {
				return 0, false, 0, false
			}
			return 0, false, pathLen, true
		}
		depth += pl
		next := cur.findChild(keyByte(key, depth))
		if !cur.checkOrRestart(v) {
			return 0, false, 0, false
		}
		if next == nil {
			return 0, false, pathLen, true
		}
		nv, okn := next.readLockOrRestart()
		if !okn || !cur.checkOrRestart(v) {
			return 0, false, 0, false
		}
		cur, v = next, nv
		depth++
	}
}

// Insert stores key/value, overwriting an existing key (upsert).
func (t *Tree) Insert(key, value uint64) error {
	t.Put(key, value)
	return nil
}

// Put stores key/value and reports whether a new key was added (false for
// an in-place overwrite of an existing key).
func (t *Tree) Put(key, value uint64) (added bool) {
	for {
		done, added, _ := t.tryInsert(nil, key, value)
		if done {
			return added
		}
	}
}

// PutFrom inserts starting at an intermediate node reached via a fast
// pointer (§III-C3: "insertion is similar to the lookup"). When the
// required structure modification sits at the entry node itself — whose
// parent is unknown here — or the entry keeps failing validation, the
// insert falls back to a root traversal.
func (t *Tree) PutFrom(start *Node, key, value uint64) (added bool) {
	for attempt := 0; start != nil && start.kind != kindLeaf && attempt < 3; attempt++ {
		done, added, needRoot := t.tryInsert(start, key, value)
		if done {
			return added
		}
		if needRoot {
			break
		}
	}
	return t.Put(key, value)
}

// Update overwrites the value of an existing key.
func (t *Tree) Update(key, value uint64) bool {
	for {
		if done, found := t.tryUpdate(key, value); done {
			return found
		}
	}
}

func (t *Tree) tryUpdate(key, value uint64) (done, found bool) {
	cur, v, depth, okv := t.enter(nil)
	if !okv {
		return false, false
	}
	if cur == nil {
		return true, false
	}
	for {
		if cur.kind == kindLeaf {
			if !cur.checkOrRestart(v) {
				return false, false
			}
			if cur.leaf().key != key {
				return true, false
			}
			// The value is a single atomic word; a racing remove makes
			// this store land on a dead leaf, which linearizes as
			// update-before-remove.
			cur.leaf().value.Store(value)
			return true, true
		}
		pl, _, _ := cur.loadMeta()
		if prefixMismatch(cur, key, depth, pl) >= 0 {
			if !cur.checkOrRestart(v) {
				return false, false
			}
			return true, false
		}
		depth += pl
		next := cur.findChild(keyByte(key, depth))
		if !cur.checkOrRestart(v) {
			return false, false
		}
		if next == nil {
			return true, false
		}
		nv, okn := next.readLockOrRestart()
		if !okn || !cur.checkOrRestart(v) {
			return false, false
		}
		cur, v = next, nv
		depth++
	}
}

// tryInsert is one lock-coupled insert attempt; done=false means restart,
// and needRoot=true additionally means the caller entered at an
// intermediate node but the modification requires that node's parent.
func (t *Tree) tryInsert(start *Node, key, value uint64) (done, added, needRoot bool) {
	cur, v, depth, okv := t.enter(start)
	if !okv || (start != nil && !cur.coversKey(key)) {
		return false, false, start != nil
	}
	if cur == nil {
		if t.root.CompareAndSwap(nil, newLeaf(key, value)) {
			t.size.Add(1)
			return true, true, false
		}
		return false, false, false
	}
	var parent *Node
	var pv uint64
	var parentByte byte
	for {
		if cur.kind == kindLeaf {
			curKey := cur.leaf().key
			if curKey == key {
				if !cur.checkOrRestart(v) {
					return false, false, false
				}
				cur.leaf().value.Store(value) // upsert in place
				return true, false, false
			}
			// Split the leaf under a new Node4 holding the common
			// path bytes of both keys below depth.
			if parent != nil && !parent.upgradeToWriteLockOrRestart(pv) {
				return false, false, false
			}
			if !cur.upgradeToWriteLockOrRestart(v) {
				if parent != nil {
					parent.writeUnlock()
				}
				return false, false, false
			}
			if parent == nil {
				if start != nil {
					cur.writeUnlock()
					return false, false, true // need the entry's parent
				}
				if t.root.Load() != cur {
					cur.writeUnlock()
					return false, false, false
				}
			}
			n4 := newInner(kind4, depth)
			n4.in().pathHi.Store(key & maskFor(depth))
			var pw uint64
			i := depth
			for i < 8 && keyByte(curKey, i) == keyByte(key, i) {
				pw |= uint64(keyByte(key, i)) << (8 * (i - depth))
				i++
			}
			n4.in().prefixW.Store(pw)
			n4.storeMeta(i-depth, depth, 0)
			n4.addChild(keyByte(curKey, i), cur)
			n4.addChild(keyByte(key, i), newLeaf(key, value))
			if parent == nil {
				t.root.Store(n4)
			} else {
				parent.replaceChild(parentByte, n4)
				parent.writeUnlock()
			}
			cur.writeUnlock()
			t.size.Add(1)
			return true, true, false
		}
		// Prefix check; a mismatch triggers prefix extraction (case ①).
		pl, _, _ := cur.loadMeta()
		mismatch := prefixMismatch(cur, key, depth, pl)
		if mismatch >= 0 {
			if parent != nil && !parent.upgradeToWriteLockOrRestart(pv) {
				return false, false, false
			}
			if !cur.upgradeToWriteLockOrRestart(v) {
				if parent != nil {
					parent.writeUnlock()
				}
				return false, false, false
			}
			if parent == nil {
				if start != nil {
					cur.writeUnlock()
					return false, false, true // need the entry's parent
				}
				if t.root.Load() != cur {
					cur.writeUnlock()
					return false, false, false
				}
			}
			oldW := cur.in().prefixW.Load()
			oldByte := byte(oldW >> (8 * mismatch))
			np := newInner(kind4, depth)
			np.in().pathHi.Store(key & maskFor(depth))
			if mismatch > 0 {
				np.in().prefixW.Store(oldW & (uint64(1)<<(8*mismatch) - 1))
			}
			np.storeMeta(mismatch, depth, 0)
			// Trim cur's prefix: mismatch bytes moved into np plus one
			// byte consumed as cur's child byte under np. cur's root
			// path grows by the extracted bytes.
			hi := cur.in().pathHi.Load() & maskFor(depth)
			for i := 0; i <= mismatch; i++ {
				hi |= uint64(byte(oldW>>(8*i))) << (56 - 8*(depth+i))
			}
			cur.in().pathHi.Store(hi)
			cur.in().prefixW.Store(oldW >> (8 * (mismatch + 1)))
			cur.storeMeta(pl-mismatch-1, depth+mismatch+1, cur.numChildren())
			np.addChild(oldByte, cur)
			np.addChild(keyByte(key, depth+mismatch), newLeaf(key, value))
			// Case ①: a fast pointer to cur must move to the extracted
			// parent so it keeps covering the whole key range.
			t.onReplace(cur, np)
			if parent == nil {
				t.root.Store(np)
			} else {
				parent.replaceChild(parentByte, np)
				parent.writeUnlock()
			}
			cur.writeUnlock()
			t.size.Add(1)
			return true, true, false
		}
		depth += pl
		b := keyByte(key, depth)
		next := cur.findChild(b)
		if !cur.checkOrRestart(v) {
			return false, false, false
		}
		if next == nil {
			if cur.full() {
				// Node expansion (case ②): grow into a larger copy and
				// swap it into the parent; cur becomes obsolete.
				if parent != nil && !parent.upgradeToWriteLockOrRestart(pv) {
					return false, false, false
				}
				if !cur.upgradeToWriteLockOrRestart(v) {
					if parent != nil {
						parent.writeUnlock()
					}
					return false, false, false
				}
				if parent == nil && t.root.Load() != cur {
					cur.writeUnlock()
					return false, false, false
				}
				big := cur.grow()
				big.addChild(b, newLeaf(key, value))
				t.onReplace(cur, big)
				if parent == nil {
					t.root.Store(big)
				} else {
					parent.replaceChild(parentByte, big)
					parent.writeUnlock()
				}
				cur.writeUnlockObsolete()
				t.size.Add(1)
				return true, true, false
			}
			if !cur.upgradeToWriteLockOrRestart(v) {
				return false, false, false
			}
			cur.addChild(b, newLeaf(key, value))
			cur.writeUnlock()
			t.size.Add(1)
			return true, true, false
		}
		nv, okn := next.readLockOrRestart()
		if !okn || !cur.checkOrRestart(v) {
			return false, false, false
		}
		parent, pv, parentByte = cur, v, b
		cur, v = next, nv
		depth++
	}
}

// Remove deletes key, reporting whether it was present. Inner nodes are not
// collapsed on removal (no kind downgrades); the tree stays correct, at a
// small memory cost after heavy deletion.
func (t *Tree) Remove(key uint64) bool {
	for {
		if done, removed := t.tryRemove(key); done {
			return removed
		}
	}
}

func (t *Tree) tryRemove(key uint64) (done, removed bool) {
	cur, v, depth, okv := t.enter(nil)
	if !okv {
		return false, false
	}
	if cur == nil {
		return true, false
	}
	var parent, gp *Node
	var pv, gpv uint64
	var parentByte, gpByte byte
	for {
		if cur.kind == kindLeaf {
			if cur.leaf().key != key {
				if !cur.checkOrRestart(v) {
					return false, false
				}
				return true, false
			}
			if parent == nil {
				if !cur.upgradeToWriteLockOrRestart(v) {
					return false, false
				}
				if t.root.Load() != cur {
					cur.writeUnlock()
					return false, false
				}
				t.root.Store(nil)
				cur.writeUnlockObsolete()
				t.size.Add(-1)
				return true, true
			}
			if !parent.upgradeToWriteLockOrRestart(pv) {
				return false, false
			}
			if !cur.upgradeToWriteLockOrRestart(v) {
				parent.writeUnlock()
				return false, false
			}
			parent.removeChild(parentByte)
			cur.writeUnlockObsolete()
			t.size.Add(-1)
			// Opportunistic node downgrade: if the parent has shrunk
			// well below the next smaller kind's capacity, replace it
			// with a compact copy. Skipped (not retried) when the
			// grandparent can't be locked — shrinkThreshold's
			// hysteresis lets a later removal try again.
			if th := parent.shrinkThreshold(); th > 0 && parent.numChildren() < th {
				if gp == nil {
					if t.root.Load() == parent {
						small := parent.shrink()
						t.onReplace(parent, small)
						t.root.Store(small)
						parent.writeUnlockObsolete()
						return true, true
					}
				} else if gp.upgradeToWriteLockOrRestart(gpv) {
					small := parent.shrink()
					t.onReplace(parent, small)
					gp.replaceChild(gpByte, small)
					gp.writeUnlock()
					parent.writeUnlockObsolete()
					return true, true
				}
			}
			parent.writeUnlock()
			return true, true
		}
		pl, _, _ := cur.loadMeta()
		if prefixMismatch(cur, key, depth, pl) >= 0 {
			if !cur.checkOrRestart(v) {
				return false, false
			}
			return true, false
		}
		depth += pl
		b := keyByte(key, depth)
		next := cur.findChild(b)
		if !cur.checkOrRestart(v) {
			return false, false
		}
		if next == nil {
			return true, false
		}
		nv, okn := next.readLockOrRestart()
		if !okn || !cur.checkOrRestart(v) {
			return false, false
		}
		gp, gpv, gpByte = parent, pv, parentByte
		parent, pv, parentByte = cur, v, b
		cur, v = next, nv
		depth++
	}
}

// LowestCommonNode returns the deepest inner node on the common root path
// of keys a and b (a <= b): the "maximum corresponding prefix node" of the
// fast-pointer construction (§III-C1). Every key in [a,b] present now or
// inserted later reaches this node (structure modifications that replace it
// fire the SMO hook). Returns nil if the tree is empty or a bare leaf.
func (t *Tree) LowestCommonNode(a, b uint64) *Node {
	cur, v, depth, ok := t.enter(nil)
	var last *Node // deepest node known to cover the whole range
	for ok && cur != nil && cur.kind != kindLeaf {
		pl, _, _ := cur.loadMeta()
		match := prefixMismatch(cur, a, depth, pl) < 0 &&
			prefixMismatch(cur, b, depth, pl) < 0
		depth += pl
		var next *Node
		if match && depth < 8 && keyByte(a, depth) == keyByte(b, depth) {
			next = cur.findChild(keyByte(a, depth))
		}
		if !cur.checkOrRestart(v) || !match {
			// Unstable, or the keys diverge inside cur's compressed prefix,
			// so cur's subtree excludes part of [a,b]; only the parent
			// covers it.
			return last
		}
		if next == nil {
			// Divergence at the child byte (or the common path ends
			// here): cur covers every key in [a,b].
			return cur
		}
		last = cur
		nv, okn := next.readLockOrRestart()
		if !okn || !cur.checkOrRestart(v) {
			return last
		}
		cur, v = next, nv
		depth++
	}
	return last
}

// MemoryUsage approximates retained heap bytes. Intended for quiescent
// measurement (no concurrent writers).
func (t *Tree) MemoryUsage() uintptr {
	var total uintptr
	t.EachNode(func(_ *Node, bytes uintptr) { total += bytes })
	return total
}

// EachNode calls visit with every node reachable from the root, parents
// before children, and the heap bytes the node's allocation holds. Like
// MemoryUsage it is for a quiescent tree: a concurrent writer may hide a
// node from it or show one twice.
func (t *Tree) EachNode(visit func(n *Node, bytes uintptr)) {
	if root := t.root.Load(); root != nil {
		eachNode(root, visit)
	}
}

func eachNode(n *Node, visit func(*Node, uintptr)) {
	visit(n, n.byteSize())
	if n.kind == kindLeaf {
		return
	}
	var bs [256]byte
	var cs [256]*Node
	for _, c := range cs[:n.childrenInto(0, 255, &bs, &cs)] {
		eachNode(c, visit)
	}
}
