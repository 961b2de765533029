// Package art implements an Adaptive Radix Tree (Leis et al., ICDE 2013)
// over fixed-width 8-byte keys with the optimistic lock coupling
// concurrency scheme of "The ART of Practical Synchronization" (DaMoN
// 2016) — the same synchronization the ALT-index paper adopts for its
// ART-OPT layer (§III-E).
//
// Beyond the baseline tree, the package provides the extensions ALT-index
// needs: a per-node matched-prefix level (the paper's match_level), lookups
// that start from an intermediate node (fast-pointer entry points), a
// lowest-common-ancestor walk used to build fast pointers, and
// structure-modification hooks that fire when a node is replaced (node
// expansion, case ②) or re-parented (prefix extraction, case ①) so the
// fast pointer buffer can repair its entries.
//
// Because optimistic readers examine fields that writers mutate under the
// node lock, every shared mutable field is stored in atomic words (byte
// arrays are packed 8-per-uint64); readers then validate the node version.
// This keeps the structure correct under the Go memory model and clean
// under the race detector.
package art

import (
	"math/bits"
	"sync/atomic"
	"unsafe"

	"altindex/internal/prefetch"
)

// Node kinds. kindLeaf nodes carry the full key and value; inner kinds
// follow the classic ART node sizing.
const (
	kindLeaf uint8 = iota
	kind4
	kind16
	kind48
	kind256
)

// Node is the handle to an ART node of any kind, and the header every kind
// begins with. Each node is one allocation of its kind's struct (leaf,
// node4 … node256, below); kind, immutable from construction, says which,
// and the typed views cast the handle back. Mutations happen under the
// node's optimistic version lock; readers validate the version after
// reading. The type is exported (opaquely) because ALT-index's fast pointer
// buffer references intermediate nodes.
type Node struct {
	// version encodes the optimistic lock: bit 0 = obsolete,
	// bit 1 = locked, bits 2.. = update counter.
	version atomic.Uint64

	kind uint8

	// fpIndex is the fast-pointer-buffer slot referencing this node, or
	// -1. Maintained by the owning tree's SMO hooks.
	fpIndex atomic.Int32
}

// leaf is a kindLeaf node: 32 bytes. key is immutable.
type leaf struct {
	Node
	key   uint64
	value atomic.Uint64
}

// inner is the header shared by the four inner kinds.
type inner struct {
	Node

	// meta packs prefixLen (bits 0-7), depth (bits 8-15) and nChildren
	// (bits 16-31). depth is the number of key bytes consumed before
	// this node's prefix begins — the paper's match_level.
	meta atomic.Uint64

	// prefixW packs up to 8 compressed-path bytes; byte i lives at bits
	// 8i..8i+7.
	prefixW atomic.Uint64

	// pathHi holds the Depth() key bytes consumed on the path from the
	// root to this node (high-aligned). It lets fast-pointer entry
	// points verify in O(1) that a key lies in this subtree.
	pathHi atomic.Uint64
}

// The inner kinds: header, packed child bytes, inline child slots.
//
//	node4/16:  key byte i (0..n-1, sorted) pairs with children[i].
//	node48:    key byte b for b in 0..255 is 0 when empty, else slot+1
//	           into children.
//	node256:   children indexed directly by key byte.
//
// A node4 or node16 visit reads the header and the key bytes from the
// node's first 56 bytes and then one child slot.
type (
	node4 struct {
		inner
		keys     [1]atomic.Uint64
		children [4]atomic.Pointer[Node]
	}
	node16 struct {
		inner
		keys     [2]atomic.Uint64
		children [16]atomic.Pointer[Node]
	}
	node48 struct {
		inner
		keys     [32]atomic.Uint64
		children [48]atomic.Pointer[Node]
	}
	node256 struct {
		inner
		children [256]atomic.Pointer[Node]
	}
)

// allocBytes is what the Go allocator hands out per kind: the struct size
// (32, 80, 184, 680, 2088) rounded up to its size class, the two widest
// with the 8-byte header of pointerful objects over 512 bytes.
var allocBytes = [...]uintptr{kindLeaf: 32, kind4: 80, kind16: 192, kind48: 704, kind256: 2304}

// byteSize returns the node's heap footprint.
func (n *Node) byteSize() uintptr { return allocBytes[n.kind] }

// --- typed views -----------------------------------------------------------
//
// Every unsafe.Pointer conversion of the package is in this section. Each
// widens a handle to the struct its allocation was made as (n.kind never
// changes), so the result stays inside one heap object.

// leaf views a kindLeaf node.
func (n *Node) leaf() *leaf { return (*leaf)(unsafe.Pointer(n)) }

// in views the header of an inner node; n must not be a leaf.
func (n *Node) in() *inner { return (*inner)(unsafe.Pointer(n)) }

func (n *Node) n4() *node4     { return (*node4)(unsafe.Pointer(n)) }
func (n *Node) n16() *node16   { return (*node16)(unsafe.Pointer(n)) }
func (n *Node) n48() *node48   { return (*node48)(unsafe.Pointer(n)) }
func (n *Node) n256() *node256 { return (*node256)(unsafe.Pointer(n)) }

// prefetch starts n's first cache line — version, kind, meta, prefix and a
// node4/16's key bytes — toward L1. A nil n is fine: the hint never faults.
func (n *Node) prefetch() { prefetch.T0(unsafe.Pointer(n)) }

// arrays returns an inner node's packed key words (nil for node256) and its
// child slots as slices over the inline arrays.
func (n *Node) arrays() ([]atomic.Uint64, []atomic.Pointer[Node]) {
	switch n.kind {
	case kind4:
		return n.n4().keys[:], n.n4().children[:]
	case kind16:
		return n.n16().keys[:], n.n16().children[:]
	case kind48:
		return n.n48().keys[:], n.n48().children[:]
	case kind256:
		return nil, n.n256().children[:]
	}
	panic("art: child access on a leaf")
}

func newLeaf(key, value uint64) *Node {
	l := &leaf{key: key}
	l.value.Store(value)
	l.fpIndex.Store(-1)
	return &l.Node
}

func newInner(kind uint8, depth int) *Node {
	var n *Node
	switch kind {
	case kind4:
		n = &new(node4).Node
	case kind16:
		n = &new(node16).Node
	case kind48:
		n = &new(node48).Node
	case kind256:
		n = &new(node256).Node
	default:
		panic("art: no such inner kind")
	}
	n.kind = kind
	n.fpIndex.Store(-1)
	n.storeMeta(0, depth, 0)
	return n
}

// --- packed metadata -----------------------------------------------------

func (n *Node) loadMeta() (prefixLen, depth, nChildren int) {
	m := n.in().meta.Load()
	return int(m & 0xff), int(m >> 8 & 0xff), int(m >> 16 & 0xffff)
}

func (n *Node) storeMeta(prefixLen, depth, nChildren int) {
	n.in().meta.Store(uint64(prefixLen) | uint64(depth)<<8 | uint64(nChildren)<<16)
}

func (n *Node) numChildren() int { return int(n.in().meta.Load() >> 16 & 0xffff) }

func (n *Node) setNumChildren(c int) {
	m := &n.in().meta
	m.Store(m.Load()&0xffff | uint64(c)<<16)
}

// Depth returns an inner node's match_level: the number of key bytes
// already consumed when a lookup reaches this node.
func (n *Node) Depth() int { return int(n.in().meta.Load() >> 8 & 0xff) }

// maskFor returns a mask selecting the high `depth` bytes of a key.
func maskFor(depth int) uint64 {
	switch {
	case depth <= 0:
		return 0
	case depth >= 8:
		return ^uint64(0)
	default:
		return ^uint64(0) << (64 - 8*depth)
	}
}

// coversKey reports whether key shares the inner node's root path, i.e. the
// key lies inside this node's subtree. Read under a version snapshot for a
// stable answer.
func (n *Node) coversKey(key uint64) bool {
	depth := n.Depth()
	if depth == 0 {
		return true
	}
	m := maskFor(depth)
	return key&m == n.in().pathHi.Load()&m
}

// Leaf reports whether n is a leaf and, if so, its key.
func (n *Node) Leaf() (uint64, bool) {
	if n.kind != kindLeaf {
		return 0, false
	}
	return n.leaf().key, true
}

// FPIndex returns the fast-pointer-buffer slot referencing this node, or -1.
func (n *Node) FPIndex() int32 { return n.fpIndex.Load() }

// SetFPIndex records the fast-pointer-buffer slot referencing this node.
func (n *Node) SetFPIndex(i int32) { n.fpIndex.Store(i) }

// keyAt returns packed key byte i. Safe for optimistic readers.
func keyAt(keys []atomic.Uint64, i int) byte {
	return byte(keys[i>>3].Load() >> (8 * (i & 7)))
}

// setKeyAt stores packed key byte i. Caller holds the write lock.
func setKeyAt(keys []atomic.Uint64, i int, b byte) {
	w, sh := &keys[i>>3], 8*(i&7)
	w.Store(w.Load()&^(uint64(0xff)<<sh) | uint64(b)<<sh)
}

// --- optimistic version lock ---------------------------------------------

const (
	obsoleteBit = uint64(1)
	lockBit     = uint64(2)
)

func isLocked(v uint64) bool   { return v&lockBit != 0 }
func isObsolete(v uint64) bool { return v&obsoleteBit != 0 }

// readLockOrRestart returns a stable version snapshot, spinning past
// writers. ok is false if the node is obsolete (caller must restart).
func (n *Node) readLockOrRestart() (v uint64, ok bool) {
	for spins := 0; ; spins++ {
		v = n.version.Load()
		if isLocked(v) {
			spinWait(spins)
			continue
		}
		if isObsolete(v) {
			return 0, false
		}
		return v, true
	}
}

// checkOrRestart revalidates a version snapshot.
func (n *Node) checkOrRestart(v uint64) bool { return n.version.Load() == v }

// upgradeToWriteLockOrRestart atomically acquires the write lock iff the
// version still equals v.
func (n *Node) upgradeToWriteLockOrRestart(v uint64) bool {
	return n.version.CompareAndSwap(v, v+lockBit)
}

// writeUnlock releases the write lock, bumping the version.
func (n *Node) writeUnlock() { n.version.Add(lockBit) }

// writeUnlockObsolete releases the lock and marks the node obsolete (it has
// been replaced; readers holding a reference must restart).
func (n *Node) writeUnlockObsolete() { n.version.Add(lockBit + obsoleteBit) }

func spinWait(spins int) {
	if spins > 16 {
		osYield()
		return
	}
	for i := 0; i < 4<<uint(spins&7); i++ {
		_ = spinSink.Load()
	}
}

var spinSink atomic.Uint64

// --- child access (caller holds a version snapshot or the lock) -----------

// keyByte returns the depth-th big-endian byte of k. Depths past the key
// width return 0; that can only be asked for under a torn optimistic read,
// which the caller's version validation will reject.
func keyByte(k uint64, depth int) byte {
	if depth < 0 || depth > 7 {
		return 0
	}
	return byte(k >> (56 - 8*depth))
}

// matchByte returns the position of the lowest byte of w equal to b, or 8.
// The zero-byte test may flag bytes above a true match, never below it.
func matchByte(w uint64, b byte) int {
	const ones, highs = 0x0101010101010101, 0x8080808080808080
	x := w ^ ones*uint64(b)
	return bits.TrailingZeros64((x-ones)&^x&highs) >> 3
}

// findChild returns the child for byte b, or nil. Safe to call during
// optimistic reads (caller validates the version afterwards): child bytes
// of a node4/16 are distinct and the live ones come first, so a match at or
// past the child count — a stale byte, or a torn count — is a miss.
func (n *Node) findChild(b byte) *Node {
	switch n.kind {
	case kind4:
		p := n.n4()
		if i := matchByte(p.keys[0].Load(), b); i < min(n.numChildren(), 4) {
			return p.children[i].Load()
		}
	case kind16:
		p := n.n16()
		i := matchByte(p.keys[0].Load(), b)
		if i == 8 {
			i += matchByte(p.keys[1].Load(), b)
		}
		if i < min(n.numChildren(), 16) {
			return p.children[i].Load()
		}
	case kind48:
		p := n.n48()
		if idx := int(keyAt(p.keys[:], int(b))); idx != 0 && idx <= 48 {
			return p.children[idx-1].Load()
		}
	case kind256:
		return n.n256().children[b].Load()
	}
	return nil
}

// childrenInto copies n's non-nil children whose key byte lies in [lo, hi]
// into bs/cs in ascending byte order and returns their count. It is the one
// enumerator of a node's children, safe under optimistic reads: a torn
// count or slot index is clamped to the node's arrays, and the caller's
// version validation rejects the snapshot.
func (n *Node) childrenInto(lo, hi int, bs *[256]byte, cs *[256]*Node) (cnt int) {
	keys, children := n.arrays()
	emit := func(b int, c *Node) {
		if c != nil {
			bs[cnt], cs[cnt] = byte(b), c
			cnt++
		}
	}
	switch n.kind {
	case kind4, kind16:
		for i, m := 0, min(n.numChildren(), len(children)); i < m; i++ {
			if b := int(keyAt(keys, i)); b >= lo && b <= hi {
				emit(b, children[i].Load())
			}
		}
	case kind48:
		for b := lo; b <= hi; b++ {
			if idx := int(keyAt(keys, b)); idx != 0 && idx <= len(children) {
				emit(b, children[idx-1].Load())
			}
		}
	case kind256:
		for b := lo; b <= hi; b++ {
			emit(b, children[b].Load())
		}
	}
	return cnt
}

// full reports whether an insert requires growing the node.
func (n *Node) full() bool {
	_, children := n.arrays()
	return n.kind != kind256 && n.numChildren() >= len(children)
}

// addChild inserts (b -> child). Caller holds the write lock and has
// ensured capacity. node4/16 keep keys sorted so scans are ordered.
func (n *Node) addChild(b byte, child *Node) {
	keys, children := n.arrays()
	cnt := n.numChildren()
	switch n.kind {
	case kind4, kind16:
		pos := cnt
		for ; pos > 0 && keyAt(keys, pos-1) > b; pos-- {
			setKeyAt(keys, pos, keyAt(keys, pos-1))
			children[pos].Store(children[pos-1].Load())
		}
		setKeyAt(keys, pos, b)
		children[pos].Store(child)
	case kind48:
		slot := 0
		for children[slot].Load() != nil {
			slot++
		}
		children[slot].Store(child)
		setKeyAt(keys, int(b), byte(slot+1))
	case kind256:
		children[b].Store(child)
	}
	n.setNumChildren(cnt + 1)
}

// childIndex returns the index of the slot holding the child for byte b, or
// -1. Caller holds the write lock.
func (n *Node) childIndex(b byte) int {
	keys, _ := n.arrays()
	switch n.kind {
	case kind4, kind16:
		for i, cnt := 0, n.numChildren(); i < cnt; i++ {
			if keyAt(keys, i) == b {
				return i
			}
		}
		return -1
	case kind48:
		return int(keyAt(keys, int(b))) - 1
	}
	return int(b)
}

// replaceChild overwrites the child for byte b, which must be present.
// Caller holds the write lock.
func (n *Node) replaceChild(b byte, child *Node) {
	_, children := n.arrays()
	children[n.childIndex(b)].Store(child)
}

// removeChild deletes the entry for byte b. Caller holds the write lock.
func (n *Node) removeChild(b byte) {
	keys, children := n.arrays()
	i, cnt := n.childIndex(b), n.numChildren()
	if i < 0 || children[i].Load() == nil {
		return
	}
	switch n.kind {
	case kind4, kind16:
		for ; i < cnt-1; i++ {
			setKeyAt(keys, i, keyAt(keys, i+1))
			children[i].Store(children[i+1].Load())
		}
	case kind48:
		setKeyAt(keys, int(b), 0)
	}
	children[i].Store(nil)
	n.setNumChildren(cnt - 1)
}

// resized returns a copy of n as the given inner kind. Caller holds n's
// write lock and has checked the children fit; the copy is private until
// published.
func (n *Node) resized(kind uint8) *Node {
	pl, depth, _ := n.loadMeta()
	c := newInner(kind, depth)
	c.in().prefixW.Store(n.in().prefixW.Load())
	c.in().pathHi.Store(n.in().pathHi.Load())
	var bs [256]byte
	var cs [256]*Node
	cnt := n.childrenInto(0, 255, &bs, &cs)
	for i := 0; i < cnt; i++ {
		c.addChild(bs[i], cs[i])
	}
	c.storeMeta(pl, depth, cnt)
	return c
}

// grow returns a copy of n with the next larger kind (node expansion).
func (n *Node) grow() *Node { return n.resized(n.kind + 1) }

// shrink returns a copy of n with the next smaller kind.
func (n *Node) shrink() *Node { return n.resized(n.kind - 1) }

// shrinkThreshold returns the child count at which the node should
// downgrade to the next smaller kind (with hysteresis below the smaller
// kind's capacity so borderline nodes don't oscillate), or 0 if the node
// never shrinks.
func (n *Node) shrinkThreshold() int {
	switch n.kind {
	case kind16:
		return 3 // fits node4 with slack
	case kind48:
		return 12 // fits node16 with slack
	case kind256:
		return 36 // fits node48 with slack
	default:
		return 0
	}
}
