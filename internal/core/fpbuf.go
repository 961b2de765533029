package core

import (
	"sync"
	"sync/atomic"

	"altindex/internal/art"
	"altindex/internal/failpoint"
)

// fpBuffer is the fast pointer buffer of §III-C: an append-only array of
// pointers from GPL models into intermediate ART nodes, with the merge
// scheme that collapses pointers targeting the same node. It implements
// art.SMOHooks so that prefix extraction (case ①) and node expansion
// (case ②) repair the affected entry while the tree writer still holds the
// node locks.
//
// The entry array has fixed capacity (its header is immutable, so hook
// callbacks and lookups never race with appends); when it fills, further
// registrations degrade gracefully to "no fast pointer" (-1), which only
// costs those models a root traversal.
type fpBuffer struct {
	mu      sync.Mutex // the paper's spin lock guarding appends
	entries []fpEntry  // full capacity, immutable header; entries[:n] live
	n       atomic.Int32

	// requested counts registrations including merged duplicates, so the
	// merge scheme's saving is observable (Fig 10b).
	requested atomic.Int64
}

type fpEntry struct {
	node atomic.Pointer[art.Node]
}

// newFPBuffer returns a buffer able to hold capacity distinct pointers.
func newFPBuffer(capacity int) *fpBuffer {
	if capacity < 64 {
		capacity = 64
	}
	return &fpBuffer{entries: make([]fpEntry, capacity)}
}

// register returns the buffer index for node, merging with an existing
// entry when node is already referenced (§III-C2). A nil node, or a full
// buffer, returns -1.
func (b *fpBuffer) register(node *art.Node) int32 {
	if node == nil {
		return -1
	}
	b.requested.Add(1)
	b.mu.Lock()
	defer b.mu.Unlock()
	failpoint.Hit("core/fpbuf/register")
	if idx := node.FPIndex(); idx >= 0 && int(idx) < len(b.entries) &&
		b.entries[idx].node.Load() == node {
		return idx // merge scheme: duplicate target
	}
	idx := b.n.Load()
	if int(idx) == len(b.entries) {
		return -1
	}
	b.entries[idx].node.Store(node)
	node.SetFPIndex(idx)
	b.n.Store(idx + 1)
	return idx
}

// node resolves a buffer index to its current ART node (nil for -1 or an
// out-of-range index). Lock-free: the backing array never moves and idx was
// handed out after its entry was initialised.
func (b *fpBuffer) node(idx int32) *art.Node {
	if idx < 0 || int(idx) >= len(b.entries) {
		return nil
	}
	return b.entries[idx].node.Load()
}

// OnReplace implements art.SMOHooks: the buffer entry that pointed at old
// now points at new, and new inherits the back-reference (§III-C3 ①②).
// Runs under the tree writer's node locks.
func (b *fpBuffer) OnReplace(old, new *art.Node) {
	idx := old.FPIndex()
	if idx < 0 || int(idx) >= len(b.entries) {
		return
	}
	e := &b.entries[idx]
	if e.node.Load() == old {
		e.node.Store(new)
		new.SetFPIndex(idx)
		old.SetFPIndex(-1)
	}
}

// len returns the number of distinct fast pointers.
func (b *fpBuffer) len() int { return int(b.n.Load()) }

// requestedCount returns registrations including merged duplicates.
func (b *fpBuffer) requestedCount() int64 { return b.requested.Load() }

// memory approximates the buffer's heap bytes.
func (b *fpBuffer) memory() uintptr { return uintptr(len(b.entries)) * 8 }
