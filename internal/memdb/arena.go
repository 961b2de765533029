package memdb

import (
	"sync"
	"sync/atomic"
)

// arena is an append-only chunked row store. A handle is a dense row id;
// rows are immutable once written, so concurrent readers need no locks
// once they hold a handle.
//
// Chunks are plain []uint64 slices: pointer-free, so the collector never
// scans row data.
const arenaChunkRows = 4096

type arena struct {
	width int // uint64s per row

	mu     sync.Mutex
	chunkV atomic.Pointer[[][]uint64] // each chunk is arenaChunkRows * width words
	next   uint64                     // guarded by mu
}

func newArena(width int) *arena {
	a := &arena{width: width}
	chunks := make([][]uint64, 0, 8)
	a.chunkV.Store(&chunks)
	return a
}

// alloc writes row into a fresh slot and returns its handle.
func (a *arena) alloc(row []uint64) uint64 {
	a.mu.Lock()
	h := a.next
	a.next++
	chunks := *a.chunkV.Load()
	if need := int(h/arenaChunkRows) + 1; need > len(chunks) {
		grown := make([][]uint64, need)
		copy(grown, chunks)
		for i := len(chunks); i < need; i++ {
			grown[i] = make([]uint64, arenaChunkRows*a.width)
		}
		a.chunkV.Store(&grown)
		chunks = grown
	}
	c := chunks[h/arenaChunkRows]
	off := int(h%arenaChunkRows) * a.width
	copy(c[off:off+a.width], row)
	a.mu.Unlock()
	return h
}

// read returns a copy of the row at handle h.
func (a *arena) read(h uint64) []uint64 {
	c := (*a.chunkV.Load())[h/arenaChunkRows]
	off := int(h%arenaChunkRows) * a.width
	out := make([]uint64, a.width)
	copy(out, c[off:off+a.width])
	return out
}
