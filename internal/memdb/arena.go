package memdb

import (
	"sync"
	"sync/atomic"
)

// arena is an append-only chunked row store. A handle is a dense row id;
// rows are immutable once written (updates allocate a new version), so
// concurrent readers need no locks once they hold a handle. Handles are
// never reused: a superseded version stays in its chunk until Vacuum
// rebuilds the arena from the live rows.
//
// Chunks are plain []uint64 slices: pointer-free, so the collector never
// scans row data, and a generation Vacuum replaces is freed by the
// collector once nothing holds it.
const arenaChunkRows = 4096

type arena struct {
	width int // uint64s per row

	mu     sync.Mutex
	chunkV atomic.Pointer[[][]uint64] // each chunk is arenaChunkRows * width words
	next   atomic.Uint64
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
	h := a.next.Add(1) - 1
	chunks := *a.chunkV.Load()
	if need := int(h/arenaChunkRows) + 1; need > len(chunks) {
		grown := make([][]uint64, need)
		copy(grown, chunks)
		for i := len(chunks); i < need; i++ {
			grown[i] = make([]uint64, arenaChunkRows*a.width)
		}
		a.chunkV.Store(&grown)
	}
	c := (*a.chunkV.Load())[h/arenaChunkRows]
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

func (a *arena) chunks() int { return len(*a.chunkV.Load()) }

func (a *arena) memory() uintptr {
	return uintptr(a.chunks()) * uintptr(arenaChunkRows*a.width*8)
}
