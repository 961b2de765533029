package memdb

import (
	"sync"
	"sync/atomic"
)

// arena is an append-only chunked row store. A handle is a dense row id;
// rows are immutable once written (updates allocate a new version), so
// concurrent readers need no locks once they hold a handle. Freed versions
// are recycled through a free list.
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
	free   []uint64
}

func newArena(width int) *arena {
	a := &arena{width: width}
	chunks := make([][]uint64, 0, 8)
	a.chunkV.Store(&chunks)
	return a
}

// alloc writes row into a fresh (or recycled) slot and returns its handle.
func (a *arena) alloc(row []uint64) uint64 {
	a.mu.Lock()
	var h uint64
	if n := len(a.free); n > 0 {
		h = a.free[n-1]
		a.free = a.free[:n-1]
	} else {
		h = a.next.Add(1) - 1
		chunks := *a.chunkV.Load()
		need := int(h/arenaChunkRows) + 1
		if need > len(chunks) {
			grown := make([][]uint64, need)
			copy(grown, chunks)
			for i := len(chunks); i < need; i++ {
				grown[i] = make([]uint64, arenaChunkRows*a.width)
			}
			a.chunkV.Store(&grown)
		}
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

// release returns a handle to the free list; the next alloc overwrites
// its row, so the caller guarantees no reader can still resolve the handle
// through an index.
func (a *arena) release(h uint64) {
	a.mu.Lock()
	a.free = append(a.free, h)
	a.mu.Unlock()
}

func (a *arena) chunks() int { return len(*a.chunkV.Load()) }

func (a *arena) memory() uintptr {
	return uintptr(a.chunks()) * uintptr(arenaChunkRows*a.width*8)
}
