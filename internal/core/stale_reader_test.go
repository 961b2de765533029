package core

import (
	"runtime"
	"testing"
	"unsafe"

	"altindex/internal/dataset"
)

// TestStaleReaderAcrossRebuild pins the rule slot storage rests on now that
// the collector owns it: a reader still holding a table that a rebuild
// replaced keeps dereferencing the retired model's blocks — they live as
// long as the table pointing at them is held — and finds them frozen, never
// rewritten, which is what sends it to the new table. It runs on a
// bulkloaded index and on a never-bulkloaded one, whose only model is the
// one-slot table New publishes and whose rebuild is the first training.
func TestStaleReaderAcrossRebuild(t *testing.T) {
	keys := make([]uint64, 2000)
	for i := range keys {
		keys[i] = uint64(i+1) * 64
	}
	opts := Options{ErrorBound: 16, DisableRetraining: true}
	t.Run("bulkloaded", func(t *testing.T) {
		staleReaderAcrossRebuild(t, mustBulk(t, opts, keys), keys)
	})
	t.Run("never-bulkloaded", func(t *testing.T) {
		alt := New(opts)
		t.Cleanup(func() { alt.Close() })
		for _, k := range keys {
			if err := alt.Insert(k, dataset.ValueFor(k)); err != nil {
				t.Fatal(err)
			}
		}
		// Past the 1,025-key trigger, held at one model by DisableRetraining:
		// the first key holds the one slot, every other key sits in ART.
		if st := alt.StatsMap(); st["models"] != 1 || st["art_keys"] != int64(len(keys)-1) {
			t.Fatalf("setup: %v, want one model and all but one key in ART", st)
		}
		staleReaderAcrossRebuild(t, alt, keys)
	})
}

// staleReaderAcrossRebuild rebuilds alt's first model under a reader
// holding the old table and checks what that reader sees, then that every
// key survives on the new table.
func staleReaderAcrossRebuild(t *testing.T, alt *ALT, keys []uint64) {
	// Snapshot the first model's occupied slots — the exact memory a
	// reader of the old table is entitled to keep seeing.
	old := alt.tab.Load()
	m0 := old.dir[0].m
	type slotVal struct{ k, v uint64 }
	snap := map[int]slotVal{}
	for s := 0; s < m0.nslots; s++ {
		if m0.metaRef(s).Load()&slotOccupied != 0 {
			snap[s] = slotVal{m0.keyRef(s).Load(), m0.valRef(s).Load()}
		}
	}
	if len(snap) == 0 {
		t.Fatal("first model holds no keys; test setup broken")
	}

	// Replace the model by rebuilding its range through the ordinary
	// pipeline, then give the collector every chance to take the retired
	// blocks: only `old` still reaches them.
	retrainNow(alt, m0)
	if alt.tab.Load().posOf(m0) >= 0 {
		t.Fatal("rebuild left the old model in the live table")
	}
	runtime.GC()
	runtime.GC()

	// Through the stale table: the rebuild froze these slots (meta gained
	// the lock bit — that is how old-table readers get redirected), the
	// key/value words are untouched, and both a reader's seqlock read and
	// a writer's insert attempt report contention instead of acting on
	// the retired storage.
	e := &old.dir[0]
	for s, want := range snap {
		k, v := e.keyRef(s).Load(), e.valRef(s).Load()
		meta := e.metaRef(s).Load()
		if k != want.k || v != want.v {
			t.Fatalf("retired slot %d changed under a stale reader: (%d,%d), want (%d,%d)",
				s, k, v, want.k, want.v)
		}
		if meta&slotLockBit == 0 {
			t.Fatalf("retired slot %d not frozen (meta %x)", s, meta)
		}
		if _, _, _, ok := e.read(s); ok {
			t.Fatalf("seqlock read of retired slot %d succeeded; a stale Get would not retry", s)
		}
		if alt.insertAt(old, 0, want.k, want.v+1) {
			t.Fatalf("insert of %d through the stale table was applied", want.k)
		}
	}

	// The retry lands on the rebuilt table, which serves every key with
	// its original value.
	for _, k := range keys {
		if v, ok := alt.Get(k); !ok || v != dataset.ValueFor(k) {
			t.Fatalf("Get(%d) = (%d,%v) after the rebuild", k, v, ok)
		}
	}

	// Memory accounting follows the live table only: the retired model is
	// not in it, so blocks it owned are not counted. If it was carved from
	// a Bulkload slab, its region counts for as long as another live model
	// pins that slab.
	alt.Quiesce()
	if got, want := alt.MemoryUsage(), liveMemory(t, alt); got != want {
		t.Fatalf("MemoryUsage = %d, want %d (the live table's non-slab models plus each slab it pins, once)", got, want)
	}
	for _, e := range alt.tab.Load().dir {
		if e.m == m0 {
			t.Fatal("retired model still in the live table after Quiesce")
		}
	}
}

// liveMemory is MemoryUsage's oracle: both layers, the directory, every
// live model's own bytes, and each slab a live model sits in, once and in
// full.
func liveMemory(t *testing.T, alt *ALT) uintptr {
	t.Helper()
	cur := alt.tab.Load()
	want := alt.tree.MemoryUsage() + alt.fp.memory() + cur.memory()
	slabs := map[*slab]bool{}
	for i := range cur.dir {
		m := cur.dir[i].m
		want += unsafe.Sizeof(model{})
		if m.sc != nil {
			want += m.sc.memory()
		}
		if m.slab == nil {
			want += uintptr(len(m.blocks)) * unsafe.Sizeof(slotBlock{})
		} else if !slabs[m.slab] {
			slabs[m.slab] = true
			want += uintptr(len(m.slab.blocks)) * unsafe.Sizeof(slotBlock{})
		}
	}
	return want
}
