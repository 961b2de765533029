package core

import (
	"context"
	"testing"
	"unsafe"

	"altindex/internal/dataset"
)

// carvedExactly fails the test unless every model of alt's live table was
// carved, in directory order and back to back, from one Bulkload slab that
// has no block left over, and returns that slab.
func carvedExactly(t *testing.T, alt *ALT) *slab {
	t.Helper()
	tb := alt.tab.Load()
	sl := tb.dir[0].m.slab
	if sl == nil {
		t.Fatal("model 0 owns its blocks: Bulkload made no slab")
	}
	next := 0
	for i := range tb.dir {
		m := tb.dir[i].m
		if m.slab != sl {
			t.Fatalf("model %d of %d fell back to its own allocation", i, len(tb.dir))
		}
		if &m.blocks[0] != &sl.blocks[next] {
			t.Fatalf("model %d's blocks do not start where model %d's end", i, i-1)
		}
		next += len(m.blocks)
	}
	if next != len(sl.blocks) || sl.used != next {
		t.Fatalf("models carved %d blocks (cursor %d) of a %d-block slab", next, sl.used, len(sl.blocks))
	}
	return sl
}

// retrainNow rebuilds m's range through the ordinary pipeline, on the
// calling goroutine.
func retrainNow(alt *ALT, m *model) {
	m.retrainArmed.Store(true)
	alt.ret.pending.Add(1)
	alt.processRetrain(context.Background(), m)
}

// TestSlabRetention pins the slab's memory accounting across the two ways
// a Bulkload's models leave the live table. A rebuild of one of them keeps
// the whole slab counted, beside the rebuilt models' own blocks, and
// reports the spliced-out region as dead; a second Bulkload drops the old
// slab.
func TestSlabRetention(t *testing.T) {
	keys := dataset.Generate(dataset.OSM, 20000, 3)
	alt := mustBulk(t, Options{ErrorBound: 16, DisableRetraining: true}, keys)
	sl := carvedExactly(t, alt)
	slabBytes := int64(len(sl.blocks)) * int64(unsafe.Sizeof(slotBlock{}))
	if st := alt.StatsMap(); st["slab_bytes"] != slabBytes || st["slab_dead_bytes"] != 0 {
		t.Fatalf("fresh Bulkload: slab_bytes %d, slab_dead_bytes %d; want %d, 0", st["slab_bytes"], st["slab_dead_bytes"], slabBytes)
	}
	if got, want := alt.MemoryUsage(), liveMemory(t, alt); got != want {
		t.Fatalf("fresh Bulkload: MemoryUsage = %d, want %d", got, want)
	}

	tb := alt.tab.Load()
	if len(tb.dir) < 3 {
		t.Fatalf("setup: %d models, want a middle one to rebuild", len(tb.dir))
	}
	m := tb.dir[len(tb.dir)/2].m
	retrainNow(alt, m)
	rebuilt := 0
	for _, e := range alt.tab.Load().dir {
		if e.m == m {
			t.Fatal("rebuild left the carved model in the live table")
		}
		if e.m.slab == nil {
			rebuilt++
		}
	}
	if rebuilt == 0 {
		t.Fatal("no model owns its blocks after the rebuild")
	}
	// The rebuild took m's neighbours along: every model it spliced out
	// leaves its region dead.
	live := map[*model]bool{}
	for _, e := range alt.tab.Load().dir {
		live[e.m] = true
	}
	dead := int64(0)
	for _, e := range tb.dir {
		if !live[e.m] {
			dead += int64(len(e.blocks)) * int64(unsafe.Sizeof(slotBlock{}))
		}
	}
	st := alt.StatsMap()
	if st["slab_bytes"] != slabBytes || st["slab_dead_bytes"] != dead {
		t.Fatalf("after a rebuild: slab_bytes %d, slab_dead_bytes %d; want %d, %d", st["slab_bytes"], st["slab_dead_bytes"], slabBytes, dead)
	}
	if got, want := alt.MemoryUsage(), liveMemory(t, alt); got != want {
		t.Fatalf("after a rebuild: MemoryUsage = %d, want %d (the whole slab plus %d rebuilt models)", got, want, rebuilt)
	}

	if err := alt.Bulkload(dataset.Pairs(keys[:len(keys)/2])); err != nil {
		t.Fatal(err)
	}
	if carvedExactly(t, alt) == sl {
		t.Fatal("the second Bulkload reused the first one's slab")
	}
	if got, want := alt.MemoryUsage(), liveMemory(t, alt); got != want {
		t.Fatalf("after a second Bulkload: MemoryUsage = %d, want %d", got, want)
	}
	if st := alt.StatsMap(); st["slab_bytes"] >= slabBytes || st["slab_dead_bytes"] != 0 {
		t.Fatalf("after a second Bulkload of half the keys: slab_bytes %d (first slab %d), slab_dead_bytes %d",
			st["slab_bytes"], slabBytes, st["slab_dead_bytes"])
	}
}
