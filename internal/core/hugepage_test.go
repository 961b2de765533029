package core

import (
	"runtime"
	"sort"
	"testing"
	"unsafe"

	"altindex/internal/art"
	"altindex/internal/xrand"
)

// TestTreeSpansCoverEveryNode checks the region collector of Bulkload's
// huge page pass: every node of a tree larger than one huge page lies
// inside a returned run, the runs are sorted, disjoint, not adjacent and
// 2 MiB-aligned, and a tree whose nodes take less than one huge page
// gives none.
func TestTreeSpansCoverEveryNode(t *testing.T) {
	rng := xrand.New(1)
	small := art.New(nil)
	for range 1000 {
		small.Put(rng.Next(), 1)
	}
	if b := small.MemoryUsage(); b >= hugePage {
		t.Fatalf("setup: the small tree holds %d bytes", b)
	}
	if runs := treeSpans(small); runs != nil {
		t.Fatalf("a tree of %d bytes gave %d runs, want none", small.MemoryUsage(), len(runs))
	}

	// Large allocations between the insert batches leave gaps in the
	// node pages, so the collector has runs to keep apart.
	tree := art.New(nil)
	var gaps [][]byte
	for range 4 {
		for range 50_000 {
			tree.Put(rng.Next(), 1)
		}
		gaps = append(gaps, make([]byte, 3*hugePage))
	}
	defer runtime.KeepAlive(gaps)
	if b := tree.MemoryUsage(); b < 4*hugePage {
		t.Fatalf("setup: the tree holds only %d bytes", b)
	}
	runs := treeSpans(tree)
	if len(runs) < 2 {
		t.Fatalf("%d runs for a tree with gaps in its pages, want several", len(runs))
	}
	var pages uintptr
	for i, r := range runs {
		if r.lo%hugePage != 0 || r.hi%hugePage != 0 || r.lo >= r.hi {
			t.Fatalf("run %d [%#x, %#x) is not a run of whole 2 MiB pages", i, r.lo, r.hi)
		}
		if i > 0 && r.lo <= runs[i-1].hi {
			t.Fatalf("run %d [%#x, %#x) overlaps or touches run %d, which ends at %#x",
				i, r.lo, r.hi, i-1, runs[i-1].hi)
		}
		pages += (r.hi - r.lo) / hugePage
	}
	nodes := 0
	tree.EachNode(func(n *art.Node, size uintptr) {
		nodes++
		a := uintptr(unsafe.Pointer(n))
		i := sort.Search(len(runs), func(i int) bool { return runs[i].hi > a })
		if i == len(runs) || a < runs[i].lo || a+size > runs[i].hi {
			t.Fatalf("node [%#x, %#x) lies outside every run", a, a+size)
		}
	})
	t.Logf("%d nodes, %d bytes, in %d runs of %d huge pages", nodes, tree.MemoryUsage(), len(runs), pages)
}
