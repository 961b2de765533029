package core

import (
	"maps"
	"runtime"
	"slices"
	"testing"

	"altindex/internal/dataset"
	"altindex/internal/index"
)

// bulkLayout is everything a Bulkload decides: the directory, every
// model's fit, slot words (conflict tags included), the fast pointer
// indices, the ART contents and what the index reports about itself.
type bulkLayout struct {
	bounds []uint64
	models []modelFit
	slots  [][3]uint64 // key, value, meta of every lane of every block
	art    []index.KV  // the tree's full range
	stats  map[string]int64
	mem    uintptr
}

// modelFit is what a build fixes of one model besides its slots.
type modelFit struct {
	first     uint64
	slope     float64
	nslots    int
	retrainAt int64
	fastIdx   int32
}

func layoutOf(alt *ALT) bulkLayout {
	tb := alt.tab.Load()
	l := bulkLayout{
		bounds: append([]uint64(nil), tb.bounds...),
		art:    alt.tree.ScanAppend(nil, 0, ^uint64(0), alt.tree.Len()+1),
		stats:  alt.StatsMap(),
		mem:    alt.MemoryUsage(),
	}
	for i := range tb.dir {
		m := tb.dir[i].m
		l.models = append(l.models, modelFit{m.first, m.slope, m.nslots, m.retrainAt, m.fastIdx.Load()})
		for s := 0; s < len(m.blocks)*blockSlots; s++ {
			l.slots = append(l.slots, [3]uint64{m.keyRef(s).Load(), m.valRef(s).Load(), uint64(m.metaRef(s).Load())})
		}
	}
	return l
}

// firstDiff names the first part where a and b differ, or returns "".
func firstDiff(a, b bulkLayout) string {
	switch {
	case !slices.Equal(a.bounds, b.bounds):
		return "bounds"
	case !slices.Equal(a.models, b.models):
		return "models"
	case !slices.Equal(a.slots, b.slots):
		return "slots"
	case !slices.Equal(a.art, b.art):
		return "ART contents"
	case !maps.Equal(a.stats, b.stats):
		return "StatsMap"
	case a.mem != b.mem:
		return "MemoryUsage"
	}
	return ""
}

// TestBulkloadLayoutIndependentOfProcs pins that Bulkload's parallel fill
// changes nothing but the time it takes: at any GOMAXPROCS the index is the
// one a single goroutine builds, slot for slot and tag for tag, with the
// same ART and the same fast pointers. The large inputs give hundreds of
// shells for the groups to split; the small one has fewer shells than eight
// procs have groups, so some groups fill nothing.
func TestBulkloadLayoutIndependentOfProcs(t *testing.T) {
	inputs := []struct {
		name string
		keys []uint64
	}{
		{"osm", dataset.Generate(dataset.OSM, 200000, 11)},
		{"fb", dataset.Generate(dataset.FB, 200000, 12)},
		{"osm-small", dataset.Generate(dataset.OSM, 100, 13)},
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, in := range inputs {
		t.Run(in.name, func(t *testing.T) {
			var want bulkLayout
			for _, p := range []int{1, 2, 3, 8} {
				runtime.GOMAXPROCS(p)
				alt := mustBulk(t, Options{DisableRetraining: true}, in.keys)
				carvedExactly(t, alt)
				got := layoutOf(alt)
				alt.Close()
				if p == 1 {
					want = got
					t.Logf("%d keys: %d models, %d ART keys, %d fast pointers",
						len(in.keys), len(got.models), len(got.art), got.stats["fp_entries"])
					if len(in.keys) < 1000 && len(got.models) >= 8 {
						t.Fatalf("setup: %d models leave no group empty at 8 procs", len(got.models))
					}
					continue
				}
				if d := firstDiff(want, got); d != "" {
					t.Fatalf("GOMAXPROCS %d: %s differ from the GOMAXPROCS 1 build", p, d)
				}
			}
		})
	}
}
