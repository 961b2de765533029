package finedex

import (
	"sync"
	"testing"

	"altindex/internal/dataset"
	"altindex/internal/index"
	"altindex/internal/indextest"
	"altindex/internal/workload"
)

func TestConformance(t *testing.T) {
	indextest.Run(t, func() index.Concurrent { return New() })
}

func TestInsertsFillLevelBins(t *testing.T) {
	ix := New()
	keys := dataset.Generate(dataset.Libio, 20000, 1)
	loaded, pending := workload.SplitLoad(keys, 0.5, 2)
	if err := ix.Bulkload(dataset.Pairs(loaded)); err != nil {
		t.Fatal(err)
	}
	for _, k := range pending {
		_ = ix.Insert(k, dataset.ValueFor(k))
	}
	st := ix.StatsMap()
	if st["bins"] == 0 || st["bin_keys"] == 0 {
		t.Fatalf("inserts did not populate level bins: %v", st)
	}
	if st["bin_keys"] != int64(len(pending)) {
		t.Fatalf("bin_keys=%d want %d", st["bin_keys"], len(pending))
	}
}

func TestModelsFromLPA(t *testing.T) {
	ix := New()
	keys := dataset.Generate(dataset.OSM, 30000, 3)
	if err := ix.Bulkload(dataset.Pairs(keys)); err != nil {
		t.Fatal(err)
	}
	if ix.StatsMap()["models"] < 2 {
		t.Fatal("osm should need multiple LPA models")
	}
}

// TestConcurrentRemoveOnce races four goroutines removing every bulkloaded
// key: a trained-array tombstone flips once, so exactly one Remove per key
// reports true and Len ends at 0.
func TestConcurrentRemoveOnce(t *testing.T) {
	const goroutines = 4
	ix := New()
	keys := dataset.Generate(dataset.OSM, 20000, 5)
	if err := ix.Bulkload(dataset.Pairs(keys)); err != nil {
		t.Fatal(err)
	}
	removed := make([][]bool, goroutines)
	var wg sync.WaitGroup
	for g := range removed {
		removed[g] = make([]bool, len(keys))
		wg.Add(1)
		go func(mine []bool) {
			defer wg.Done()
			for i, k := range keys {
				mine[i] = ix.Remove(k)
			}
		}(removed[g])
	}
	wg.Wait()
	bad := 0
	for i, k := range keys {
		n := 0
		for g := range removed {
			if removed[g][i] {
				n++
			}
		}
		if n != 1 {
			if bad++; bad == 1 {
				t.Errorf("key %d: %d of %d Removes returned true, want 1", k, n, goroutines)
			}
		}
	}
	if bad > 1 {
		t.Errorf("%d keys in all were not removed exactly once", bad)
	}
	if n := ix.Len(); n != 0 {
		t.Errorf("Len = %d after removing every key, want 0", n)
	}
}
