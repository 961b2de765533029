package core

import (
	"math/rand"
	"testing"

	"altindex/internal/dataset"
)

// grow inserts keys into a fresh index in random order, so that every
// model comes from a retraining rebuild, and drains the pipeline. With
// stepwise it drains after every insert, so each training runs before the
// next key and the result does not depend on the worker's timing.
func grow(tb testing.TB, keys []uint64, seed int64, stepwise bool) *ALT {
	tb.Helper()
	order := append([]uint64(nil), keys...)
	rand.New(rand.NewSource(seed)).Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	ix := New(Options{})
	for _, k := range order {
		if err := ix.Insert(k, dataset.ValueFor(k)); err != nil {
			tb.Fatal(err)
		}
		if stepwise {
			ix.Quiesce()
		}
	}
	ix.Quiesce()
	return ix
}

// TestGrownModelsConverge checks that an index grown by inserts builds
// about the models a Bulkload of the same keys builds: every rebuild takes
// ε from the index's live key count, the §III-D rule Bulkload applies to
// its input. It grows stepwise: with a live worker the count varies from
// run to run (up to 2.2× on libio at -cpu 1). Stepwise, 1 M grown keys
// make 0.98× (osm), 1.38× (libio) and 1.50× (fb) the bulkloaded count;
// with ε fixed at the empty index's 16 they made 1.99×, 3.07× and 7.28×.
func TestGrownModelsConverge(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("grows three 1 M-key indexes")
	}
	for _, ds := range []dataset.Name{dataset.OSM, dataset.Libio, dataset.FB} {
		keys := dataset.Generate(ds, 1000000, 1)
		grown := grow(t, keys, 1, true)
		bulk := mustBulk(t, Options{}, keys)
		g, b := len(grown.tab.Load().dir), len(bulk.tab.Load().dir)
		t.Logf("%s: %d grown models, %d bulkloaded (%.2fx)", ds, g, b, float64(g)/float64(b))
		if g > 2*b {
			t.Errorf("%s: %d grown models, more than twice the %d of a Bulkload", ds, g, b)
		}
		if grown.Len() != len(keys) {
			t.Fatalf("%s: grown Len %d, want %d", ds, grown.Len(), len(keys))
		}
		grown.Close()
	}
}
