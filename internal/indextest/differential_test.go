package indextest

import (
	"math/rand"
	"testing"

	"altindex/internal/bench"
	"altindex/internal/dataset"
	"altindex/internal/index"
)

// TestDifferentialAllIndexes drives the same operation sequence against
// all six index implementations and requires identical observable results
// — a cross-implementation oracle that catches semantic drift between the
// baselines and ALT-index.
func TestDifferentialAllIndexes(t *testing.T) {
	base := dataset.Generate(dataset.OSM, 4000, 77)
	factories := bench.All()
	indexes := make([]struct {
		name string
		ix   index.Concurrent
	}, len(factories))
	for i, f := range factories {
		ix := f.New()
		if err := ix.Bulkload(dataset.Pairs(base[:2000])); err != nil {
			t.Fatal(err)
		}
		defer closeIfCloser(ix)
		indexes[i].name = f.Name
		indexes[i].ix = ix
	}

	r := rand.New(rand.NewSource(99))
	for op := 0; op < 5000; op++ {
		k := base[r.Intn(len(base))]
		switch r.Intn(5) {
		case 0:
			v := r.Uint64()
			for _, e := range indexes {
				if err := e.ix.Insert(k, v); err != nil {
					t.Fatalf("%s: insert: %v", e.name, err)
				}
			}
		case 1:
			v0, ok0 := indexes[0].ix.Get(k)
			for _, e := range indexes[1:] {
				if v, ok := e.ix.Get(k); ok != ok0 || (ok && v != v0) {
					t.Fatalf("op %d: Get(%d) diverges: %s=(%d,%v) vs %s=(%d,%v)",
						op, k, indexes[0].name, v0, ok0, e.name, v, ok)
				}
			}
		case 2:
			r0 := indexes[0].ix.Remove(k)
			for _, e := range indexes[1:] {
				if got := e.ix.Remove(k); got != r0 {
					t.Fatalf("op %d: Remove(%d) diverges: %s=%v vs %s=%v",
						op, k, indexes[0].name, r0, e.name, got)
				}
			}
		case 3:
			v := r.Uint64()
			u0 := indexes[0].ix.Update(k, v)
			for _, e := range indexes[1:] {
				if got := e.ix.Update(k, v); got != u0 {
					t.Fatalf("op %d: Update(%d) diverges: %s=%v vs %s=%v",
						op, k, indexes[0].name, u0, e.name, got)
				}
			}
		case 4:
			var ref []uint64
			index.Walk(indexes[0].ix, k, ^uint64(0), 15, func(sk, sv uint64) bool {
				ref = append(ref, sk, sv)
				return true
			})
			for _, e := range indexes[1:] {
				var got []uint64
				index.Walk(e.ix, k, ^uint64(0), 15, func(sk, sv uint64) bool {
					got = append(got, sk, sv)
					return true
				})
				if len(got) != len(ref) {
					t.Fatalf("op %d: Scan(%d) length diverges: %s=%d vs %s=%d",
						op, k, indexes[0].name, len(ref)/2, e.name, len(got)/2)
				}
				for i := range ref {
					if got[i] != ref[i] {
						t.Fatalf("op %d: Scan(%d)[%d] diverges: %s=%d vs %s=%d",
							op, k, i, indexes[0].name, ref[i], e.name, got[i])
					}
				}
			}
		}
	}
	l0 := indexes[0].ix.Len()
	for _, e := range indexes[1:] {
		if e.ix.Len() != l0 {
			t.Fatalf("Len diverges: %s=%d vs %s=%d", indexes[0].name, l0, e.name, e.ix.Len())
		}
	}
}
