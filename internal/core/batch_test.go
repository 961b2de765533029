package core

import (
	"testing"

	"altindex/internal/dataset"
	"altindex/internal/index"
	"altindex/internal/xrand"
)

// TestGetBatchScratchReuse checks that GetBatch tolerates scratch slices
// longer than the key slice and fills exactly len(keys) entries.
func TestGetBatchScratchReuse(t *testing.T) {
	alt := New(Options{})
	var kvs []uint64
	for i := uint64(0); i < 5000; i++ {
		kvs = append(kvs, i*37+5)
	}
	bulk := make([]index.KV, 0, len(kvs))
	for _, k := range kvs {
		bulk = append(bulk, index.KV{Key: k, Value: k + 1})
	}
	if err := alt.Bulkload(bulk); err != nil {
		t.Fatal(err)
	}
	keys := []uint64{5, 42*37 + 5, 4999*37 + 5, 3, ^uint64(0)}
	vals := make([]uint64, 16)
	found := make([]bool, 16)
	vals[len(keys)] = 999
	alt.GetBatch(keys, vals, found)
	for i, k := range keys {
		wv, wok := alt.Get(k)
		if found[i] != wok || (wok && vals[i] != wv) {
			t.Fatalf("GetBatch(%d)=(%d,%v) want (%d,%v)", k, vals[i], found[i], wv, wok)
		}
	}
	if vals[len(keys)] != 999 {
		t.Fatal("GetBatch wrote past len(keys)")
	}
}

// TestBatchGroupsMatchPerKey drives the grouped pipeline the way the shard
// front-end does — several indexes, the batch laid out group by group —
// over the layouts a split can produce: empty groups at the front, in the
// middle and at the end, groups a chunk boundary cuts, and a group whose
// index was never bulkloaded (its lanes route through the one-model table
// New publishes, where all but one key are ART-resident behind the single
// slot). A quarter of every group's keys is removed before the batches, so
// tombstones stand in front of ART residents and the batch's own ART arm
// resolves those lanes. Every group is compared with a twin index driven
// by per-key calls.
func TestBatchGroupsMatchPerKey(t *testing.T) {
	const groups, span = 6, uint64(1) << 32
	var ts, twins [groups]*ALT
	var pool [groups][]uint64 // keys a batch may touch, present or not
	rng := xrand.New(17)
	for g := range ts {
		opts := Options{ErrorBound: 16, GapFactor: 1}
		ts[g], twins[g] = New(opts), New(opts)
		var keys []uint64
		for k := uint64(g) * span; len(keys) < 3000; k += 1 + uint64(rng.Intn(64)) {
			keys = append(keys, k)
			pool[g] = append(pool[g], k, k+span/2)
		}
		for _, a := range []*ALT{ts[g], twins[g]} {
			t.Cleanup(func() { a.Close() })
			if g == 4 { // never-bulkloaded: one model, the keys behind it in ART
				for _, k := range keys[:500] {
					if err := a.Insert(k, k+1); err != nil {
						t.Fatal(err)
					}
				}
			} else if err := a.Bulkload(dataset.Pairs(keys)); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < len(keys); i += 4 {
				a.Remove(keys[i])
			}
		}
	}
	if st := ts[0].StatsMap(); 5*st["art_keys"] < int64(ts[0].Len()) {
		t.Fatalf("only %d of %d keys conflict into ART; the descent has nothing to do", st["art_keys"], ts[0].Len())
	}

	behindTomb := 0 // lanes that found their key in ART behind a tombstone
	for _, sizes := range [][groups]int{
		{0, 0, 100, 0, 50, 0},   // empty groups around a chunk-cut one and the never-bulkloaded one
		{20, 11, 33, 7, 40, 18}, // 129 positions: every chunk mixes groups
		{1, 0, 6, 0, 1, 0},      // batchMin exactly
		{3, 0, 0, 0, 2, 0},      // below batchMin: per-key for all
		{0, 0, 0, 0, 64, 0},     // only the never-bulkloaded group
		{500, 1, 0, 300, 200, 64},
	} {
		var keys []uint64
		var pairs []index.KV
		var ends [groups]int32
		for g, n := range sizes {
			// The lookups draw their own keys: a fresh key just upserted
			// has claimed its tombstone, so one no longer sits behind it.
			for i := 0; i < n; i++ {
				pairs = append(pairs, index.KV{Key: pool[g][rng.Intn(len(pool[g]))], Value: rng.Next()})
				keys = append(keys, pool[g][rng.Intn(len(pool[g]))])
			}
			ends[g] = int32(len(keys))
		}
		if err := InsertBatchGroups(ts[:], ends[:], pairs); err != nil {
			t.Fatal(err)
		}
		vals, found := make([]uint64, len(keys)), make([]bool, len(keys))
		GetBatchGroups(ts[:], ends[:], keys, vals, found)
		g := 0
		for p, kv := range pairs {
			for int32(p) >= ends[g] {
				g++
			}
			if err := twins[g].Insert(kv.Key, kv.Value); err != nil {
				t.Fatal(err)
			}
		}
		g = 0
		for p, k := range keys {
			for int32(p) >= ends[g] {
				g++
			}
			if wv, wok := twins[g].Get(k); found[p] != wok || vals[p] != wv {
				t.Fatalf("sizes %v: position %d (group %d, key %#x) = (%d,%v), per-key gives (%d,%v)",
					sizes, p, g, k, vals[p], found[p], wv, wok)
			}
			tab := ts[g].tab.Load()
			e := &tab.dir[tab.route(k)]
			if found[p] && stateOf(e.metaRef(e.slotOf(k)).Load()) == slotTomb {
				behindTomb++
			}
		}
		for g := range ts {
			if ts[g].Len() != twins[g].Len() {
				t.Fatalf("sizes %v: group %d Len = %d, per-key gives %d", sizes, g, ts[g].Len(), twins[g].Len())
			}
		}
	}
	if behindTomb == 0 {
		t.Fatal("no lane found its key behind a tombstone; the batch's tombstone lanes went unchecked")
	}
	t.Logf("%d lanes found their key behind a tombstone", behindTomb)
}
