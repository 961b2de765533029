package core

import (
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"altindex/internal/dataset"
	"altindex/internal/index"
	"altindex/internal/workload"
)

func mustBulk(t *testing.T, opts Options, keys []uint64) *ALT {
	t.Helper()
	alt := New(opts)
	if err := alt.Bulkload(dataset.Pairs(keys)); err != nil {
		t.Fatal(err)
	}
	checkTable(t, alt)
	t.Cleanup(func() { alt.Close() })
	return alt
}

func TestEmptyIndex(t *testing.T) {
	alt := New(Options{})
	if _, ok := alt.Get(1); ok {
		t.Fatal("Get on empty index")
	}
	if alt.Remove(1) || alt.Update(1, 2) {
		t.Fatal("Remove/Update on empty index returned true")
	}
	// Pre-bulkload inserts run against the one-model table New publishes.
	if err := alt.Insert(10, 100); err != nil {
		t.Fatal(err)
	}
	if v, ok := alt.Get(10); !ok || v != 100 {
		t.Fatalf("Get(10) = %d,%v", v, ok)
	}
	if alt.Len() != 1 {
		t.Fatalf("Len = %d", alt.Len())
	}
}

func TestBulkloadGetAllDatasets(t *testing.T) {
	for _, name := range dataset.Names() {
		name := name
		t.Run(string(name), func(t *testing.T) {
			keys := dataset.Generate(name, 30000, 1)
			alt := mustBulk(t, Options{}, keys)
			if alt.Len() != len(keys) {
				t.Fatalf("Len = %d, want %d", alt.Len(), len(keys))
			}
			for _, k := range keys {
				if v, ok := alt.Get(k); !ok || v != dataset.ValueFor(k) {
					t.Fatalf("Get(%d) = %d,%v", k, v, ok)
				}
			}
			// Absent keys between present ones.
			for i := 1; i < len(keys); i += 211 {
				if gap := keys[i] - keys[i-1]; gap > 2 {
					probe := keys[i-1] + gap/2
					if _, ok := alt.Get(probe); ok {
						t.Fatalf("phantom key %d", probe)
					}
				}
			}
			// Layer accounting: every key is in exactly one layer.
			st := alt.StatsMap()
			if st["learned_keys"]+st["art_keys"] != int64(len(keys)) {
				t.Fatalf("layer split %d+%d != %d", st["learned_keys"], st["art_keys"], len(keys))
			}
			if st["models"] <= 0 {
				t.Fatal("no models built")
			}
		})
	}
}

func TestBulkloadRejectsUnsorted(t *testing.T) {
	alt := New(Options{})
	err := alt.Bulkload([]index.KV{{Key: 9}, {Key: 3}})
	if err != index.ErrUnsortedBulk {
		t.Fatalf("err = %v", err)
	}
}

func TestInsertThenGet(t *testing.T) {
	keys := dataset.Generate(dataset.OSM, 40000, 2)
	loaded, pending := workload.SplitLoad(keys, 0.5, 7)
	alt := mustBulk(t, Options{}, loaded)
	for _, k := range pending {
		if err := alt.Insert(k, dataset.ValueFor(k)); err != nil {
			t.Fatal(err)
		}
	}
	if alt.Len() != len(keys) {
		t.Fatalf("Len = %d, want %d", alt.Len(), len(keys))
	}
	for _, k := range keys {
		if v, ok := alt.Get(k); !ok || v != dataset.ValueFor(k) {
			t.Fatalf("Get(%d) = %d,%v", k, v, ok)
		}
	}
}

func TestUpsertAndUpdate(t *testing.T) {
	keys := dataset.Generate(dataset.Libio, 5000, 3)
	alt := mustBulk(t, Options{}, keys)
	// Upsert via Insert must not change Len.
	for i := 0; i < len(keys); i += 7 {
		if err := alt.Insert(keys[i], 42); err != nil {
			t.Fatal(err)
		}
	}
	if alt.Len() != len(keys) {
		t.Fatalf("Len changed on upsert: %d", alt.Len())
	}
	for i := 0; i < len(keys); i += 7 {
		if v, _ := alt.Get(keys[i]); v != 42 {
			t.Fatalf("upsert lost at %d", keys[i])
		}
	}
	// Update present and absent keys.
	if !alt.Update(keys[0], 77) {
		t.Fatal("Update present key failed")
	}
	if v, _ := alt.Get(keys[0]); v != 77 {
		t.Fatal("Update value lost")
	}
	if alt.Update(keys[len(keys)-1]+12345, 1) {
		t.Fatal("Update absent key returned true")
	}
}

func TestRemoveRoutesBothLayers(t *testing.T) {
	// A hard dataset with a small error bound produces plenty of ART
	// conflicts, exercising removal in both layers.
	keys := dataset.Generate(dataset.OSM, 20000, 4)
	alt := mustBulk(t, Options{ErrorBound: 64}, keys)
	st := alt.StatsMap()
	if st["art_keys"] == 0 {
		t.Fatal("test needs conflict keys in ART")
	}
	removed := map[uint64]bool{}
	for i := 0; i < len(keys); i += 2 {
		if !alt.Remove(keys[i]) {
			t.Fatalf("Remove(%d) failed", keys[i])
		}
		removed[keys[i]] = true
	}
	if alt.Remove(keys[0]) {
		t.Fatal("double remove succeeded")
	}
	for _, k := range keys {
		v, ok := alt.Get(k)
		if removed[k] && ok {
			t.Fatalf("removed key %d still visible", k)
		}
		if !removed[k] && (!ok || v != dataset.ValueFor(k)) {
			t.Fatalf("survivor %d lost", k)
		}
	}
	if want := len(keys) - len(removed); alt.Len() != want {
		t.Fatalf("Len = %d, want %d", alt.Len(), want)
	}
}

// TestTombstoneKeepsARTReachable pins the pure reader: after the slot's
// occupant is removed, Get and GetBatch both find the ART resident behind
// the tombstone (invariant 2) and leave it there — the slot's meta word is
// bit-identical and art_keys unchanged (no Algorithm 2 write-back).
func TestTombstoneKeepsARTReachable(t *testing.T) {
	keys := dataset.Generate(dataset.OSM, 20000, 5)
	alt := mustBulk(t, Options{ErrorBound: 64}, keys)
	tb := alt.tab.Load()
	var slotKey, artKey uint64
	found := false
	for _, k := range keys {
		m, _ := routed(tb, k)
		s := m.slotOf(k)
		sk, _, st, ok := m.read(s)
		if ok && st&slotOccupied != 0 && sk != k {
			slotKey, artKey = sk, k
			found = true
			break
		}
	}
	if !found {
		t.Skip("no conflict pair found")
	}
	if !alt.Remove(slotKey) {
		t.Fatal("Remove slot resident failed")
	}
	m, _ := routed(tb, artKey)
	meta := m.metaRef(m.slotOf(artKey))
	before, artKeys := meta.Load(), alt.StatsMap()["art_keys"]
	if stateOf(before) != slotTomb {
		t.Fatalf("slot state %d after Remove, want a tombstone", stateOf(before))
	}
	want := dataset.ValueFor(artKey)
	if v, ok := alt.Get(artKey); !ok || v != want {
		t.Fatalf("Get of the ART resident behind a tombstone = %d,%v", v, ok)
	}
	// batchMin lanes, so the batch resolves them in its own ART arm.
	batch := make([]uint64, batchMin)
	for i := range batch {
		batch[i] = artKey
	}
	vals, hits := make([]uint64, len(batch)), make([]bool, len(batch))
	alt.GetBatch(batch, vals, hits)
	for i := range batch {
		if !hits[i] || vals[i] != want {
			t.Fatalf("GetBatch lane %d = %d,%v", i, vals[i], hits[i])
		}
	}
	if after := meta.Load(); after != before {
		t.Fatalf("reads rewrote the slot: meta %#x -> %#x", before, after)
	}
	if got := alt.StatsMap()["art_keys"]; got != artKeys {
		t.Fatalf("reads moved keys out of ART: art_keys %d -> %d", artKeys, got)
	}
}

func TestScanMergesLayers(t *testing.T) {
	keys := dataset.Generate(dataset.LongLat, 20000, 6)
	loaded, pending := workload.SplitLoad(keys, 0.6, 3)
	alt := mustBulk(t, Options{ErrorBound: 128}, loaded)
	for _, k := range pending {
		_ = alt.Insert(k, dataset.ValueFor(k))
	}
	if alt.StatsMap()["art_keys"] == 0 {
		t.Log("warning: no ART residents; scan merge untested against conflicts")
	}
	sorted := append([]uint64(nil), keys...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for trial := 0; trial < 60; trial++ {
		start := sorted[(trial*379)%len(sorted)] - uint64(trial%2)
		limit := 1 + (trial*13)%200
		first := sort.Search(len(sorted), func(i int) bool { return sorted[i] >= start })
		want := len(sorted) - first
		if want > limit {
			want = limit
		}
		var got []uint64
		n := index.Walk(alt, start, ^uint64(0), limit, func(k, v uint64) bool {
			got = append(got, k)
			if v != dataset.ValueFor(k) {
				t.Fatalf("scan value mismatch at %d", k)
			}
			return true
		})
		if n != want || len(got) != want {
			t.Fatalf("Scan(%d,%d) = %d items, want %d", start, limit, n, want)
		}
		for i := range got {
			if got[i] != sorted[first+i] {
				t.Fatalf("scan item %d = %d, want %d", i, got[i], sorted[first+i])
			}
		}
	}
}

func TestRetrainingTriggersAndPreserves(t *testing.T) {
	// Hot-write pattern: bulkload a dataset minus a consecutive middle
	// range, then insert that range — the paper's retraining trigger.
	keys := dataset.Generate(dataset.Libio, 40000, 8)
	loaded, pending := workload.HotSplit(keys, 0.3, 0)
	alt := mustBulk(t, Options{}, loaded)
	for _, k := range pending {
		if err := alt.Insert(k, dataset.ValueFor(k)); err != nil {
			t.Fatal(err)
		}
	}
	alt.Quiesce() // retraining is asynchronous; drain the pipeline first
	st := alt.StatsMap()
	if st["retrains"] == 0 {
		t.Fatalf("hot writes did not trigger retraining (stats %v)", st)
	}
	if st["retrain_freeze_ns"] == 0 || st["retrain_freeze_max_ns"] == 0 {
		t.Fatalf("freeze-window accounting missing (stats %v)", st)
	}
	if st["retrain_pending"] != 0 || st["retrains_inflight"] != 0 {
		t.Fatalf("pipeline not drained after Quiesce (stats %v)", st)
	}
	total := len(loaded) + len(pending)
	if alt.Len() != total {
		t.Fatalf("Len = %d, want %d", alt.Len(), total)
	}
	// HotSplit consumes keys, so verify through the two halves it returned.
	for _, half := range [][]uint64{loaded, pending} {
		for _, k := range half {
			if v, ok := alt.Get(k); !ok || v != dataset.ValueFor(k) {
				t.Fatalf("Get(%d) = %d,%v after retraining", k, v, ok)
			}
		}
	}
	if st["learned_keys"]+st["art_keys"] != int64(total) {
		t.Fatalf("layer split broken after retraining: %v", st)
	}
}

func TestRetrainingDisabled(t *testing.T) {
	keys := dataset.Generate(dataset.Libio, 20000, 9)
	loaded, pending := workload.HotSplit(keys, 0.3, 0)
	alt := mustBulk(t, Options{DisableRetraining: true}, loaded)
	for _, k := range pending {
		_ = alt.Insert(k, dataset.ValueFor(k))
	}
	if alt.StatsMap()["retrains"] != 0 {
		t.Fatal("retraining ran while disabled")
	}
	for _, half := range [][]uint64{loaded, pending} {
		for _, k := range half {
			if _, ok := alt.Get(k); !ok {
				t.Fatalf("key %d lost without retraining", k)
			}
		}
	}
}

func TestFastPointerAblationEquivalence(t *testing.T) {
	keys := dataset.Generate(dataset.OSM, 30000, 10)
	withFP := mustBulk(t, Options{ErrorBound: 64}, keys)
	noFP := mustBulk(t, Options{ErrorBound: 64}, keys)
	exhaustFastPointers(noFP)
	var sumFP, sumRoot, conflicts int
	for i := 0; i < len(keys); i += 3 {
		k := keys[i]
		v1, ok1 := withFP.Get(k)
		v2, ok2 := noFP.Get(k)
		if v1 != v2 || ok1 != ok2 {
			t.Fatalf("FP ablation diverges at %d", k)
		}
		if p, in := withFP.ARTLookupLength(k, true); in {
			sumFP += p
			pr, _ := withFP.ARTLookupLength(k, false)
			sumRoot += pr
			conflicts++
			if pn, _ := noFP.ARTLookupLength(k, true); pn != pr {
				t.Fatalf("key %d: lookup without a fast pointer took %d nodes, the root walk %d", k, pn, pr)
			}
		}
	}
	if conflicts == 0 {
		t.Skip("no ART residents")
	}
	if sumFP > sumRoot {
		t.Fatalf("fast pointers lengthen lookups: %d > %d over %d keys", sumFP, sumRoot, conflicts)
	}
	if withFP.StatsMap()["fp_entries"] > withFP.StatsMap()["fp_requested"] {
		t.Fatal("merge scheme accounting inverted")
	}
}

func TestQuickVersusMapALT(t *testing.T) {
	base := dataset.Generate(dataset.FB, 4000, 11)
	f := func(opSeed int64) bool {
		alt := New(Options{ErrorBound: 32})
		if err := alt.Bulkload(dataset.Pairs(base[:2000])); err != nil {
			return false
		}
		ref := map[uint64]uint64{}
		for _, k := range base[:2000] {
			ref[k] = dataset.ValueFor(k)
		}
		r := rand.New(rand.NewSource(opSeed))
		for i := 0; i < 3000; i++ {
			k := base[r.Intn(len(base))]
			switch r.Intn(5) {
			case 0:
				v := r.Uint64()
				_ = alt.Insert(k, v)
				ref[k] = v
			case 1:
				got, ok := alt.Get(k)
				want, wok := ref[k]
				if ok != wok || (ok && got != want) {
					return false
				}
			case 2:
				_, wok := ref[k]
				if alt.Remove(k) != wok {
					return false
				}
				delete(ref, k)
			case 3:
				v := r.Uint64()
				_, wok := ref[k]
				if alt.Update(k, v) != wok {
					return false
				}
				if wok {
					ref[k] = v
				}
			case 4:
				// Bounded scan against reference.
				var got []uint64
				index.Walk(alt, k, ^uint64(0), 10, func(sk, sv uint64) bool {
					got = append(got, sk)
					return true
				})
				for _, sk := range got {
					if _, ok := ref[sk]; !ok {
						return false
					}
				}
			}
		}
		if alt.Len() != len(ref) {
			return false
		}
		for k, want := range ref {
			if got, ok := alt.Get(k); !ok || got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentBalancedWorkload(t *testing.T) {
	keys := dataset.Generate(dataset.OSM, 60000, 12)
	loaded, pending := workload.SplitLoad(keys, 0.5, 5)
	alt := mustBulk(t, Options{}, loaded)
	const workers = 8
	var wg sync.WaitGroup
	perWorker := len(pending) / workers
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(w)))
			mine := pending[w*perWorker : (w+1)*perWorker]
			for _, k := range mine {
				if err := alt.Insert(k, dataset.ValueFor(k)); err != nil {
					t.Error(err)
					return
				}
				g := loaded[r.Intn(len(loaded))]
				if v, ok := alt.Get(g); !ok || v != dataset.ValueFor(g) {
					t.Errorf("concurrent Get(%d) = %d,%v", g, v, ok)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, k := range loaded {
		if v, ok := alt.Get(k); !ok || v != dataset.ValueFor(k) {
			t.Fatalf("loaded key %d lost: %d,%v", k, v, ok)
		}
	}
	for w := 0; w < workers; w++ {
		for _, k := range pending[w*perWorker : (w+1)*perWorker] {
			if v, ok := alt.Get(k); !ok || v != dataset.ValueFor(k) {
				t.Fatalf("inserted key %d lost: %d,%v", k, v, ok)
			}
		}
	}
}

func TestConcurrentMixedWithRetraining(t *testing.T) {
	keys := dataset.Generate(dataset.Libio, 40000, 13)
	loaded, pending := workload.HotSplit(keys, 0.4, 0)
	alt := mustBulk(t, Options{}, loaded)
	const workers = 8
	var wg sync.WaitGroup
	perWorker := len(pending) / workers
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(200 + w)))
			mine := pending[w*perWorker : (w+1)*perWorker]
			for i, k := range mine {
				_ = alt.Insert(k, dataset.ValueFor(k))
				switch i % 3 {
				case 0:
					alt.Get(loaded[r.Intn(len(loaded))])
				case 1:
					index.Walk(alt, k, ^uint64(0), 10, func(a, b uint64) bool { return true })
				case 2:
					alt.Update(loaded[r.Intn(len(loaded))], 999)
				}
			}
		}(w)
	}
	wg.Wait()
	alt.Quiesce()
	// Every hot-inserted key must be present afterwards.
	for w := 0; w < workers; w++ {
		for _, k := range pending[w*perWorker : (w+1)*perWorker] {
			if v, ok := alt.Get(k); !ok || v != dataset.ValueFor(k) {
				t.Fatalf("hot key %d lost (%d,%v); retrains=%d", k, v, ok,
					alt.StatsMap()["retrains"])
			}
		}
	}
	// Scan order must hold across layers after the churn.
	var prev uint64
	n := 0
	index.Walk(alt, 0, ^uint64(0), len(keys)+1, func(k, v uint64) bool {
		if n > 0 && k <= prev {
			t.Fatalf("scan out of order: %d <= %d", k, prev)
		}
		prev = k
		n++
		return true
	})
}

func TestMemoryUsageAndStats(t *testing.T) {
	keys := dataset.Generate(dataset.FB, 20000, 14)
	alt := mustBulk(t, Options{}, keys)
	if m := alt.MemoryUsage(); m < uintptr(len(keys))*8 {
		t.Fatalf("MemoryUsage %d implausibly small", m)
	}
	st := alt.StatsMap()
	for _, k := range []string{"models", "slots", "learned_keys", "art_keys", "fp_entries", "fp_requested", "retrains",
		"slab_bytes", "slab_dead_bytes", "retrain_queue_depth", "retrain_pending", "retrains_inflight", "retrain_drops",
		"retrain_merges", "retrain_freeze_ns", "retrain_freeze_max_ns", "writer_spins"} {
		if _, ok := st[k]; !ok {
			t.Fatalf("missing stat %q", k)
		}
	}
	if st["slots"] < st["learned_keys"] {
		t.Fatalf("slots %d < learned keys %d", st["slots"], st["learned_keys"])
	}
}

func TestErrorBoundDefaultsToRecommendation(t *testing.T) {
	var o Options
	if got := o.errorBound(50000); got != 50 {
		t.Fatalf("eps = %v, want 50", got)
	}
	if got := o.errorBound(1000); got != 16 {
		t.Fatalf("eps floor = %v, want 16", got)
	}
	if got := (Options{ErrorBound: 7}).errorBound(50000); got != 16 {
		t.Fatalf("explicit eps below the floor = %v, want 16", got)
	}
	if got := o.errorBound(8000000); got != 1024 {
		t.Fatalf("eps cap = %v, want 1024", got)
	}
	if got := (Options{ErrorBound: 4096}).errorBound(8000000); got != 4096 {
		t.Fatalf("explicit eps above the cap = %v, want 4096", got)
	}
}

// TestSlotsPerKeyWithinGapFactor is the footprint predicate: a default
// Bulkload of 2 M keys allots at most 2·GapFactor slots per key on every
// dataset. At the uncapped ε = n/1000, longlat's midpoint slopes gave 5.03.
func TestSlotsPerKeyWithinGapFactor(t *testing.T) {
	if raceEnabled {
		t.Skip("bulkloads four 2 M-key indexes")
	}
	limit := 2 * Options{}.withDefaults().GapFactor
	for _, name := range dataset.Names() {
		t.Run(string(name), func(t *testing.T) {
			keys := dataset.Generate(name, 2000000, 1)
			st := mustBulk(t, Options{}, keys).StatsMap()
			perKey := float64(st["slots"]) / float64(len(keys))
			t.Logf("%s: %d models, %.2f slots per key", name, st["models"], perKey)
			if perKey > limit {
				t.Errorf("%s: %.2f slots per key, want at most %.0f (2·GapFactor)", name, perKey, limit)
			}
		})
	}
}

// oneModel fails the test unless idx's table is the one New publishes: a
// single one-slot model.
func oneModel(t *testing.T, idx *ALT, when string) {
	t.Helper()
	checkTable(t, idx)
	if st := idx.StatsMap(); st["models"] != 1 || st["slots"] != 1 {
		t.Fatalf("%s: models=%d slots=%d, want the one-slot table", when, st["models"], st["slots"])
	}
}

func TestAutoInitialTraining(t *testing.T) {
	alt := New(Options{})
	t.Cleanup(func() { alt.Close() })
	oneModel(t, alt, "after New")
	if err := alt.Bulkload(nil); err != nil {
		t.Fatal(err)
	}
	oneModel(t, alt, "after Bulkload(nil)")
	keys := dataset.Generate(dataset.OSM, 12000, 20)
	perm := make([]int, len(keys))
	for i := range perm {
		perm[i] = i
	}
	r := rand.New(rand.NewSource(3))
	r.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
	for _, i := range perm {
		if err := alt.Insert(keys[i], dataset.ValueFor(keys[i])); err != nil {
			t.Fatal(err)
		}
	}
	// The first training is the one model's ordinary trigger, run by the
	// retraining worker: wait for it (and the rebuilds it spawned) to land.
	alt.Quiesce()
	checkTable(t, alt)
	st := alt.StatsMap()
	if st["models"] < 2 {
		t.Fatalf("auto training did not build a learned layer: %v", st)
	}
	if st["learned_keys"] == 0 {
		t.Fatalf("no keys migrated into the learned layer: %v", st)
	}
	if alt.Len() != len(keys) {
		t.Fatalf("Len=%d want %d", alt.Len(), len(keys))
	}
	for _, k := range keys {
		if v, ok := alt.Get(k); !ok || v != dataset.ValueFor(k) {
			t.Fatalf("Get(%d)=(%d,%v) after auto training", k, v, ok)
		}
	}
	// Scan order intact across layers.
	var prev uint64
	n := 0
	index.Walk(alt, 0, ^uint64(0), len(keys)+1, func(k, v uint64) bool {
		if n > 0 && k <= prev {
			t.Fatalf("scan out of order after training")
		}
		prev = k
		n++
		return true
	})
	if n != len(keys) {
		t.Fatalf("scan saw %d keys, want %d", n, len(keys))
	}
}

// TestAutoTrainingDisabled grows a never-bulkloaded index with retraining
// off: it stays the one-model table New published — one key in the slot,
// every other one conflicted into ART under it — and serves all of them.
func TestAutoTrainingDisabled(t *testing.T) {
	alt := New(Options{DisableRetraining: true})
	const n = 20000
	for k := uint64(1); k <= n; k++ {
		if err := alt.Insert(k*3, k); err != nil {
			t.Fatal(err)
		}
	}
	if st := alt.StatsMap(); st["models"] != 1 || st["art_keys"] != n-1 {
		t.Fatalf("training ran while disabled: %v", st)
	}
	for k := uint64(1); k <= n; k++ {
		if v, ok := alt.Get(k * 3); !ok || v != k {
			t.Fatalf("Get(%d) = (%d,%v), want (%d,true)", k*3, v, ok, k)
		}
	}
	want := uint64(1)
	index.Walk(alt, 0, ^uint64(0), n+1, func(k, v uint64) bool {
		if k != want*3 || v != want {
			t.Fatalf("scan item %d = (%d,%d), want (%d,%d)", want, k, v, want*3, want)
		}
		want++
		return true
	})
	if want != n+1 {
		t.Fatalf("scan saw %d keys, want %d", want-1, n)
	}
}

func TestAutoTrainingConcurrent(t *testing.T) {
	alt := New(Options{})
	t.Cleanup(func() { alt.Close() })
	keys := dataset.Generate(dataset.FB, 30000, 21)
	const workers = 8
	per := len(keys) / workers
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for _, k := range keys[w*per : (w+1)*per] {
				if err := alt.Insert(k, dataset.ValueFor(k)); err != nil {
					t.Error(err)
					return
				}
				if v, ok := alt.Get(k); !ok || v != dataset.ValueFor(k) {
					t.Errorf("read-own-write failed for %d: (%d,%v)", k, v, ok)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	alt.Quiesce()
	checkTable(t, alt)
	if alt.StatsMap()["models"] < 2 {
		t.Fatal("no learned layer formed under concurrency")
	}
	for w := 0; w < workers; w++ {
		for _, k := range keys[w*per : (w+1)*per] {
			if v, ok := alt.Get(k); !ok || v != dataset.ValueFor(k) {
				t.Fatalf("key %d lost after concurrent training (%d,%v)", k, v, ok)
			}
		}
	}
}

func TestRetrainEmptyRangeKeepsCoverage(t *testing.T) {
	// Drain one model's range entirely, then force retraining around it:
	// the table must keep covering the range via a placeholder model and
	// later inserts into the range must still work.
	keys := dataset.Generate(dataset.Libio, 30000, 22)
	alt := mustBulk(t, Options{}, keys)
	tb := alt.tab.Load()
	if len(tb.dir) < 3 {
		t.Skip("need several models")
	}
	// Remove every key of the middle model's range.
	mid := len(tb.dir) / 2
	lo := tb.bounds[mid]
	hi := tb.upperBound(mid)
	for _, k := range keys {
		if k >= lo && k < hi {
			alt.Remove(k)
		}
	}
	// Hammer the range with inserts to trigger its rebuild.
	base := lo + 1
	var ins []uint64
	for i := uint64(0); i < 600 && base+i*2 < hi; i++ {
		k := base + i*2
		_ = alt.Insert(k, k)
		ins = append(ins, k)
	}
	alt.Quiesce()
	if alt.StatsMap()["retrains"] == 0 {
		t.Fatal("the inserts into the drained range retrained nothing")
	}
	for _, k := range ins {
		if v, ok := alt.Get(k); !ok || v != k {
			t.Fatalf("range key %d lost (%d,%v)", k, v, ok)
		}
	}
	// Keys outside the drained range untouched.
	if v, ok := alt.Get(keys[0]); !ok || v != dataset.ValueFor(keys[0]) {
		t.Fatal("outside key lost")
	}
}

func TestStatsConsistentAfterChurn(t *testing.T) {
	keys := dataset.Generate(dataset.OSM, 20000, 23)
	loaded, pending := workload.SplitLoad(keys, 0.5, 9)
	alt := mustBulk(t, Options{ErrorBound: 64}, loaded)
	for i, k := range pending {
		_ = alt.Insert(k, dataset.ValueFor(k))
		if i%3 == 0 {
			alt.Remove(loaded[i%len(loaded)])
		}
	}
	alt.Quiesce()
	st := alt.StatsMap()
	if st["learned_keys"]+st["art_keys"] != int64(alt.Len()) {
		t.Fatalf("layer accounting drifted: %d+%d != %d",
			st["learned_keys"], st["art_keys"], alt.Len())
	}
}

func TestRangeIterator(t *testing.T) {
	keys := dataset.Generate(dataset.FB, 10000, 30)
	alt := mustBulk(t, Options{ErrorBound: 64}, keys)
	// Full iteration matches the key set in order.
	i := 0
	for k, v := range index.Range(alt, 0) {
		if k != keys[i] || v != dataset.ValueFor(k) {
			t.Fatalf("item %d = (%d,%d), want (%d,%d)", i, k, v, keys[i], dataset.ValueFor(keys[i]))
		}
		i++
	}
	if i != len(keys) {
		t.Fatalf("iterated %d, want %d", i, len(keys))
	}
	// Early break works.
	n := 0
	for range index.Range(alt, keys[100]) {
		n++
		if n == 5 {
			break
		}
	}
	if n != 5 {
		t.Fatalf("early break iterated %d", n)
	}
	// Starting past the end yields nothing.
	for k := range index.Range(alt, keys[len(keys)-1]+1) {
		t.Fatalf("phantom key %d", k)
	}
}
