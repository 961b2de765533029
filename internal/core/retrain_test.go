package core

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"altindex/internal/dataset"
)

// pinRetrainPipeline replaces the trigger queue New sizes at
// retrainQueue. Call it before the first trigger, which starts the worker.
func pinRetrainPipeline(t *ALT, queue int) {
	t.ret.q = make(chan *model, queue)
}

// TestRetrainRearmOnDrop is the regression test for the lost-trigger
// window: a trigger dropped on queue overflow must leave the model
// re-armable, so a later threshold-crossing insert retrains it. The
// pre-async code could lose such triggers entirely — a failed TryLock
// left the crowded model crowded until a future insert happened to
// re-trip the threshold, which a starved (no-longer-written) model
// never did.
func TestRetrainRearmOnDrop(t *testing.T) {
	keys := make([]uint64, 256)
	for i := range keys {
		keys[i] = uint64(i) * 1000
	}
	alt := mustBulk(t, Options{ErrorBound: 16, RetrainMinInserts: 8}, keys)
	pinRetrainPipeline(alt, 1)

	// Consume the worker launch once so no worker drains the queue, then
	// wedge the queue with a decoy model that is not in the table. The
	// accounting mirrors enqueueRetrain: armed + pending before the send.
	alt.ret.once.Do(func() {})
	decoy := emptyModel(0)
	decoy.retrainArmed.Store(true)
	alt.ret.pending.Add(1)
	alt.ret.q <- decoy

	// Crowd one model far past its threshold. Every trigger hits the full
	// queue: it must be dropped AND the model disarmed.
	hot := uint64(100_000)
	for i := uint64(0); i < 600; i++ {
		if err := alt.Insert(hot+i, i); err != nil {
			t.Fatal(err)
		}
	}
	if alt.ret.drops.Load() == 0 {
		t.Fatal("full queue produced no drops")
	}
	if alt.retrains.Load() != 0 {
		t.Fatal("retrain ran with no worker and a wedged queue")
	}
	m, _ := routed(alt.tab.Load(), hot)
	if m.retrainArmed.Load() {
		t.Fatal("dropped trigger left the model armed — future triggers are dead")
	}

	// Start the worker and let it drain the decoy, then a further burst
	// of inserts must re-arm and retrain the starved model. (The trigger
	// sits on the conflict branch, so a burst — not a single key — makes
	// sure at least one insert evicts to ART and re-trips it.)
	alt.ret.launch(alt)
	alt.Quiesce()
	for i := uint64(600); i < 640; i++ {
		if err := alt.Insert(hot+i, i); err != nil {
			t.Fatal(err)
		}
	}
	alt.Quiesce()
	checkTable(t, alt)
	if alt.retrains.Load() == 0 {
		t.Fatal("re-armed trigger did not retrain")
	}
	for i := uint64(0); i < 640; i++ {
		if v, ok := alt.Get(hot + i); !ok || v != i {
			t.Fatalf("Get(%d) = %d,%v after retrain", hot+i, v, ok)
		}
	}
}

// TestConcurrentDisjointRetrains hammers several far-apart key regions
// from concurrent writers so many models cross their retrain thresholds
// together and their triggers queue behind the index's one worker. No key
// may be lost while the rebuilds run one after another under live writes.
func TestConcurrentDisjointRetrains(t *testing.T) {
	keys := dataset.Generate(dataset.OSM, 30000, 41)
	alt := mustBulk(t, Options{ErrorBound: 16, RetrainMinInserts: 64}, keys)

	const writers = 8
	const perWriter = 4000
	span := ^uint64(0) / writers
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := span*uint64(w) + 1 // regions are disjoint by construction
			for i := uint64(0); i < perWriter; i++ {
				k := base + i*3
				if err := alt.Insert(k, k^0xabc); err != nil {
					panic(err)
				}
				if i%64 == 0 {
					if _, ok := alt.Get(k); !ok {
						panic(fmt.Sprintf("key %d vanished mid-churn", k))
					}
				}
			}
		}(w)
	}
	wg.Wait()
	alt.Quiesce()
	checkTable(t, alt)

	st := alt.StatsMap()
	if st["retrains"] == 0 {
		t.Fatalf("hot disjoint writes did not retrain (stats %v)", st)
	}
	for w := 0; w < writers; w++ {
		base := span*uint64(w) + 1
		for i := uint64(0); i < perWriter; i++ {
			k := base + i*3
			if v, ok := alt.Get(k); !ok || v != k^0xabc {
				t.Fatalf("Get(%d) = %d,%v after concurrent retrains", k, v, ok)
			}
		}
	}
	if st["learned_keys"]+st["art_keys"] != int64(alt.Len()) {
		t.Fatalf("layer accounting off after quiesce: %v vs Len %d", st, alt.Len())
	}
}

// TestPlaceholderAbsorption drives a range empty, retrains it into a
// one-slot placeholder, then retrains its left neighbor and checks the
// splice absorbed the placeholder — the table must shrink, not grow
// monotonically under churn.
func TestPlaceholderAbsorption(t *testing.T) {
	// Three well-separated clusters segment into (at least) three models.
	var keys []uint64
	for i := uint64(0); i < 300; i++ {
		keys = append(keys, 1_000+i*7)
	}
	for i := uint64(0); i < 300; i++ {
		keys = append(keys, 10_000_000+i*5)
	}
	for i := uint64(0); i < 300; i++ {
		keys = append(keys, 20_000_000+i*11)
	}
	alt := mustBulk(t, Options{ErrorBound: 8, DisableRetraining: true}, keys)

	tab := alt.tab.Load()
	if len(tab.dir) < 3 {
		t.Skipf("clusters segmented into %d models; need >= 3", len(tab.dir))
	}
	mid, pos := routed(tab, 10_000_000)
	lo, end := tab.rangeBounds(pos)
	for _, k := range keys {
		if k >= lo && k <= end {
			if !alt.Remove(k) {
				t.Fatalf("Remove(%d) failed", k)
			}
		}
	}

	retrain := func(m *model) {
		m.retrainArmed.Store(true)
		alt.ret.pending.Add(1)
		alt.processRetrain(context.Background(), m)
		checkTable(t, alt) // after every splice and absorption
	}

	// Retrain the emptied range: it must collapse to a placeholder.
	retrain(mid)
	tab = alt.tab.Load()
	ph, phPos := routed(tab, 10_000_000)
	if ph.nslots != 1 || stateOf(ph.metaRef(0).Load()) != 0 {
		t.Fatalf("emptied range did not become a never-written placeholder (nslots=%d meta=%x)",
			ph.nslots, ph.metaRef(0).Load())
	}
	before := len(tab.dir)

	// Retrain the left neighbor: the splice must absorb the placeholder.
	left := tab.dir[phPos-1].m
	retrain(left)
	tab = alt.tab.Load()
	if alt.ret.merges.Load() == 0 {
		t.Fatalf("neighbor rebuild absorbed no placeholder (models %d -> %d)", before, len(tab.dir))
	}
	if len(tab.dir) >= before {
		t.Fatalf("table did not shrink: %d -> %d models", before, len(tab.dir))
	}
	// Absorption must not change any lookup result.
	for _, k := range keys {
		v, ok := alt.Get(k)
		if k >= lo && k <= end {
			if ok {
				t.Fatalf("removed key %d resurfaced after absorption", k)
			}
		} else if !ok || v != dataset.ValueFor(k) {
			t.Fatalf("Get(%d) = %d,%v after absorption", k, v, ok)
		}
	}
}

// TestShardRetrainGateBudget drives two independent cores that share one
// single-slot RetrainGate — the configuration the sharded front-end hands
// every shard — and checks that the gate serializes rebuilds without
// starving either pipeline: both must still complete their retrains, and
// every acquired slot must be released (Close on one index must not wedge
// the other's rebuilds behind a leaked slot).
func TestShardRetrainGateBudget(t *testing.T) {
	gate := make(chan struct{}, 1)
	var alts []*ALT
	for i := 0; i < 2; i++ {
		keys := make([]uint64, 4096)
		for j := range keys {
			keys[j] = uint64(i)<<40 + uint64(j)*16
		}
		alts = append(alts, mustBulk(t, Options{
			ErrorBound: 16, RetrainMinInserts: 64, RetrainGate: gate,
		}, keys))
	}
	var wg sync.WaitGroup
	for i, alt := range alts {
		wg.Add(1)
		go func(i int, alt *ALT) {
			defer wg.Done()
			for j := uint64(0); j < 6000; j++ {
				k := uint64(i)<<40 + j*16 + 1 + (j % 7)
				if err := alt.Insert(k, j); err != nil {
					t.Errorf("core %d: Insert(%d): %v", i, k, err)
					return
				}
			}
		}(i, alt)
	}
	wg.Wait()
	for i, alt := range alts {
		alt.Quiesce()
		checkTable(t, alt)
		if alt.StatsMap()["retrains"] == 0 {
			t.Errorf("core %d retrained zero times through the shared gate", i)
		}
	}
	if len(gate) != 0 {
		t.Fatalf("%d gate slots leaked after quiesce", len(gate))
	}
	// Closing one index must leave the gate usable by the survivor.
	alts[0].Close()
	for j := uint64(0); j < 3000; j++ {
		k := uint64(1)<<40 + j*16 + 9
		if err := alts[1].Insert(k, j); err != nil {
			t.Fatalf("post-close Insert: %v", err)
		}
	}
	alts[1].Quiesce()
	if len(gate) != 0 {
		t.Fatalf("%d gate slots leaked after peer close", len(gate))
	}
}

// TestMergeSortedEdgeCases pins the merge used by gather: one side empty
// (both directions), duplicate keys across the inputs (the model copy —
// stream a — must win), and interleaved runs with duplicates.
func TestMergeSortedEdgeCases(t *testing.T) {
	eq := func(got, want []uint64) bool {
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}

	// One side empty.
	k, v := mergeSorted(nil, nil, []uint64{1, 5, 9}, []uint64{10, 50, 90})
	if !eq(k, []uint64{1, 5, 9}) || !eq(v, []uint64{10, 50, 90}) {
		t.Fatalf("empty a: got %v %v", k, v)
	}
	k, v = mergeSorted([]uint64{2, 4}, []uint64{20, 40}, nil, nil)
	if !eq(k, []uint64{2, 4}) || !eq(v, []uint64{20, 40}) {
		t.Fatalf("empty b: got %v %v", k, v)
	}
	k, v = mergeSorted(nil, nil, nil, nil)
	if len(k) != 0 || len(v) != 0 {
		t.Fatalf("both empty: got %v %v", k, v)
	}

	// Duplicate keys: the a-side (model) value must win, once.
	k, v = mergeSorted([]uint64{3, 7}, []uint64{300, 700}, []uint64{3, 7}, []uint64{301, 701})
	if !eq(k, []uint64{3, 7}) || !eq(v, []uint64{300, 700}) {
		t.Fatalf("all-dup: got %v %v", k, v)
	}

	// Interleaved with duplicates at the seams and in the middle.
	k, v = mergeSorted(
		[]uint64{1, 4, 6, 9}, []uint64{10, 40, 60, 90},
		[]uint64{1, 2, 6, 8, 9}, []uint64{11, 21, 61, 81, 91})
	if !eq(k, []uint64{1, 2, 4, 6, 8, 9}) || !eq(v, []uint64{10, 21, 40, 60, 81, 90}) {
		t.Fatalf("interleaved: got %v %v", k, v)
	}

	// mergeSortedKeys: same dedup on bare key streams.
	mk := mergeSortedKeys([]uint64{1, 3, 5}, []uint64{2, 3, 6})
	if !eq(mk, []uint64{1, 2, 3, 5, 6}) {
		t.Fatalf("mergeSortedKeys: got %v", mk)
	}
	if mk = mergeSortedKeys(nil, []uint64{7}); !eq(mk, []uint64{7}) {
		t.Fatalf("mergeSortedKeys empty a: got %v", mk)
	}
	if mk = mergeSortedKeys([]uint64{8}, nil); !eq(mk, []uint64{8}) {
		t.Fatalf("mergeSortedKeys empty b: got %v", mk)
	}
}

// TestFillShellsExhaustedMidFill covers the shells-outlive-keys path: keys
// that cover only the first shell's range must leave the trailing shells
// dropped — neither returned for the splice nor reachable from the table.
func TestFillShellsExhaustedMidFill(t *testing.T) {
	alt := mustBulk(t, Options{ErrorBound: 16, DisableRetraining: true},
		[]uint64{10, 20, 30})

	var shells []*model
	for _, first := range []uint64{100, 1000, 2000} {
		var cand []uint64 // one exact segment: 90 keys, 10 apart
		for k := first; k < first+900; k += 10 {
			cand = append(cand, k)
		}
		shells = append(shells, newShells(cand, 16, 1.2, false)...)
	}
	var keys, vals []uint64
	for i := uint64(0); i < 50; i++ {
		keys = append(keys, 100+i*10) // all inside shell 0's range
		vals = append(vals, i)
	}
	kept := shells[0]
	models := alt.fillShells(shells, keys, vals)
	if len(models) != 1 || models[0] != kept {
		t.Fatalf("expected only the first shell to survive, got %d models", len(models))
	}
	for _, dropped := range shells[1:] {
		if alt.tab.Load().posOf(dropped) >= 0 {
			t.Fatal("a dropped shell is reachable from the table")
		}
	}
	checkTable(t, alt)
	if models[0].buildSize != len(keys) {
		t.Fatalf("buildSize = %d, want %d", models[0].buildSize, len(keys))
	}
}

// TestBulkloadDrainsRetraining reloads indexes whose first training is in
// flight. A rebuild writes the tree and the fast pointer buffer that
// Bulkload replaces, so Bulkload must drain the pipeline first; the race
// detector flags the writes otherwise.
func TestBulkloadDrainsRetraining(t *testing.T) {
	keys := dataset.Generate(dataset.OSM, 20000, 7)
	for round := 0; round < 8; round++ {
		ix := New(Options{})
		for _, k := range keys[:1100+round*100] { // past the 1,025-insert trigger
			if err := ix.Insert(k, k); err != nil {
				t.Fatal(err)
			}
		}
		if err := ix.Bulkload(dataset.Pairs(keys)); err != nil {
			t.Fatal(err)
		}
		checkTable(t, ix)
		if ix.Len() != len(keys) {
			t.Fatalf("Len %d after Bulkload, want %d", ix.Len(), len(keys))
		}
		for _, k := range keys {
			if v, ok := ix.Get(k); !ok || v != dataset.ValueFor(k) {
				t.Fatalf("Get(%d) = %d, %v after Bulkload", k, v, ok)
			}
		}
		ix.Close()
	}
}

// TestUpsertOfARTKeyDoesNotRetrain pins that only growth counts toward a
// model's retraining trigger: upserting a key that already lives in ART, or
// re-inserting a placed key onto its own tombstone, leaves the model's key
// set as it was, however often it repeats, while fresh keys evicted to ART
// still trigger the rebuild once they alone cross the threshold.
func TestUpsertOfARTKeyDoesNotRetrain(t *testing.T) {
	var keys []uint64 // evenly spaced, and four that collide
	for i := uint64(0); i < 4000; i++ {
		keys = append(keys, i*1000)
		if i%1000 == 500 {
			keys = append(keys, i*1000+1)
		}
	}
	alt := mustBulk(t, Options{}, keys)
	conflicts := alt.tree.ScanAppend(nil, 0, ^uint64(0), 1)
	if len(conflicts) == 0 {
		t.Fatal("setup: the build evicted no key to ART")
	}
	hot := conflicts[0].Key
	tab := alt.tab.Load()
	m := tab.dir[tab.route(hot)].m
	threshold := max(m.buildSize, alt.opts.RetrainMinInserts)

	for i := 0; i <= threshold+10; i++ {
		if err := alt.Insert(hot, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	alt.Quiesce()
	if st := alt.StatsMap(); st["retrains"] != 0 {
		t.Fatalf("%d upserts of one ART key retrained the index: %v", threshold+11, st)
	}
	if v, _ := alt.Get(hot); v != uint64(threshold+10) {
		t.Fatalf("Get(%d) = %d after the upserts, want %d", hot, v, threshold+10)
	}

	// A key the build placed in m, removed and re-inserted: each insert
	// claims its own tombstone, a slot the build already counted.
	placed, found := uint64(0), false
	for s := 0; s < m.nslots && !found; s++ {
		k, _, meta, ok := m.read(s)
		placed, found = k, ok && meta&slotOccupied != 0
	}
	if !found {
		t.Fatal("setup: m holds no placed key")
	}
	for i := 0; i <= threshold+10; i++ {
		if !alt.Remove(placed) {
			t.Fatalf("Remove(%d) found no key", placed)
		}
		if err := alt.Insert(placed, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	alt.Quiesce()
	if st := alt.StatsMap(); st["retrains"] != 0 {
		t.Fatalf("%d tombstone claims retrained the index: %v", threshold+11, st)
	}

	// Fresh keys just above m's placed keys predict those keys' slots, so
	// each one spills to ART; the one that crosses the threshold retrains m.
	var fresh []uint64
	for s := 0; s < m.nslots && len(fresh) <= threshold; s++ {
		k, _, meta, ok := m.read(s)
		if !ok || meta&slotOccupied == 0 {
			continue
		}
		for c := k + 1; m.slotOf(c) == s && tab.dir[tab.route(c)].m == m && len(fresh) <= threshold; c++ {
			if _, ok := alt.Get(c); !ok {
				fresh = append(fresh, c)
			}
		}
	}
	if len(fresh) <= threshold {
		t.Fatalf("setup: found %d fresh conflicting keys, want more than %d", len(fresh), threshold)
	}
	half := threshold / 2
	for i, c := range fresh {
		if err := alt.Insert(c, c); err != nil {
			t.Fatal(err)
		}
		if i+1 == half {
			alt.Quiesce()
			if st := alt.StatsMap(); st["retrains"] != 0 {
				t.Fatalf("%d fresh conflicting keys after %d tombstone claims retrained the index: %v",
					half, threshold+11, st)
			}
		}
	}
	alt.Quiesce()
	if st := alt.StatsMap(); st["retrains"] == 0 {
		t.Fatalf("%d fresh conflicting keys did not retrain the index: %v", len(fresh), st)
	}
	if v, ok := alt.Get(placed); !ok || v != uint64(threshold+10) {
		t.Fatalf("Get(%d) = %d, %v after the claims, want %d", placed, v, ok, threshold+10)
	}
}
