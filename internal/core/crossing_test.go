package core

import (
	"testing"

	"altindex/internal/dataset"
	"altindex/internal/index"
)

// slotMate returns a key not in loaded that predicts to slot s of the model
// at table position pos, searching outward from near. ok is false when the
// search finds none.
func slotMate(tb *table, pos, s int, near uint64, loaded map[uint64]bool) (uint64, bool) {
	e := &tb.dir[pos]
	for d := uint64(1); d < 1<<16; d++ {
		for _, k := range []uint64{near + d, near - d} {
			if !loaded[k] && tb.route(k) == pos && e.slotOf(k) == s {
				return k, true
			}
		}
	}
	return 0, false
}

// TestScanKeepsKeyAcrossTombstoneUpsert replays scanAppend's steps with an
// upsert of an ART key behind a tombstone between the learned read and the
// ART read. The key is present for the whole scan, so the scan must return
// it. When that upsert moved the key from ART into its slot, the learned
// read had missed it and the ART read no longer found it, and frozenIn,
// which only sees freezes, let the short result through.
func TestScanKeepsKeyAcrossTombstoneUpsert(t *testing.T) {
	keys := dataset.Generate(dataset.OSM, 20000, 5)
	alt := mustBulk(t, Options{ErrorBound: 64, DisableRetraining: true}, keys)
	loaded := make(map[uint64]bool, len(keys))
	for _, k := range keys {
		loaded[k] = true
	}
	tb := alt.tab.Load()

	// J is a loaded slot resident; K predicts to J's slot and is evicted
	// into ART behind it.
	var j, k uint64
	found := false
	for _, c := range keys[len(keys)/3:] {
		pos := tb.route(c)
		s := tb.dir[pos].slotOf(c)
		if sk, _, st, ok := tb.dir[pos].read(s); !ok || st&slotOccupied == 0 || sk != c {
			continue
		}
		if k, found = slotMate(tb, pos, s, c, loaded); found {
			j = c
			break
		}
	}
	if !found {
		t.Fatal("no slot resident with a free slot mate")
	}
	if err := alt.Insert(k, 1); err != nil {
		t.Fatal(err)
	}
	if _, inART := alt.tree.Get(k); !inART {
		t.Fatalf("K %#x was not evicted into ART behind J %#x", k, j)
	}
	if !alt.Remove(j) {
		t.Fatalf("Remove(J %#x) failed", j)
	}

	start, hi, want := min(j, k), max(j, k)+1<<20, 64
	tab := alt.tab.Load()
	first := tab.route(start)
	learned, next, ok := alt.collectRuns(tab, first, start, hi, want, nil)
	if !ok {
		t.Fatal("collectRuns met a frozen slot with retraining disabled")
	}
	if err := alt.Insert(k, 2); err != nil { // K stays present throughout
		t.Fatal(err)
	}
	artHi := hi
	if len(learned) >= want {
		artHi = learned[len(learned)-1].Key
	}
	art := alt.tree.AppendRange(nil, start, artHi, want)
	if tab.frozenIn(first, next, start) {
		t.Fatal("frozenIn reports a freeze with retraining disabled")
	}
	out := mergeRuns(nil, learned, art, want)
	for _, kv := range out {
		if kv.Key == k {
			if kv.Value != 2 {
				t.Fatalf("scan returned K %#x with value %d, want the upsert's 2", k, kv.Value)
			}
			return
		}
	}
	t.Fatalf("scan lost K %#x, present for its whole interval: learned %d pairs, ART %d pairs", k, len(learned), len(art))
}

// TestTombstoneUpsertUpdatesARTCopy pins insertAt's tombstone branch: an
// upsert of a key that sits in ART behind a tombstone updates that copy and
// leaves the slot tombstoned (no key crosses layers outside a rebuild), and
// a fresh key predicted to the slot still claims it.
func TestTombstoneUpsertUpdatesARTCopy(t *testing.T) {
	for _, evict := range []string{"build", "runtime"} {
		t.Run(evict, func(t *testing.T) {
			keys := dataset.Generate(dataset.OSM, 20000, 5)
			alt := mustBulk(t, Options{ErrorBound: 64, DisableRetraining: true}, keys)
			loaded := make(map[uint64]bool, len(keys))
			for _, k := range keys {
				loaded[k] = true
			}
			tb := alt.tab.Load()

			// slotKey holds the slot artKey predicts to; artKey is in ART,
			// put there by Bulkload's conflict eviction (the sidecar still
			// describes it) or by a runtime eviction (the sidecar is stale).
			var slotKey, artKey uint64
			var pos, s int
			found := false
			for _, c := range keys {
				pos = tb.route(c)
				s = tb.dir[pos].slotOf(c)
				sk, _, st, ok := tb.dir[pos].read(s)
				if !ok || st&slotOccupied == 0 {
					continue
				}
				if evict == "build" && sk != c {
					slotKey, artKey, found = sk, c, true
					break
				}
				if evict == "runtime" && sk == c {
					if mate, ok := slotMate(tb, pos, s, c, loaded); ok {
						slotKey, artKey, found = c, mate, true
						if err := alt.Insert(artKey, 7); err != nil {
							t.Fatal(err)
						}
						break
					}
				}
			}
			if !found {
				t.Fatal("no conflict pair found")
			}
			e := &tb.dir[pos]
			if spill := e.metaRef(s).Load()&slotSpill != 0; spill != (evict == "runtime") {
				t.Fatalf("spill bit %v after a %s eviction", spill, evict)
			}
			if !alt.Remove(slotKey) {
				t.Fatal("Remove of the slot resident failed")
			}
			n, artKeys := alt.Len(), alt.StatsMap()["art_keys"]

			const v = 0xC0FFEE
			if err := alt.Insert(artKey, v); err != nil {
				t.Fatal(err)
			}
			if st := stateOf(e.metaRef(s).Load()); st != slotTomb {
				t.Fatalf("slot state %d after the upsert, want it still tombstoned", st)
			}
			if got, ok := alt.Get(artKey); !ok || got != v {
				t.Fatalf("Get after the upsert = %#x,%v, want %#x", got, ok, v)
			}
			if got, ok := alt.tree.Get(artKey); !ok || got != v {
				t.Fatalf("ART copy after the upsert = %#x,%v, want %#x", got, ok, v)
			}
			if out := alt.ScanAppend(nil, artKey, artKey+1, 4); len(out) != 1 || out[0] != (index.KV{Key: artKey, Value: v}) {
				t.Fatalf("scan of the upserted key = %v", out)
			}
			if alt.Len() != n || alt.StatsMap()["art_keys"] != artKeys {
				t.Fatalf("Len %d -> %d, art_keys %d -> %d; an upsert moved or counted a key",
					n, alt.Len(), artKeys, alt.StatsMap()["art_keys"])
			}

			// A fresh key predicted to the tombstone claims it.
			delete(loaded, slotKey)
			loaded[artKey] = true
			fresh, ok := slotMate(tb, pos, s, artKey, loaded)
			if !ok {
				t.Fatal("no fresh key predicts to the tombstoned slot")
			}
			if err := alt.Insert(fresh, 9); err != nil {
				t.Fatal(err)
			}
			if sk, sv, meta, ok := e.read(s); !ok || stateOf(meta) != slotOccupied || sk != fresh || sv != 9 {
				t.Fatalf("slot after a fresh insert = (%#x, %d, state %d), want the fresh key claiming it", sk, sv, stateOf(meta))
			}
			if alt.Len() != n+1 || alt.StatsMap()["art_keys"] != artKeys {
				t.Fatalf("fresh claim: Len %d -> %d, art_keys %d -> %d", n, alt.Len(), artKeys, alt.StatsMap()["art_keys"])
			}
			if got, ok := alt.Get(artKey); !ok || got != v {
				t.Fatalf("ART key behind the claimed slot = %#x,%v, want %#x", got, ok, v)
			}
		})
	}
}

// TestScanDedupAcrossSlotReuse replays scanAppend's steps with a slot reuse
// between the learned read and the ART read, and no rebuild: the learned
// read takes J from its slot, Remove(J) tombstones the slot, a fresh K
// predicted to it claims the tombstone, and Insert(J) evicts J into ART
// behind K. The ART read then returns J again and frozenIn, which only sees
// freezes, passes the scan, so the merge meets J in both runs. It must emit
// J once, with the learned read's value.
func TestScanDedupAcrossSlotReuse(t *testing.T) {
	keys := dataset.Generate(dataset.OSM, 20000, 5)
	alt := mustBulk(t, Options{ErrorBound: 64, DisableRetraining: true}, keys)
	loaded := make(map[uint64]bool, len(keys))
	for _, k := range keys {
		loaded[k] = true
	}
	tb := alt.tab.Load()

	// J is a loaded slot resident; K is a fresh key predicting to J's slot.
	var j, k uint64
	var pos, s int
	found := false
	for _, c := range keys[len(keys)/3:] {
		pos = tb.route(c)
		s = tb.dir[pos].slotOf(c)
		if sk, _, st, ok := tb.dir[pos].read(s); !ok || st&slotOccupied == 0 || sk != c {
			continue
		}
		if k, found = slotMate(tb, pos, s, c, loaded); found {
			j = c
			break
		}
	}
	if !found {
		t.Fatal("no slot resident with a free slot mate")
	}

	start, hi, want := min(j, k), max(j, k)+1<<20, 64
	tab := alt.tab.Load()
	first := tab.route(start)
	learned, next, ok := alt.collectRuns(tab, first, start, hi, want, nil) // 1
	if !ok {
		t.Fatal("collectRuns met a frozen slot with retraining disabled")
	}
	if !alt.Remove(j) { // 2
		t.Fatalf("Remove(J %#x) failed", j)
	}
	if err := alt.Insert(k, 1); err != nil { // 3
		t.Fatal(err)
	}
	e := &tb.dir[pos]
	if sk, _, meta, ok := e.read(s); !ok || stateOf(meta) != slotOccupied || sk != k {
		t.Fatalf("K %#x did not claim J's tombstoned slot: (%#x, state %d)", k, sk, stateOf(meta))
	}
	if err := alt.Insert(j, 2); err != nil { // 4
		t.Fatal(err)
	}
	if v, inART := alt.tree.Get(j); !inART || v != 2 {
		t.Fatalf("J %#x was not evicted into ART behind K: %d,%v", j, v, inART)
	}
	artHi := hi
	if len(learned) >= want {
		artHi = learned[len(learned)-1].Key
	}
	art := alt.tree.AppendRange(nil, start, artHi, want) // 5
	if tab.frozenIn(first, next, start) {
		t.Fatal("frozenIn reports a freeze with retraining disabled")
	}
	inLearned, inArt := false, false
	for _, kv := range learned {
		inLearned = inLearned || kv.Key == j
	}
	for _, kv := range art {
		inArt = inArt || kv.Key == j
	}
	if !inLearned || !inArt {
		t.Fatalf("J %#x not in both runs (learned %v, ART %v); the replay did not reach the merge", j, inLearned, inArt)
	}
	var got []index.KV
	for _, kv := range mergeRuns(nil, learned, art, want) {
		if kv.Key == j {
			got = append(got, kv)
		}
	}
	if len(got) != 1 || got[0].Value != dataset.ValueFor(j) {
		t.Fatalf("scan emitted J %#x as %v, want it once with the learned value %d", j, got, dataset.ValueFor(j))
	}
}
