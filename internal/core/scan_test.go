package core

import (
	"sort"
	"testing"

	"altindex/internal/index"
)

// collectScan gathers the keys of up to n pairs walked from start.
func collectScan(alt *ALT, start uint64, n int) []uint64 {
	var got []uint64
	index.Walk(alt, start, ^uint64(0), n, func(k, v uint64) bool {
		got = append(got, k)
		return true
	})
	return got
}

// twoClusterKeys builds two dense clusters far enough apart that GPL
// splits them into separate models, leaving a huge trailing gap behind the
// first model's key range.
func twoClusterKeys() (keys []uint64, lastA, firstB uint64) {
	for i := 0; i < 1500; i++ {
		keys = append(keys, 10_000+uint64(i)*2)
	}
	lastA = keys[len(keys)-1]
	firstB = uint64(1) << 40
	for i := 0; i < 1500; i++ {
		keys = append(keys, firstB+uint64(i)*3)
	}
	return keys, lastA, firstB
}

// TestScanTombstoneBoundaries removes keys sitting exactly on scan and
// model boundaries — the scan's start key, the last key of one model, the
// first key of the next — and checks Scan streams exactly the surviving
// keys. Tombstones used to be easy to mishandle at these edges: a
// tombstoned start slot must be skipped without ending the scan, and a
// tombstoned model-boundary slot must not hide the neighbouring model.
func TestScanTombstoneBoundaries(t *testing.T) {
	keys, lastA, firstB := twoClusterKeys()
	alt := mustBulk(t, Options{ErrorBound: 64}, keys)
	if alt.StatsMap()["models"] < 2 {
		t.Fatal("clusters did not split into separate models")
	}

	removed := []uint64{lastA, firstB, keys[10], keys[len(keys)-1]}
	dead := map[uint64]bool{}
	for _, rk := range removed {
		if !alt.Remove(rk) {
			t.Fatalf("Remove(%d) = false", rk)
		}
		dead[rk] = true
	}
	var want []uint64
	for _, k := range keys {
		if !dead[k] {
			want = append(want, k)
		}
	}

	// Full scan equality.
	got := collectScan(alt, 0, len(keys))
	if len(got) != len(want) {
		t.Fatalf("full scan yielded %d keys, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("full scan[%d] = %d, want %d", i, got[i], want[i])
		}
	}

	// Scans starting exactly on each tombstone must begin at its live
	// successor.
	for _, rk := range removed {
		succ := sort.Search(len(want), func(i int) bool { return want[i] >= rk })
		g := collectScan(alt, rk, 5)
		wn := want[succ:min(succ+5, len(want))]
		if len(g) != len(wn) {
			t.Fatalf("scan from tombstone %d yielded %d keys, want %d", rk, len(g), len(wn))
		}
		for i := range wn {
			if g[i] != wn[i] {
				t.Fatalf("scan from tombstone %d: [%d] = %d, want %d", rk, i, g[i], wn[i])
			}
		}
	}

	// A scan crossing the model boundary (both edge keys tombstoned) must
	// hop models cleanly.
	g := collectScan(alt, lastA-6, 8)
	if len(g) < 4 || g[0] != lastA-6 {
		t.Fatalf("boundary-crossing scan = %v", g)
	}
	for i := 1; i < len(g); i++ {
		if g[i] <= g[i-1] || dead[g[i]] {
			t.Fatalf("boundary-crossing scan emitted %d (prev %d, dead=%v)", g[i], g[i-1], dead[g[i]])
		}
	}
}

// TestRangeStartsInTrailingGap starts ranges at keys routed to a model but
// above its last resident key, so collectRuns walks the model's
// trailing gap run (and, with the last key tombstoned, a tombstone at the
// head of that run) before hopping to the next model.
func TestRangeStartsInTrailingGap(t *testing.T) {
	keys, lastA, firstB := twoClusterKeys()
	alt := mustBulk(t, Options{ErrorBound: 64}, keys)

	expectFrom := func(start uint64, wantFirst uint64, n int) {
		t.Helper()
		var got []uint64
		for k := range index.Range(alt, start) {
			got = append(got, k)
			if len(got) == n {
				break
			}
		}
		if len(got) == 0 || got[0] != wantFirst {
			t.Fatalf("Range(%d) starts %v, want first %d", start, got, wantFirst)
		}
		for i := 1; i < len(got); i++ {
			if got[i] <= got[i-1] {
				t.Fatalf("Range(%d) not ascending: %v", start, got)
			}
		}
	}

	// Start just past the first model's last key: routed to model A, lands
	// in its trailing gap, must surface model B's first key.
	expectFrom(lastA+1, firstB, 10)
	// Start midway through the inter-cluster void.
	expectFrom(lastA+(firstB-lastA)/2, firstB, 10)

	// Tombstone the first model's last key so the trailing run begins with
	// a tombstone; the range must skip it without losing model B.
	if !alt.Remove(lastA) {
		t.Fatal("Remove(lastA) failed")
	}
	expectFrom(lastA, firstB, 10)
	expectFrom(lastA-2, lastA-2, 10)

	// Start beyond every key: the range must terminate empty.
	n := 0
	for range index.Range(alt, keys[len(keys)-1]+1) {
		n++
	}
	if n != 0 {
		t.Fatalf("Range past the end yielded %d keys", n)
	}
}

// TestScanReadsKeysBelowModelOrigin scans a key that sits in slot 0 of a
// rebuilt model below the model's prediction origin. The rebuild keeps the
// range's old boundary while its minimum key moved up, so keys between the
// two clamp to slot 0; once the new minimum is removed, a fresh key there
// claims its tombstone. A scan must read it whether it starts in that model
// or in the one before: models are skipped by their boundaries, not their
// origins. A third cluster's model triggers the rebuild, so the span it
// rebuilds with its neighbours starts at the second cluster's model.
func TestScanReadsKeysBelowModelOrigin(t *testing.T) {
	keys, lastA, firstB := twoClusterKeys()
	for i := 0; i < 1500; i++ {
		keys = append(keys, uint64(1)<<41+uint64(i)*5)
	}
	alt := mustBulk(t, Options{ErrorBound: 64, DisableRetraining: true}, keys)
	pos := alt.tab.Load().route(firstB)
	if pos == 0 || alt.tab.Load().route(1<<41) != pos+1 {
		t.Fatal("the three clusters do not make one model each")
	}
	for _, k := range []uint64{firstB, firstB + 3, firstB + 6, firstB + 9} {
		alt.Remove(k)
	}
	retrainNow(alt, alt.tab.Load().dir[pos+1].m)
	tb := alt.tab.Load()
	e := &tb.dir[pos]
	if tb.bounds[pos] != firstB || e.first != firstB+12 {
		t.Fatalf("rebuilt model: boundary %d, origin %d; want %d, %d", tb.bounds[pos], e.first, firstB, firstB+12)
	}
	alt.Remove(e.first)
	k := firstB + 1
	if err := alt.Insert(k, 5); err != nil {
		t.Fatal(err)
	}
	if got, _, meta, ok := e.read(0); !ok || stateOf(meta) != slotOccupied || got != k {
		t.Fatalf("slot 0 = %d (state %d), want %d claiming it", got, stateOf(meta), k)
	}
	for _, start := range []uint64{k, lastA} {
		out := alt.ScanAppend(nil, start, k+1, 4)
		if len(out) == 0 || out[len(out)-1] != (index.KV{Key: k, Value: 5}) {
			t.Fatalf("scan [%d, %d] = %v, want it to end with the slot-0 key %d", start, k, out, k)
		}
	}
}
