package core

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"altindex/internal/dataset"
	"altindex/internal/index"
	"altindex/internal/xrand"
)

// refWindow computes the expected [start, end) window over a sorted key
// slice with the ScanAppend sentinel semantics (end == MaxUint64 means
// unbounded, including MaxUint64 itself).
func refWindow(sorted []uint64, start, end uint64, max int) []uint64 {
	var out []uint64
	for _, k := range sorted {
		if k < start {
			continue
		}
		if end != ^uint64(0) && k >= end {
			break
		}
		if len(out) >= max {
			break
		}
		out = append(out, k)
	}
	return out
}

// TestScanAppendMatchesReference drives random windows over a two-model
// index with keys split across the learned and ART layers (conflict
// evictions plus post-build inserts) and tombstones punched into the blocks
// (every fifth bulkloaded key removed), and checks every window — through
// ScanAppend and through index.Walk — against a sorted-slice reference.
// Half the windows start on or next to a resident key, the rest anywhere up
// to past the last key, which mostly lands in the first model's trailing
// gap.
func TestScanAppendMatchesReference(t *testing.T) {
	keys, _, _ := twoClusterKeys()
	alt := mustBulk(t, Options{ErrorBound: 64, DisableRetraining: true}, keys)
	// Post-build inserts: odd offsets land between bulkloaded keys and
	// mostly conflict-evict into the ART layer, exercising the merge.
	live := map[uint64]bool{}
	for _, k := range keys {
		live[k] = true
	}
	for i := 0; i < 600; i++ {
		k := 10_001 + uint64(i)*7
		if err := alt.Insert(k, dataset.ValueFor(k)); err != nil {
			t.Fatal(err)
		}
		live[k] = true
	}
	for i, k := range keys {
		if i%5 == 0 {
			if !alt.Remove(k) {
				t.Fatalf("Remove(%d) = false", k)
			}
			delete(live, k)
		}
	}
	uniq := make([]uint64, 0, len(live))
	for k := range live {
		uniq = append(uniq, k)
	}
	sort.Slice(uniq, func(i, j int) bool { return uniq[i] < uniq[j] })
	if alt.StatsMap()["art_keys"] == 0 {
		t.Fatal("no ART-resident keys; merge path not exercised")
	}

	check := func(what string, got []uint64, start, end uint64, max int) {
		t.Helper()
		want := refWindow(uniq, start, end, max)
		if len(got) != len(want) {
			t.Fatalf("%s [%d,%d) max %d: got %d keys, want %d", what, start, end, max, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s [%d,%d) max %d: [%d] = %d, want %d", what, start, end, max, i, got[i], want[i])
			}
		}
	}
	rng := xrand.New(99)
	span := uniq[len(uniq)-1] + 1000
	var dst []index.KV
	var got []uint64
	for trial := 0; trial < 600; trial++ {
		start := uint64(rng.Intn(int(span)))
		if trial%2 == 0 {
			start = uniq[rng.Intn(len(uniq))] + uint64(rng.Intn(5)) - 2
		}
		end := start + uint64(rng.Intn(1<<uint(4+rng.Intn(27))))
		if trial%7 == 0 {
			end = ^uint64(0)
		}
		max := 1 + rng.Intn(400)
		dst = alt.ScanAppend(dst[:0], start, end, max)
		got = got[:0]
		for _, kv := range dst {
			if kv.Value != dataset.ValueFor(kv.Key) {
				t.Fatalf("key %d carries value %d, want %d",
					kv.Key, kv.Value, dataset.ValueFor(kv.Key))
			}
			got = append(got, kv.Key)
		}
		check("ScanAppend", got, start, end, max)
		check("Walk", collectScan(alt, start, max), start, ^uint64(0), max)
	}
}

// TestScanAppendBoundedEdges pins the bounded-window contract's edges:
// end == start is empty, end == start+1 is a single-key probe, and the
// ^uint64(0) sentinel is unbounded and includes key MaxUint64 itself.
func TestScanAppendBoundedEdges(t *testing.T) {
	keys, lastA, firstB := twoClusterKeys()
	alt := mustBulk(t, Options{ErrorBound: 64, DisableRetraining: true}, keys)

	if got := alt.ScanAppend(nil, keys[0], keys[0], 10); len(got) != 0 {
		t.Fatalf("end == start yielded %d pairs, want 0", len(got))
	}
	if got := alt.ScanAppend(nil, keys[5], keys[3], 10); len(got) != 0 {
		t.Fatalf("end < start yielded %d pairs, want 0", len(got))
	}
	if got := alt.ScanAppend(nil, keys[0], keys[0]+1, 10); len(got) != 1 || got[0].Key != keys[0] {
		t.Fatalf("single-key window = %v, want exactly key %d", got, keys[0])
	}
	// Half-open: the end key itself is excluded.
	got := alt.ScanAppend(nil, 0, firstB, len(keys))
	if len(got) == 0 || got[len(got)-1].Key != lastA {
		t.Fatalf("window [0, firstB) ends at %v, want %d", got, lastA)
	}
	// A window ending inside the inter-cluster void never crosses into the
	// second model.
	got = alt.ScanAppend(got[:0], lastA+1, firstB-1, 10)
	if len(got) != 0 {
		t.Fatalf("void window yielded %d pairs", len(got))
	}
	// max == 0 and negative are empty.
	if got := alt.ScanAppend(nil, 0, ^uint64(0), 0); len(got) != 0 {
		t.Fatal("max == 0 yielded pairs")
	}
	// The sentinel includes MaxUint64 itself.
	if err := alt.Insert(^uint64(0), 77); err != nil {
		t.Fatal(err)
	}
	got = alt.ScanAppend(nil, ^uint64(0), ^uint64(0), 5)
	if len(got) != 1 || got[0].Key != ^uint64(0) || got[0].Value != 77 {
		t.Fatalf("sentinel window at MaxUint64 = %v, want the max key", got)
	}
	// Appending preserves an existing prefix.
	pre := []index.KV{{Key: 1, Value: 2}}
	got = alt.ScanAppend(pre, keys[0], keys[0]+1, 10)
	if len(got) != 2 || got[0] != pre[0] || got[1].Key != keys[0] {
		t.Fatalf("append clobbered the prefix: %v", got)
	}
}

// TestScanAppendZeroAlloc asserts the bounded scan allocates nothing once
// the destination and the pooled scratch are warm — the property the
// server's streaming SCAN and the relational pushdown path rely on.
func TestScanAppendZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime drops sync.Pool puts by design; alloc counts are meaningless")
	}
	keys, _, _ := twoClusterKeys()
	alt := mustBulk(t, Options{ErrorBound: 64, DisableRetraining: true}, keys)
	for i := 0; i < 64; i++ { // a few ART residents so the merge runs
		k := 10_003 + uint64(i)*14
		if err := alt.Insert(k, k); err != nil {
			t.Fatal(err)
		}
	}
	dst := make([]index.KV, 0, 1024)
	// Warm the scan buffer pool.
	dst = alt.ScanAppend(dst[:0], 0, ^uint64(0), 1000)
	if len(dst) == 0 {
		t.Fatal("warmup scan empty")
	}
	allocs := testing.AllocsPerRun(50, func() {
		dst = alt.ScanAppend(dst[:0], 9_000, 1<<41, 1000)
	})
	if allocs != 0 {
		t.Fatalf("ScanAppend allocated %.1f objects/op, want 0", allocs)
	}
}

// TestScanDedupPrefersLearned plants the same key in both layers with
// different values and checks the merge emits exactly one copy, the
// learned one. The planted state is one the index never holds (invariant
// 1); the merge meets it when a slot is reused between a scan's two reads,
// which TestScanDedupAcrossSlotReuse replays.
func TestScanDedupPrefersLearned(t *testing.T) {
	keys, _, _ := twoClusterKeys()
	alt := mustBulk(t, Options{ErrorBound: 64, DisableRetraining: true}, keys)
	dup := keys[100]
	alt.tree.Put(dup, 0xDEAD)                    // a second copy, in ART
	dst := alt.ScanAppend(nil, dup-2, dup+2, 10) // keys stride by 2
	if len(dst) != 2 || dst[0].Key != dup-2 || dst[1].Key != dup {
		t.Fatalf("dup window = %v, want [%d %d]", dst, dup-2, dup)
	}
	if dst[1].Value != dataset.ValueFor(dup) {
		t.Fatalf("dedup kept the ART copy: key %d value %#x", dup, dst[1].Value)
	}
}

// TestScanAppendUnderWriters races bounded scans against writers churning
// interleaved keys. Every scan must stay strictly ascending and inside its
// window, immutable sentinel keys inside the window must always surface
// with their exact bulkloaded value, and writer-owned keys must carry a
// well-formed value — the conformance contract under concurrency.
func TestScanAppendUnderWriters(t *testing.T) {
	const (
		stride  = 8
		grid    = 1 << 12
		writers = 3
	)
	// Sentinels at i*stride; writer keys at i*stride+1..3 churn around them.
	var pairs []index.KV
	for i := uint64(0); i < grid; i++ {
		pairs = append(pairs, index.KV{Key: i * stride, Value: i*stride + 1})
	}
	alt := New(Options{ErrorBound: 32})
	defer alt.Close()
	if err := alt.Bulkload(pairs); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var writeOps atomic.Int64
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := xrand.New(uint64(1000 + w))
			for {
				select {
				case <-stop:
					return
				default:
				}
				k := uint64(rng.Intn(grid))*stride + 1 + uint64(w)
				switch rng.Intn(3) {
				case 0:
					_ = alt.Insert(k, k+1)
				case 1:
					alt.Update(k, k+1)
				case 2:
					alt.Remove(k)
				}
				writeOps.Add(1)
			}
		}(w)
	}

	// Make sure the writers are actually churning before the first scan
	// (on one core the tight trial loop can otherwise finish first).
	for writeOps.Load() < 64 {
		runtime.Gosched()
	}
	rng := xrand.New(5)
	dst := make([]index.KV, 0, 2048)
	for trial := 0; trial < 400; trial++ {
		start := uint64(rng.Intn(grid*stride + stride))
		end := start + uint64(1+rng.Intn(grid*stride/4))
		if trial%9 == 0 {
			end = ^uint64(0)
		}
		max := 1 + rng.Intn(1024)
		dst = alt.ScanAppend(dst[:0], start, end, max)
		// Structural invariants under concurrency.
		for i, kv := range dst {
			if kv.Key < start || (end != ^uint64(0) && kv.Key >= end) {
				t.Fatalf("scan [%d,%d) emitted out-of-window key %d", start, end, kv.Key)
			}
			if i > 0 && kv.Key <= dst[i-1].Key {
				t.Fatalf("scan [%d,%d) not strictly ascending: %d after %d",
					start, end, kv.Key, dst[i-1].Key)
			}
			if kv.Key%stride == 0 {
				if kv.Value != kv.Key+1 {
					t.Fatalf("sentinel %d carries %d, want %d", kv.Key, kv.Value, kv.Key+1)
				}
			} else if kv.Value != kv.Key+1 {
				t.Fatalf("writer key %d carries %d, want %d", kv.Key, kv.Value, kv.Key+1)
			}
		}
		// Completeness: every in-window sentinel at or below the last
		// emitted key must have been emitted (sentinels are immutable, so
		// no concurrent interleaving excuses a miss).
		if len(dst) > 0 {
			si := 0
			for s := (start + stride - 1) / stride * stride; s <= dst[len(dst)-1].Key; s += stride {
				for si < len(dst) && dst[si].Key < s {
					si++
				}
				if si >= len(dst) || dst[si].Key != s {
					t.Fatalf("scan [%d,%d) missed immutable sentinel %d", start, end, s)
				}
			}
		}
	}
	close(stop)
	wg.Wait()
	if writeOps.Load() == 0 {
		t.Fatal("writers never ran")
	}
}
