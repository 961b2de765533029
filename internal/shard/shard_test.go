package shard

import (
	"maps"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"altindex/internal/core"
	"altindex/internal/index"
)

func pairsOf(keys []uint64) []index.KV {
	out := make([]index.KV, len(keys))
	for i, k := range keys {
		out[i] = index.KV{Key: k, Value: k * 3}
	}
	return out
}

func sortedKeys(n int, seed int64) []uint64 {
	r := rand.New(rand.NewSource(seed))
	m := map[uint64]struct{}{}
	for len(m) < n {
		m[r.Uint64()] = struct{}{}
	}
	keys := make([]uint64, 0, n)
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// TestShardRouterMatchesSearch checks the branch-free probe ladder against
// the reference upper-bound binary search for every shard count and a mix
// of random, boundary and extreme keys.
func TestShardRouterMatchesSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for s := 1; s <= MaxShards; s++ {
		bounds := make([]uint64, s-1)
		for i := range bounds {
			bounds[i] = rng.Uint64()
		}
		sort.Slice(bounds, func(i, j int) bool { return bounds[i] < bounds[j] })
		ix := New(core.Options{Shards: s})
		if got := ix.Shards(); got != s {
			t.Fatalf("Shards() = %d, want %d", got, s)
		}
		// Install the random bounds directly so the probe array under
		// test is arbitrary, not equal-width.
		old := ix.route.Load()
		r := ix.newRouting(bounds)
		ix.route.Store(r)
		for _, shard := range old.ixs {
			shard.Close()
		}
		probe := make([]uint64, 0, 2*s+64)
		for i := 0; i < 64; i++ {
			probe = append(probe, rng.Uint64())
		}
		probe = append(probe, 0, 1, ^uint64(0), ^uint64(0)-1)
		for _, b := range bounds {
			probe = append(probe, b, b-1, b+1)
		}
		for _, k := range probe {
			want := sort.Search(len(bounds), func(i int) bool { return bounds[i] > k })
			if want > r.last {
				want = r.last
			}
			if got := r.shardOf(k); got != want {
				t.Fatalf("s=%d shardOf(%d) = %d, want %d (bounds %v)", s, k, got, want, bounds)
			}
		}
		ix.Close()
	}
}

// TestShardBulkloadBalance checks that CDF-quantile boundaries spread a
// skewed dataset evenly: after bulkloading, every shard holds within 20%
// of the mean key count.
func TestShardBulkloadBalance(t *testing.T) {
	// Clustered keys: a distribution equal-width bounds would hash to one
	// or two shards.
	var keys []uint64
	base := uint64(1) << 40
	for i := 0; i < 50000; i++ {
		keys = append(keys, base+uint64(i)*7)
	}
	for _, s := range []int{2, 5, 8} {
		ix := New(core.Options{Shards: s})
		if err := ix.Bulkload(pairsOf(keys)); err != nil {
			t.Fatal(err)
		}
		r := ix.route.Load()
		mean := len(keys) / s
		for i, ix := range r.ixs {
			n := ix.Len()
			if n < mean*8/10 || n > mean*12/10 {
				t.Fatalf("s=%d shard %d holds %d keys, mean %d", s, i, n, mean)
			}
		}
		ix.Close()
	}
}

// TestShardBulkloadUnsortedRejected checks a bad load leaves prior
// contents untouched.
func TestShardBulkloadUnsortedRejected(t *testing.T) {
	ix := New(core.Options{Shards: 4})
	defer ix.Close()
	if err := ix.Bulkload(pairsOf([]uint64{10, 20, 30})); err != nil {
		t.Fatal(err)
	}
	if err := ix.Bulkload([]index.KV{{Key: 5, Value: 1}, {Key: 4, Value: 2}}); err != index.ErrUnsortedBulk {
		t.Fatalf("unsorted bulkload: err = %v, want ErrUnsortedBulk", err)
	}
	if ix.Len() != 3 {
		t.Fatalf("failed bulkload disturbed contents: Len = %d, want 3", ix.Len())
	}
	if v, ok := ix.Get(20); !ok || v != 60 {
		t.Fatalf("Get(20) = (%d,%v) after failed bulkload", v, ok)
	}
}

// TestShardScanStitch checks scans concatenate across shard boundaries in
// order, honor the budget, and stop early when the callback declines.
func TestShardScanStitch(t *testing.T) {
	keys := sortedKeys(20000, 4)
	ix := New(core.Options{Shards: 7})
	defer ix.Close()
	if err := ix.Bulkload(pairsOf(keys)); err != nil {
		t.Fatal(err)
	}
	starts := []uint64{0, keys[0], keys[len(keys)/2] + 1, keys[len(keys)-1], ^uint64(0)}
	r := ix.route.Load()
	for _, b := range r.pad[:r.last] {
		starts = append(starts, b-1, b, b+1)
	}
	for _, start := range starts {
		for _, n := range []int{1, 100, 5000} {
			var got []uint64
			ret := index.Walk(ix, start, ^uint64(0), n, func(k, v uint64) bool {
				if v != k*3 {
					t.Fatalf("Scan value mismatch at %d", k)
				}
				got = append(got, k)
				return true
			})
			if ret != len(got) {
				t.Fatalf("Scan returned %d, visited %d", ret, len(got))
			}
			first := sort.Search(len(keys), func(i int) bool { return keys[i] >= start })
			want := keys[first:]
			if len(want) > n {
				want = want[:n]
			}
			if len(got) != len(want) {
				t.Fatalf("Scan(%d,%d) visited %d keys, want %d", start, n, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("Scan(%d,%d)[%d] = %d, want %d", start, n, i, got[i], want[i])
				}
			}
		}
	}
	// Early stop: callback declines after 3 pairs.
	seen := 0
	index.Walk(ix, 0, ^uint64(0), 1000, func(uint64, uint64) bool {
		seen++
		return seen < 3
	})
	if seen != 3 {
		t.Fatalf("early-stop scan visited %d pairs, want 3", seen)
	}
}

// TestShardRange checks the iterator form agrees with Scan across shard
// boundaries.
func TestShardRange(t *testing.T) {
	keys := sortedKeys(3000, 5)
	ix := New(core.Options{Shards: 4})
	defer ix.Close()
	if err := ix.Bulkload(pairsOf(keys)); err != nil {
		t.Fatal(err)
	}
	i := 1000
	for k, v := range index.Range(ix, keys[1000]) {
		if k != keys[i] || v != k*3 {
			t.Fatalf("Range[%d] = (%d,%d), want (%d,%d)", i, k, v, keys[i], keys[i]*3)
		}
		i++
	}
	if i != len(keys) {
		t.Fatalf("Range visited %d keys, want %d", i-1000, len(keys)-1000)
	}
}

// TestShardStatsAggregation checks StatsMap sums the shards' counters
// into one view of the index.
func TestShardStatsAggregation(t *testing.T) {
	keys := sortedKeys(8000, 6)
	ix := New(core.Options{Shards: 4})
	defer ix.Close()
	if err := ix.Bulkload(pairsOf(keys)); err != nil {
		t.Fatal(err)
	}
	st := ix.StatsMap()
	if st["learned_keys"]+st["art_keys"] != int64(ix.Len()) {
		t.Fatalf("layer keys sum to %d, want %d", st["learned_keys"]+st["art_keys"], ix.Len())
	}
	want := map[string]int64{}
	for _, shard := range ix.route.Load().ixs {
		for k, v := range shard.StatsMap() {
			if strings.HasSuffix(k, "_max_ns") {
				want[k] = max(want[k], v)
			} else {
				want[k] += v
			}
		}
	}
	if !maps.Equal(st, want) {
		t.Fatalf("StatsMap = %v, want the shards' counters summed (high-water keys maxed): %v", st, want)
	}
}

// TestShardBatchAcrossBoundaries checks the counting-sort split: batches
// spanning every shard, with duplicates (last-writer-wins), at sizes on
// both sides of core's per-key cutoff and well past one pipeline chunk.
func TestShardBatchAcrossBoundaries(t *testing.T) {
	keys := sortedKeys(10000, 7)
	ix := New(core.Options{Shards: 7})
	defer ix.Close()
	if err := ix.Bulkload(pairsOf(keys)); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	// 7 and 8 straddle core's batchMin (8); 2048 and 2061 are the sizes
	// that once took a per-shard goroutine path instead of one core call.
	for _, n := range []int{1, 7, 8, 100, 2048, 2061} {
		// Mixed present/absent lookups in random order.
		q := make([]uint64, n)
		for i := range q {
			if rng.Intn(2) == 0 {
				q[i] = keys[rng.Intn(len(keys))]
			} else {
				q[i] = rng.Uint64() | 1<<63
			}
		}
		vals := make([]uint64, n)
		found := make([]bool, n)
		ix.GetBatch(q, vals, found)
		for i, k := range q {
			wv, wok := ix.Get(k)
			if found[i] != wok || (wok && vals[i] != wv) {
				t.Fatalf("n=%d GetBatch[%d] key %d = (%d,%v), want (%d,%v)",
					n, i, k, vals[i], found[i], wv, wok)
			}
		}
		// Upserts with duplicate keys: the last write must win.
		pairs := make([]index.KV, n)
		for i := range pairs {
			pairs[i] = index.KV{Key: keys[rng.Intn(2000)], Value: uint64(i)}
		}
		if err := ix.InsertBatch(pairs); err != nil {
			t.Fatalf("n=%d InsertBatch: %v", n, err)
		}
		want := map[uint64]uint64{}
		for _, kv := range pairs {
			want[kv.Key] = kv.Value
		}
		for k, v := range want {
			if got, ok := ix.Get(k); !ok || got != v {
				t.Fatalf("n=%d after InsertBatch Get(%d) = (%d,%v), want %d", n, k, got, ok, v)
			}
		}
	}
}

// TestShardClampCounts checks out-of-range shard requests clamp instead of
// failing.
func TestShardClampCounts(t *testing.T) {
	for req, want := range map[int]int{-3: 1, 0: 1, 1: 1, 64: 64, 200: 64} {
		ix := New(core.Options{Shards: req})
		if got := ix.Shards(); got != want {
			t.Fatalf("Shards=%d clamped to %d, want %d", req, got, want)
		}
		ix.Close()
	}
}

// evenIndex bulk-loads evenly spaced keys into a 4-shard index. They fit
// their models exactly, so every key is a slot resident: a conflict key
// would live in ART, where a re-insert after Remove allocates a leaf by
// design. next walks the keys in a scattered order.
func evenIndex(t *testing.T) (s *ALT, next func() uint64) {
	keys := make([]uint64, 40000)
	for i := range keys {
		keys[i] = uint64(i)*64 + 1
	}
	s = New(core.Options{Shards: 4, DisableRetraining: true})
	t.Cleanup(func() { s.Close() })
	if err := s.Bulkload(pairsOf(keys)); err != nil {
		t.Fatal(err)
	}
	i := 0
	return s, func() uint64 { i++; return keys[i*7919%len(keys)] }
}

// TestShardPointOpsDoNotAllocate pins the warmed point operations at zero
// allocations through the shard router, as core pins them below it.
func TestShardPointOpsDoNotAllocate(t *testing.T) {
	s, next := evenIndex(t)
	ops := map[string]func(){
		"Get":    func() { s.Get(next()) },
		"Update": func() { s.Update(next(), 1) },
		"Insert": func() { _ = s.Insert(next(), 2) }, // upsert of a loaded key
		"Remove": func() { k := next(); s.Remove(k); _ = s.Insert(k, 3) },
	}
	for name, op := range ops {
		op() // warm: keeps any first-call cost out of the count
		if n := testing.AllocsPerRun(2000, op); n != 0 {
			t.Errorf("%s allocates %.1f times per op, want 0", name, n)
		}
	}
}

// batchSizes are the sizes the zero-alloc batch tests pin: the suite's
// 64 and a batch many pipeline chunks long.
var batchSizes = []int{64, 4096}

// TestInsertBatchDoesNotAllocate pins one warmed batch spanning all four
// shards, in a caller-owned buffer, at zero allocations: the pooled split
// scratch keeps the router's share at 0 and core's pooled chunk scratch
// the pipeline's.
func TestInsertBatchDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime drops sync.Pool puts on purpose")
	}
	s, next := evenIndex(t)
	for _, b := range batchSizes {
		bp := make([]index.KV, b)
		op := func() {
			for j := range bp {
				bp[j] = index.KV{Key: next(), Value: 4}
			}
			if err := s.InsertBatch(bp); err != nil {
				t.Fatal(err)
			}
		}
		op() // warm: the first call allocates both pooled scratches
		if n := testing.AllocsPerRun(128*1024/b, op); n != 0 {
			t.Errorf("InsertBatch(%d) allocates %.1f times per call, want 0", b, n)
		}
	}
}

// TestGetBatchDoesNotAllocate is its read twin: the split groups go to
// core in one call and the results scatter in place, with no per-shard
// closure or goroutine to allocate.
func TestGetBatchDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime drops sync.Pool puts on purpose")
	}
	s, next := evenIndex(t)
	for _, b := range batchSizes {
		keys, vals, found := make([]uint64, b), make([]uint64, b), make([]bool, b)
		op := func() {
			for j := range keys {
				keys[j] = next()
			}
			s.GetBatch(keys, vals, found)
			if !found[0] || !found[b-1] {
				t.Fatal("a loaded key was not found")
			}
		}
		op()
		if n := testing.AllocsPerRun(128*1024/b, op); n != 0 {
			t.Errorf("GetBatch(%d) allocates %.1f times per call, want 0", b, n)
		}
	}
}
