package index_test

import (
	"cmp"
	"math"
	"slices"
	"testing"

	"altindex/internal/core"
	"altindex/internal/dataset"
	"altindex/internal/index"
)

// pulls records every ScanAppend call Walk makes: the start and the max it
// asked for.
type pulls struct {
	index.Concurrent
	starts []uint64
	maxes  []int
}

func (p *pulls) ScanAppend(dst []index.KV, start, end uint64, max int) []index.KV {
	p.starts = append(p.starts, start)
	p.maxes = append(p.maxes, max)
	return p.Concurrent.ScanAppend(dst, start, end, max)
}

// loaded returns a quiescent ALT holding keys, closed with the test.
func loaded(t *testing.T, keys []uint64) *core.ALT {
	t.Helper()
	alt := core.New(core.Options{DisableRetraining: true})
	t.Cleanup(func() { alt.Close() })
	if err := alt.Bulkload(dataset.Pairs(keys)); err != nil {
		t.Fatal(err)
	}
	return alt
}

// walked collects what Walk visits and the count it returns.
func walked(ix index.Concurrent, start, end uint64, max int) ([]index.KV, int) {
	var got []index.KV
	n := index.Walk(ix, start, end, max, func(k, v uint64) bool {
		got = append(got, index.KV{Key: k, Value: v})
		return true
	})
	return got, n
}

func TestWalkMaxBelowAndAboveOneBatch(t *testing.T) {
	keys := dataset.Generate(dataset.OSM, 4000, 1)
	ref := dataset.Pairs(keys)
	alt := loaded(t, keys)
	for _, tc := range []struct {
		max   int
		pulls []int // the max of each ScanAppend call
	}{
		{100, []int{100}},
		{index.WalkBatch, []int{index.WalkBatch}},
		{index.WalkBatch + 1, []int{index.WalkBatch, 1}},
		{3*index.WalkBatch + 17, []int{index.WalkBatch, index.WalkBatch, index.WalkBatch, 17}},
	} {
		p := &pulls{Concurrent: alt}
		got, n := walked(p, keys[10], ^uint64(0), tc.max)
		if want := ref[10 : 10+tc.max]; n != tc.max || !slices.Equal(got, want) {
			t.Fatalf("max %d: visited %d (returned %d), want the %d pairs from keys[10]", tc.max, len(got), n, len(want))
		}
		if !slices.Equal(p.maxes, tc.pulls) {
			t.Fatalf("max %d: pulls asked for %v, want %v", tc.max, p.maxes, tc.pulls)
		}
		for i := 1; i < len(p.starts); i++ {
			if last := got[i*index.WalkBatch-1].Key; p.starts[i] != last+1 {
				t.Fatalf("max %d: pull %d resumed at %d, want %d", tc.max, i, p.starts[i], last+1)
			}
		}
	}
	// A window or keyspace that runs out ends the walk on its short pull.
	p := &pulls{Concurrent: alt}
	got, n := walked(p, 0, keys[600], math.MaxInt)
	if n != 600 || !slices.Equal(got, ref[:600]) || len(p.maxes) != 600/index.WalkBatch+1 {
		t.Fatalf("bounded window: visited %d in %d pulls, want 600 in %d", n, len(p.maxes), 600/index.WalkBatch+1)
	}
	if got, n := walked(alt, 0, ^uint64(0), math.MaxInt); n != len(keys) || !slices.Equal(got, ref) {
		t.Fatalf("whole keyspace: visited %d, want %d", n, len(keys))
	}
}

func TestWalkEarlyStopMidBatch(t *testing.T) {
	keys := dataset.Generate(dataset.Libio, 2000, 2)
	alt := loaded(t, keys)
	p := &pulls{Concurrent: alt}
	stopAt := index.WalkBatch + index.WalkBatch/2
	calls := 0
	n := index.Walk(p, 0, ^uint64(0), math.MaxInt, func(k, v uint64) bool {
		if k != keys[calls] {
			t.Fatalf("call %d visited %d, want %d", calls, k, keys[calls])
		}
		calls++
		return calls < stopAt
	})
	if n != stopAt || calls != stopAt {
		t.Fatalf("Walk returned %d after %d calls, want %d: the call that stops counts", n, calls, stopAt)
	}
	if len(p.maxes) != 2 {
		t.Fatalf("%d pulls, want 2: a stop must not pull again", len(p.maxes))
	}
	if n := index.Walk(alt, 0, ^uint64(0), 0, func(uint64, uint64) bool { t.Fatal("max 0 visited a pair"); return true }); n != 0 {
		t.Fatalf("max 0 returned %d", n)
	}
}

// TestWalkEndsAtMaxUint64 walks windows whose last key is MaxUint64: the
// walk includes it and terminates, also when it ends a full pull, where
// resuming at last+1 would wrap to 0.
func TestWalkEndsAtMaxUint64(t *testing.T) {
	keys := make([]uint64, 0, index.WalkBatch+8)
	for i := cap(keys) - 1; i >= 0; i-- {
		keys = append(keys, ^uint64(0)-uint64(i))
	}
	alt := loaded(t, keys)
	ref := dataset.Pairs(keys)
	for _, start := range []uint64{0, keys[8], keys[len(keys)-1]} {
		p := &pulls{Concurrent: alt}
		// A bounded max turns a walk that wraps past MaxUint64 into a
		// failure instead of a hang.
		got, _ := walked(p, start, ^uint64(0), 2*len(keys))
		i, _ := slices.BinarySearchFunc(ref, start, func(kv index.KV, k uint64) int { return cmp.Compare(kv.Key, k) })
		if !slices.Equal(got, ref[i:]) {
			t.Fatalf("from %d: visited %d pairs, want the %d through MaxUint64", start, len(got), len(ref)-i)
		}
		if start == keys[8] && len(p.maxes) != 1 {
			t.Fatalf("a full pull ending at MaxUint64 pulled %d times, want 1", len(p.maxes))
		}
	}
}

// TestWalkFnUpdatesIndex is the Vacuum shape: fn writes to the index it
// walks. Each visited key is updated exactly once, and the walk still sees
// every key once.
func TestWalkFnUpdatesIndex(t *testing.T) {
	keys := dataset.Generate(dataset.FB, 3000, 3)
	alt := loaded(t, keys)
	seen := 0
	n := index.Walk(alt, 0, ^uint64(0), math.MaxInt, func(k, v uint64) bool {
		if k != keys[seen] || v != dataset.ValueFor(k) {
			t.Fatalf("visit %d: (%d, %d), want (%d, ValueFor)", seen, k, v, keys[seen])
		}
		seen++
		if !alt.Update(k, v+1) {
			t.Fatalf("Update(%d) inside the walk failed", k)
		}
		return true
	})
	if n != len(keys) {
		t.Fatalf("walked %d of %d keys", n, len(keys))
	}
	for _, k := range keys {
		if v, _ := alt.Get(k); v != dataset.ValueFor(k)+1 {
			t.Fatalf("key %d = %d after the walk, want one update", k, v)
		}
	}
}

func TestWalkZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime drops sync.Pool puts by design; alloc counts are meaningless")
	}
	keys := dataset.Generate(dataset.OSM, 4000, 4)
	alt := loaded(t, keys)
	var sum uint64
	walk := func() {
		index.Walk(alt, keys[100], ^uint64(0), 3*index.WalkBatch, func(k, v uint64) bool {
			sum += v
			return true
		})
	}
	walk() // warm the pools
	if allocs := testing.AllocsPerRun(50, walk); allocs != 0 {
		t.Fatalf("Walk allocated %.1f objects/op, want 0", allocs)
	}
	iterate := func() {
		for _, v := range index.Range(alt, keys[100]) {
			if sum += v; sum%7 == 0 {
				break
			}
		}
	}
	iterate()
	if allocs := testing.AllocsPerRun(50, iterate); allocs != 0 {
		t.Fatalf("Range allocated %.1f objects/op, want 0", allocs)
	}
}
