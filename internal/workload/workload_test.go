package workload

import (
	"testing"

	"altindex/internal/dataset"
)

func TestMixesSumTo100(t *testing.T) {
	for _, m := range append(Mixes(), ScanOnly) {
		if s := m.Get + m.Insert + m.Update + m.Remove + m.Scan; s != 100 {
			t.Fatalf("%s sums to %d", m.Name, s)
		}
	}
}

func TestSplitLoadPartitions(t *testing.T) {
	keys := dataset.Generate(dataset.OSM, 10000, 1)
	loaded, pending := SplitLoad(keys, 0.5, 2)
	if len(loaded)+len(pending) != len(keys) {
		t.Fatalf("split lost keys: %d+%d != %d", len(loaded), len(pending), len(keys))
	}
	if len(loaded) != len(keys)/2 {
		t.Fatalf("loaded = %d, want %d", len(loaded), len(keys)/2)
	}
	for i := 1; i < len(loaded); i++ {
		if loaded[i] <= loaded[i-1] {
			t.Fatal("loaded not sorted")
		}
	}
	// Loaded and pending are disjoint and together equal the input.
	seen := make(map[uint64]bool, len(keys))
	for _, k := range loaded {
		seen[k] = true
	}
	for _, k := range pending {
		if seen[k] {
			t.Fatalf("key %d in both halves", k)
		}
		seen[k] = true
	}
	if len(seen) != len(keys) {
		t.Fatal("split dropped keys")
	}
	// Ratio edge cases. The split is in place, so each case gets a fresh
	// sorted input.
	l0, p0 := SplitLoad(dataset.Generate(dataset.OSM, 10000, 1), 0, 1)
	if len(l0) != 0 || len(p0) != len(keys) {
		t.Fatal("ratio 0 broken")
	}
	l1, p1 := SplitLoad(dataset.Generate(dataset.OSM, 10000, 1), 1, 1)
	if len(p1) != 0 || len(l1) != len(keys) {
		t.Fatal("ratio 1 broken")
	}
	for i := 1; i < len(l1); i++ {
		if l1[i] <= l1[i-1] {
			t.Fatal("ratio-1 loaded not sorted")
		}
	}
}

func TestHotSplitConsecutive(t *testing.T) {
	keys := dataset.Generate(dataset.Libio, 10000, 3)
	// The split consumes keys (loaded aliases its compacted front), so
	// compare against a snapshot of the original sorted array.
	orig := append([]uint64(nil), keys...)
	loaded, pending := HotSplit(keys, 0.2, 0)
	if len(pending) != 2000 {
		t.Fatalf("reserved %d, want 2000", len(pending))
	}
	if len(loaded)+len(pending) != len(orig) {
		t.Fatal("hot split lost keys")
	}
	for i := 1; i < len(pending); i++ {
		if pending[i] <= pending[i-1] {
			t.Fatal("reserved run not ascending (hot order)")
		}
	}
	// The reserved run is contiguous inside the original array.
	start := -1
	for i, k := range orig {
		if k == pending[0] {
			start = i
			break
		}
	}
	for i, k := range pending {
		if orig[start+i] != k {
			t.Fatal("reserved run not contiguous")
		}
	}
	// Loaded is the original minus the reserved middle, still sorted.
	for i := 1; i < len(loaded); i++ {
		if loaded[i] <= loaded[i-1] {
			t.Fatal("loaded not sorted after compaction")
		}
	}
	for i, k := range loaded {
		want := orig[i]
		if i >= start {
			want = orig[i+len(pending)]
		}
		if k != want {
			t.Fatalf("loaded[%d] = %d, want %d", i, k, want)
		}
	}
}

func TestStreamsDeterministicAndDisjoint(t *testing.T) {
	keys := dataset.Generate(dataset.FB, 20000, 4)
	loaded, pending := SplitLoad(keys, 0.5, 5)
	cfg := Config{Mix: Balanced, Threads: 4, Seed: 9}
	w1 := New(cfg, loaded, pending)
	w2 := New(cfg, loaded, pending)
	for tid := 0; tid < 4; tid++ {
		s1, s2 := w1.Stream(tid), w2.Stream(tid)
		for i := 0; i < 1000; i++ {
			if s1.Next() != s2.Next() {
				t.Fatalf("stream %d not deterministic at op %d", tid, i)
			}
		}
	}
	// Insert keys must never collide across threads, even past the
	// pending queues.
	w := New(cfg, loaded, pending)
	seen := map[uint64]int{}
	for tid := 0; tid < 4; tid++ {
		s := w.Stream(tid)
		for i := 0; i < len(pending); i++ {
			op := s.Next()
			if op.Kind != Insert {
				continue
			}
			if prev, dup := seen[op.Key]; dup {
				t.Fatalf("insert key %d from threads %d and %d", op.Key, prev, tid)
			}
			seen[op.Key] = tid
		}
	}
}

func TestMixProportions(t *testing.T) {
	keys := dataset.Generate(dataset.Libio, 10000, 6)
	loaded, pending := SplitLoad(keys, 0.5, 7)
	w := New(Config{Mix: ReadHeavy, Threads: 1, Seed: 1}, loaded, pending)
	s := w.Stream(0)
	counts := map[Kind]int{}
	const n = 20000
	for i := 0; i < n; i++ {
		counts[s.Next().Kind]++
	}
	gotGet := float64(counts[Get]) / n
	if gotGet < 0.77 || gotGet > 0.83 {
		t.Fatalf("read-heavy get fraction %.3f, want ~0.80", gotGet)
	}
	if counts[Scan] != 0 || counts[Remove] != 0 {
		t.Fatal("unexpected op kinds in read-heavy mix")
	}
}

func TestZipfSkewsReads(t *testing.T) {
	keys := dataset.Generate(dataset.Libio, 10000, 8)
	w := New(Config{Mix: ReadOnly, Threads: 1, Seed: 2, Theta: 0.99}, keys, nil)
	s := w.Stream(0)
	freq := map[uint64]int{}
	const n = 50000
	for i := 0; i < n; i++ {
		freq[s.Next().Key]++
	}
	maxFreq := 0
	for _, c := range freq {
		if c > maxFreq {
			maxFreq = c
		}
	}
	// Zipf θ=0.99 over 10k items: the hottest key gets a few percent of
	// all requests; uniform would give 0.01%.
	if float64(maxFreq)/n < 0.005 {
		t.Fatalf("hottest key only %.4f of requests; zipf not skewed", float64(maxFreq)/n)
	}
	if len(freq) < 100 {
		t.Fatalf("only %d distinct keys drawn", len(freq))
	}
}

func TestScanOpsCarryLength(t *testing.T) {
	keys := dataset.Generate(dataset.Libio, 1000, 9)
	w := New(Config{Mix: ScanOnly, Threads: 1, Seed: 3}, keys, nil)
	s := w.Stream(0)
	for i := 0; i < 100; i++ {
		op := s.Next()
		if op.Kind != Scan || op.N != 100 {
			t.Fatalf("scan op = %+v", op)
		}
	}
}

func TestPendingPerThread(t *testing.T) {
	keys := dataset.Generate(dataset.Libio, 1000, 10)
	w := New(Config{Mix: Balanced, Threads: 3, Seed: 1}, keys[:500], keys[500:])
	if got := w.PendingPerThread(); got != 166 {
		t.Fatalf("PendingPerThread = %d, want 166", got)
	}
}
