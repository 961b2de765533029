package art

import (
	"math/rand"
	"sort"
	"sync"
	"testing"

	"altindex/internal/index"
)

// removeRangeRef removes [lo,hi] from a reference map and returns the
// removed pairs in ascending key order.
func removeRangeRef(ref map[uint64]uint64, lo, hi uint64) []index.KV {
	var out []index.KV
	for k, v := range ref {
		if k >= lo && k <= hi {
			out = append(out, index.KV{Key: k, Value: v})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	for _, kv := range out {
		delete(ref, kv.Key)
	}
	return out
}

// checkAgainstRef audits tree contents against the reference map.
func checkAgainstRef(t *testing.T, tr *Tree, ref map[uint64]uint64) {
	t.Helper()
	if tr.Len() != len(ref) {
		t.Fatalf("Len = %d, want %d", tr.Len(), len(ref))
	}
	for k, v := range ref {
		got, ok := tr.Get(k)
		if !ok || got != v {
			t.Fatalf("Get(%d) = (%d,%v), want %d", k, got, ok, v)
		}
	}
	var keys []uint64
	seen := 0
	index.Walk(tr, 0, ^uint64(0), len(ref)+8, func(k, v uint64) bool {
		if wv, ok := ref[k]; !ok {
			t.Fatalf("scan ghost key %d", k)
		} else if wv != v {
			t.Fatalf("scan value mismatch at %d: %d want %d", k, v, wv)
		}
		keys = append(keys, k)
		seen++
		return true
	})
	if seen != len(ref) {
		t.Fatalf("scan visited %d keys, want %d", seen, len(ref))
	}
	for i := 1; i < len(keys); i++ {
		if keys[i] <= keys[i-1] {
			t.Fatalf("scan order violation: %d after %d", keys[i], keys[i-1])
		}
	}
}

func TestRemoveRange(t *testing.T) {
	rng := rand.New(rand.NewSource(0xA17))
	// Key mix that exercises every node kind and prefix compression:
	// dense runs (node256 fan-out), sparse clusters sharing long prefixes
	// (compressed paths), and keys near the uint64 extremes.
	var all []uint64
	for i := uint64(0); i < 2000; i++ {
		all = append(all, i*3)
	}
	for i := uint64(0); i < 500; i++ {
		all = append(all, 0xDEAD_0000_0000+i*17)
	}
	for i := 0; i < 1500; i++ {
		all = append(all, rng.Uint64())
	}
	all = append(all, 0, 1, ^uint64(0), ^uint64(0)-1)

	windows := []struct{ lo, hi uint64 }{
		{100, 100},                         // single key window
		{0, 2999},                          // dense prefix of the grid
		{1500, 0xDEAD_0000_0100},           // spans grid tail + cluster head
		{0xDEAD_0000_0000, ^uint64(0)},     // everything from the cluster up
		{5, 4},                             // inverted: no-op
		{2999*3 + 1, 0xDEAD_0000_0000 - 1}, // likely-sparse middle band
		{0, ^uint64(0)},                    // full wipe
	}

	for wi, w := range windows {
		tr := New(nil)
		ref := make(map[uint64]uint64, len(all))
		for _, k := range all {
			v := k ^ 0x5A5A
			tr.Put(k, v)
			ref[k] = v
		}
		got := tr.RemoveRange(w.lo, w.hi, nil)
		want := removeRangeRef(ref, w.lo, w.hi)
		if len(got) != len(want) {
			t.Fatalf("window %d [%d,%d]: removed %d pairs, want %d", wi, w.lo, w.hi, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("window %d: removed[%d] = %+v, want %+v", wi, i, got[i], want[i])
			}
		}
		checkAgainstRef(t, tr, ref)
	}
}

func TestRemoveRangeIncremental(t *testing.T) {
	// Many successive removals against one tree, reference-checked after
	// each, so shapes produced by earlier removals are re-exercised.
	rng := rand.New(rand.NewSource(0xBEEF))
	tr := New(nil)
	ref := make(map[uint64]uint64)
	for i := 0; i < 6000; i++ {
		k := uint64(rng.Intn(1 << 20))
		tr.Put(k, k+1)
		ref[k] = k + 1
	}
	for step := 0; step < 40 && len(ref) > 0; step++ {
		lo := uint64(rng.Intn(1 << 20))
		hi := lo + uint64(rng.Intn(1<<15))
		got := tr.RemoveRange(lo, hi, nil)
		want := removeRangeRef(ref, lo, hi)
		if len(got) != len(want) {
			t.Fatalf("step %d [%d,%d]: removed %d, want %d", step, lo, hi, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("step %d: removed[%d] = %+v, want %+v", step, i, got[i], want[i])
			}
		}
		// Reinsert a few keys so later windows hit rebuilt regions.
		for j := 0; j < 50; j++ {
			k := uint64(rng.Intn(1 << 20))
			tr.Put(k, k+1)
			ref[k] = k + 1
		}
	}
	checkAgainstRef(t, tr, ref)
}

func TestRemoveRangeEdges(t *testing.T) {
	tr := New(nil)
	if out := tr.RemoveRange(0, ^uint64(0), nil); len(out) != 0 {
		t.Fatalf("empty tree removed %d pairs", len(out))
	}
	tr.Put(42, 1)
	if out := tr.RemoveRange(43, 100, nil); len(out) != 0 || tr.Len() != 1 {
		t.Fatalf("leaf root outside window: removed %d, len %d", len(out), tr.Len())
	}
	if out := tr.RemoveRange(40, 44, nil); len(out) != 1 || out[0].Key != 42 || tr.Len() != 0 {
		t.Fatalf("leaf root inside window: removed %v, len %d", out, tr.Len())
	}
	if _, ok := tr.Get(42); ok {
		t.Fatal("removed leaf root still readable")
	}
	// dst is appended to, not replaced.
	tr.Put(7, 70)
	pre := []index.KV{{Key: 1, Value: 2}}
	out := tr.RemoveRange(0, 10, pre)
	if len(out) != 2 || out[0].Key != 1 || out[1].Key != 7 {
		t.Fatalf("dst append broken: %v", out)
	}
}

// TestRemoveRangeConcurrentOutside runs RemoveRange while writers churn
// keys strictly outside the window: the removal must be exact for the
// window and the outside churn must survive untouched. Run with -race.
func TestRemoveRangeConcurrentOutside(t *testing.T) {
	const (
		loWin   = uint64(1 << 20)
		hiWin   = uint64(1<<21) - 1
		inside  = 4000
		writers = 4
	)
	tr := New(nil)
	insideWant := make(map[uint64]uint64, inside)
	rng := rand.New(rand.NewSource(0xC0DE))
	for i := 0; i < inside; i++ {
		k := loWin + uint64(rng.Intn(int(hiWin-loWin)))
		tr.Put(k, k^0xFF)
		insideWant[k] = k ^ 0xFF
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(w) + 99))
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				// Below and above the window, never inside.
				k := uint64(r.Intn(1 << 19))
				if i&1 == 1 {
					k += 1 << 22
				}
				if i%3 == 0 {
					tr.Remove(k)
				} else {
					tr.Put(k, k)
				}
			}
		}(w)
	}

	var removed []index.KV
	for i := 0; i < 20; i++ {
		removed = tr.RemoveRange(loWin, hiWin, removed)
	}
	close(stop)
	wg.Wait()

	if len(removed) != len(insideWant) {
		t.Fatalf("removed %d in-window pairs, want %d", len(removed), len(insideWant))
	}
	for i, kv := range removed {
		if i > 0 && kv.Key <= removed[i-1].Key {
			t.Fatalf("removal emission out of order: %d after %d", kv.Key, removed[i-1].Key)
		}
		if want, ok := insideWant[kv.Key]; !ok || want != kv.Value {
			t.Fatalf("removed unexpected pair %+v", kv)
		}
	}
	for k := range insideWant {
		if _, ok := tr.Get(k); ok {
			t.Fatalf("in-window key %d survived RemoveRange", k)
		}
	}
	// Outside keys that exist must still scan in order.
	var prev uint64
	n := 0
	index.Walk(tr, 0, ^uint64(0), 1<<30, func(k, v uint64) bool {
		if n > 0 && k <= prev {
			t.Fatalf("post-removal scan order violation: %d after %d", k, prev)
		}
		if k >= loWin && k <= hiWin {
			t.Fatalf("ghost in-window key %d in scan", k)
		}
		prev = k
		n++
		return true
	})
}

// TestRemoveRangeConcurrentOverlap races in-window writers against
// RemoveRange. Exactness is impossible (documented semantics: a racing
// insert may survive), but the tree must stay structurally consistent:
// every surviving key readable and scannable in order, Len agreeing with a
// full scan, no torn values. Run with -race.
func TestRemoveRangeConcurrentOverlap(t *testing.T) {
	const writers = 4
	tr := New(nil)
	for i := uint64(0); i < 8000; i++ {
		tr.Put(i*7, i)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(w) + 7))
			for {
				select {
				case <-stop:
					return
				default:
				}
				k := uint64(r.Intn(8000)) * 7
				switch r.Intn(3) {
				case 0:
					tr.Remove(k)
				default:
					tr.Put(k, k|1)
				}
			}
		}(w)
	}
	for i := 0; i < 50; i++ {
		lo := uint64(i%10) * 5000
		tr.RemoveRange(lo, lo+4999, nil)
	}
	close(stop)
	wg.Wait()
	checkConsistent(t, tr)
}

// checkConsistent audits a quiescent tree whose exact contents a race left
// open: a full scan is strictly ascending, every scanned key is readable
// with the scanned value, and Len agrees with the scan.
func checkConsistent(t *testing.T, tr *Tree) {
	t.Helper()
	n := 0
	var prev uint64
	index.Walk(tr, 0, ^uint64(0), 1<<30, func(k, v uint64) bool {
		if n > 0 && k <= prev {
			t.Fatalf("scan order violation: %d after %d", k, prev)
		}
		if got, ok := tr.Get(k); !ok || got != v {
			t.Fatalf("scanned key %d unreadable: (%d,%v) want %d", k, got, ok, v)
		}
		prev = k
		n++
		return true
	})
	if tr.Len() != n {
		t.Fatalf("Len = %d but scan found %d", tr.Len(), n)
	}
}
