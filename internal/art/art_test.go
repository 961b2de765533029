package art

import (
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"altindex/internal/dataset"
	"altindex/internal/index"
)

func TestEmptyTree(t *testing.T) {
	tr := New(nil)
	if _, ok := tr.Get(42); ok {
		t.Fatal("Get on empty tree returned ok")
	}
	if tr.Remove(42) {
		t.Fatal("Remove on empty tree returned true")
	}
	if tr.Update(42, 1) {
		t.Fatal("Update on empty tree returned true")
	}
	if n := index.Walk(tr, 0, ^uint64(0), 10, func(uint64, uint64) bool { return true }); n != 0 {
		t.Fatalf("Scan on empty tree visited %d", n)
	}
	if tr.Len() != 0 {
		t.Fatalf("Len = %d, want 0", tr.Len())
	}
}

func TestSingleKey(t *testing.T) {
	tr := New(nil)
	if err := tr.Insert(7, 70); err != nil {
		t.Fatal(err)
	}
	if v, ok := tr.Get(7); !ok || v != 70 {
		t.Fatalf("Get(7) = %d,%v", v, ok)
	}
	if _, ok := tr.Get(8); ok {
		t.Fatal("Get(8) found phantom key")
	}
	if !tr.Update(7, 71) {
		t.Fatal("Update(7) failed")
	}
	if v, _ := tr.Get(7); v != 71 {
		t.Fatalf("after update Get(7) = %d", v)
	}
	if !tr.Remove(7) {
		t.Fatal("Remove(7) failed")
	}
	if _, ok := tr.Get(7); ok {
		t.Fatal("key present after remove")
	}
	if tr.Len() != 0 {
		t.Fatalf("Len = %d after remove", tr.Len())
	}
}

func TestUpsertOverwrites(t *testing.T) {
	tr := New(nil)
	for i := 0; i < 3; i++ {
		if err := tr.Insert(100, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if v, _ := tr.Get(100); v != 2 {
		t.Fatalf("Get = %d, want 2", v)
	}
	if tr.Len() != 1 {
		t.Fatalf("Len = %d, want 1", tr.Len())
	}
}

func TestZeroAndMaxKeys(t *testing.T) {
	tr := New(nil)
	keys := []uint64{0, 1, 1 << 63, ^uint64(0), ^uint64(0) - 1}
	for _, k := range keys {
		if err := tr.Insert(k, k^0xff); err != nil {
			t.Fatal(err)
		}
	}
	for _, k := range keys {
		if v, ok := tr.Get(k); !ok || v != k^0xff {
			t.Fatalf("Get(%#x) = %d,%v", k, v, ok)
		}
	}
}

func TestInsertGetManyDistributions(t *testing.T) {
	for _, name := range dataset.AllNames() {
		name := name
		t.Run(string(name), func(t *testing.T) {
			keys := dataset.Generate(name, 20000, 1)
			tr := New(nil)
			// Insert in shuffled order to exercise all SMO paths.
			perm := rand.New(rand.NewSource(7)).Perm(len(keys))
			for _, i := range perm {
				if err := tr.Insert(keys[i], keys[i]+1); err != nil {
					t.Fatal(err)
				}
			}
			if tr.Len() != len(keys) {
				t.Fatalf("Len = %d, want %d", tr.Len(), len(keys))
			}
			for _, k := range keys {
				if v, ok := tr.Get(k); !ok || v != k+1 {
					t.Fatalf("Get(%d) = %d,%v", k, v, ok)
				}
			}
			// Probe absent keys (midpoints of gaps).
			for i := 1; i < len(keys); i += 97 {
				if gap := keys[i] - keys[i-1]; gap > 1 {
					probe := keys[i-1] + gap/2
					if probe != keys[i-1] && probe != keys[i] {
						if _, ok := tr.Get(probe); ok {
							t.Fatalf("phantom key %d", probe)
						}
					}
				}
			}
		})
	}
}

func TestBulkloadRejectsUnsorted(t *testing.T) {
	tr := New(nil)
	err := tr.Bulkload([]index.KV{{Key: 5, Value: 1}, {Key: 3, Value: 2}})
	if err != index.ErrUnsortedBulk {
		t.Fatalf("err = %v, want ErrUnsortedBulk", err)
	}
	tr = New(nil)
	err = tr.Bulkload([]index.KV{{Key: 5, Value: 1}, {Key: 5, Value: 2}})
	if err != index.ErrUnsortedBulk {
		t.Fatalf("duplicate err = %v, want ErrUnsortedBulk", err)
	}
}

func TestScanOrderedAndBounded(t *testing.T) {
	keys := dataset.Generate(dataset.OSM, 5000, 3)
	tr := New(nil)
	if err := tr.Bulkload(dataset.Pairs(keys)); err != nil {
		t.Fatal(err)
	}
	// Full scan must return every key in order.
	var got []uint64
	index.Walk(tr, 0, ^uint64(0), len(keys)+10, func(k, v uint64) bool {
		got = append(got, k)
		if v != dataset.ValueFor(k) {
			t.Fatalf("value mismatch at %d", k)
		}
		return true
	})
	if len(got) != len(keys) {
		t.Fatalf("scan visited %d, want %d", len(got), len(keys))
	}
	for i, k := range got {
		if k != keys[i] {
			t.Fatalf("scan order broken at %d: got %d want %d", i, k, keys[i])
		}
	}
	// Bounded scans from arbitrary starts.
	for trial := 0; trial < 50; trial++ {
		start := keys[(trial*97)%len(keys)] + uint64(trial%3)
		limit := 1 + trial%17
		first := sort.Search(len(keys), func(i int) bool { return keys[i] >= start })
		want := len(keys) - first
		if want > limit {
			want = limit
		}
		var scanned []uint64
		n := index.Walk(tr, start, ^uint64(0), limit, func(k, v uint64) bool {
			scanned = append(scanned, k)
			return true
		})
		if n != want {
			t.Fatalf("Scan(%d,%d) visited %d, want %d", start, limit, n, want)
		}
		for i, k := range scanned {
			if k != keys[first+i] {
				t.Fatalf("Scan(%d) item %d = %d, want %d", start, i, k, keys[first+i])
			}
		}
	}
}

func TestScanEarlyStop(t *testing.T) {
	tr := New(nil)
	for k := uint64(1); k <= 100; k++ {
		_ = tr.Insert(k, k)
	}
	count := 0
	n := index.Walk(tr, 0, ^uint64(0), 100, func(k, v uint64) bool {
		count++
		return count < 5
	})
	if n != 5 || count != 5 {
		t.Fatalf("early stop: n=%d count=%d", n, count)
	}
}

func TestRemoveMixed(t *testing.T) {
	keys := dataset.Generate(dataset.FB, 8000, 9)
	tr := New(nil)
	if err := tr.Bulkload(dataset.Pairs(keys)); err != nil {
		t.Fatal(err)
	}
	// Remove every third key.
	removed := map[uint64]bool{}
	for i := 0; i < len(keys); i += 3 {
		if !tr.Remove(keys[i]) {
			t.Fatalf("Remove(%d) = false", keys[i])
		}
		removed[keys[i]] = true
	}
	for _, k := range keys {
		v, ok := tr.Get(k)
		if removed[k] && ok {
			t.Fatalf("removed key %d still present", k)
		}
		if !removed[k] && (!ok || v != dataset.ValueFor(k)) {
			t.Fatalf("surviving key %d lost (%d,%v)", k, v, ok)
		}
	}
	if want := len(keys) - len(removed); tr.Len() != want {
		t.Fatalf("Len = %d, want %d", tr.Len(), want)
	}
	// Reinsert removed keys.
	for k := range removed {
		if err := tr.Insert(k, k); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Len() != len(keys) {
		t.Fatalf("Len after reinsert = %d, want %d", tr.Len(), len(keys))
	}
}

// TestQuickVersusMap drives random operation sequences against a reference
// map and checks observational equivalence.
func TestQuickVersusMap(t *testing.T) {
	f := func(ops []uint16, seed int64) bool {
		tr := New(nil)
		ref := map[uint64]uint64{}
		r := rand.New(rand.NewSource(seed))
		for _, o := range ops {
			k := uint64(o%512) * 0x0101010101
			switch r.Intn(4) {
			case 0:
				v := r.Uint64()
				_ = tr.Insert(k, v)
				ref[k] = v
			case 1:
				got, ok := tr.Get(k)
				want, wok := ref[k]
				if ok != wok || (ok && got != want) {
					return false
				}
			case 2:
				if tr.Remove(k) != (func() bool { _, ok := ref[k]; return ok })() {
					return false
				}
				delete(ref, k)
			case 3:
				v := r.Uint64()
				_, wok := ref[k]
				if tr.Update(k, v) != wok {
					return false
				}
				if wok {
					ref[k] = v
				}
			}
		}
		if tr.Len() != len(ref) {
			return false
		}
		for k, want := range ref {
			if got, ok := tr.Get(k); !ok || got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestLowestCommonNodeCoversRange(t *testing.T) {
	keys := dataset.Generate(dataset.OSM, 3000, 5)
	tr := New(nil)
	if err := tr.Bulkload(dataset.Pairs(keys)); err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 200; trial++ {
		i := (trial * 13) % (len(keys) - 10)
		a, b := keys[i], keys[i+9]
		n := tr.LowestCommonNode(a, b)
		if n == nil {
			t.Fatalf("LCA(%d,%d) = nil", a, b)
		}
		// Every key in [a,b] must be findable starting at the LCA.
		for j := i; j <= i+9; j++ {
			v, found, _ := tr.GetFrom(n, keys[j])
			if !found || v != dataset.ValueFor(keys[j]) {
				t.Fatalf("GetFrom(LCA) missed key %d (trial %d)", keys[j], trial)
			}
		}
	}
}

func TestGetFromShortensPath(t *testing.T) {
	keys := dataset.Generate(dataset.OSM, 20000, 11)
	tr := New(nil)
	if err := tr.Bulkload(dataset.Pairs(keys)); err != nil {
		t.Fatal(err)
	}
	i := len(keys) / 2
	a, b := keys[i], keys[i+50]
	n := tr.LowestCommonNode(a, b)
	if n == nil || n == tr.Root() {
		t.Skip("LCA did not descend below root for this data")
	}
	_, found, fromLCA := tr.GetFrom(n, keys[i+25])
	if !found {
		t.Fatal("GetFrom missed")
	}
	_, found, fromRoot := tr.GetFrom(nil, keys[i+25])
	if !found {
		t.Fatal("root Get missed")
	}
	if fromLCA > fromRoot {
		t.Fatalf("LCA path %d longer than root path %d", fromLCA, fromRoot)
	}
}

type recordingHooks struct {
	mu       sync.Mutex
	replaced int
}

func (h *recordingHooks) OnReplace(old, new *Node) {
	h.mu.Lock()
	h.replaced++
	h.mu.Unlock()
}

func TestSMOHooksFire(t *testing.T) {
	h := &recordingHooks{}
	tr := New(h)
	// Dense keys under one parent force node4 -> node16 -> node48 ->
	// node256 expansions.
	for k := uint64(0); k < 256; k++ {
		if err := tr.Insert(k, k); err != nil {
			t.Fatal(err)
		}
	}
	if h.replaced < 3 {
		t.Fatalf("expected >=3 expansion hooks, got %d", h.replaced)
	}
	// A far-away key forces prefix extraction at the root.
	before := h.replaced
	if err := tr.Insert(1<<56, 1); err != nil {
		t.Fatal(err)
	}
	if h.replaced <= before {
		t.Fatalf("prefix extraction did not fire hook (%d -> %d)", before, h.replaced)
	}
}

func TestConcurrentInsertGet(t *testing.T) {
	keys := dataset.Generate(dataset.OSM, 30000, 21)
	loaded := keys[:len(keys)/2]
	pending := keys[len(keys)/2:]
	tr := New(nil)
	if err := tr.Bulkload(dataset.Pairs(loaded)); err != nil {
		t.Fatal(err)
	}
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(w)))
			for i := w; i < len(pending); i += workers {
				if err := tr.Insert(pending[i], dataset.ValueFor(pending[i])); err != nil {
					t.Error(err)
					return
				}
				k := loaded[r.Intn(len(loaded))]
				if v, ok := tr.Get(k); !ok || v != dataset.ValueFor(k) {
					t.Errorf("concurrent Get(%d) = %d,%v", k, v, ok)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if tr.Len() != len(keys) {
		t.Fatalf("Len = %d, want %d", tr.Len(), len(keys))
	}
	for _, k := range keys {
		if v, ok := tr.Get(k); !ok || v != dataset.ValueFor(k) {
			t.Fatalf("post-stress Get(%d) = %d,%v", k, v, ok)
		}
	}
}

// TestRootPrefixExtractionRace races lookups and scans of resident keys
// against inserts that extract the root's compressed prefix. The extraction
// re-parents the old root — trimmed prefix, raised depth, bumped but not
// obsolete version — so a walker that loaded the root pointer just before
// it and took the version just after would walk a non-root node at depth 0
// and validate a wrong answer (see enter). Fresh trees keep the window
// coming: every tree's root starts with a 7-byte prefix that seven inserts
// peel off one byte at a time, root-first.
func TestRootPrefixExtractionRace(t *testing.T) {
	const base = uint64(0x0101010101010100)
	var resident [16]index.KV
	for i := range resident {
		resident[i] = index.KV{Key: base | uint64(i), Value: uint64(i) + 1}
	}
	build := func() *Tree {
		tr := New(nil)
		if err := tr.Bulkload(resident[:]); err != nil {
			t.Fatal(err)
		}
		return tr
	}
	var cur atomic.Pointer[Tree]
	cur.Store(build())
	var stop atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			var buf []index.KV
			for i := r; !stop.Load(); i++ {
				tr := cur.Load()
				kv := resident[i%len(resident)]
				if v, ok := tr.Get(kv.Key); !ok || v != kv.Value {
					t.Errorf("Get(%#x) = %d,%v during root prefix extraction", kv.Key, v, ok)
					return
				}
				if i%8 != 0 {
					continue
				}
				buf = tr.AppendRange(buf[:0], base, base|0xff, len(resident))
				if len(buf) != len(resident) || buf[0] != resident[0] || buf[len(buf)-1] != resident[len(resident)-1] {
					t.Errorf("AppendRange returned %d of %d resident keys during root prefix extraction", len(buf), len(resident))
					return
				}
			}
		}(r)
	}
	for iter := 0; iter < 5000 && !t.Failed(); iter++ {
		tr := build()
		cur.Store(tr)
		// Diverge from the shared prefix at byte 6, then 5, ... then 0: each
		// insert mismatches inside the current root's prefix.
		for b := 6; b >= 0; b-- {
			k := base ^ uint64(0x02)<<(56-8*b)
			if !tr.Put(k, k) {
				t.Fatalf("Put(%#x) overwrote", k)
			}
		}
	}
	stop.Store(true)
	wg.Wait()
}

func TestConcurrentMixedOps(t *testing.T) {
	keys := dataset.Generate(dataset.FB, 20000, 31)
	tr := New(nil)
	if err := tr.Bulkload(dataset.Pairs(keys)); err != nil {
		t.Fatal(err)
	}
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(100 + w)))
			for i := 0; i < 4000; i++ {
				k := keys[r.Intn(len(keys))]
				switch r.Intn(4) {
				case 0:
					tr.Get(k)
				case 1:
					_ = tr.Insert(k, r.Uint64())
				case 2:
					tr.Remove(k)
				case 3:
					index.Walk(tr, k, ^uint64(0), 20, func(a, b uint64) bool { return true })
				}
			}
		}(w)
	}
	wg.Wait()
	// Tree must still be internally consistent: a full scan is sorted
	// and Len matches.
	var prev uint64
	count := 0
	index.Walk(tr, 0, ^uint64(0), len(keys)+1, func(k, v uint64) bool {
		if count > 0 && k <= prev {
			t.Fatalf("scan out of order after stress: %d <= %d", k, prev)
		}
		prev = k
		count++
		return true
	})
	if count != tr.Len() {
		t.Fatalf("scan count %d != Len %d", count, tr.Len())
	}
}

func TestMemoryUsagePositive(t *testing.T) {
	tr := New(nil)
	for k := uint64(0); k < 1000; k++ {
		_ = tr.Insert(k*7919, k)
	}
	if m := tr.MemoryUsage(); m < 1000*16 {
		t.Fatalf("MemoryUsage = %d, implausibly small", m)
	}
}

func TestPutFrom(t *testing.T) {
	keys := dataset.Generate(dataset.OSM, 20000, 41)
	tr := New(nil)
	if err := tr.Bulkload(dataset.Pairs(keys)); err != nil {
		t.Fatal(err)
	}
	i := len(keys) / 3
	a, b := keys[i], keys[i+100]
	lca := tr.LowestCommonNode(a, b)
	if lca == nil {
		t.Fatal("no LCA")
	}
	// Insert fresh keys strictly inside [a,b] via the LCA entry point.
	var fresh []uint64
	for j := i; j < i+100; j++ {
		if keys[j+1]-keys[j] > 2 {
			fresh = append(fresh, keys[j]+1)
		}
	}
	if len(fresh) == 0 {
		t.Skip("no gaps in range")
	}
	for _, k := range fresh {
		if !tr.PutFrom(lca, k, k^0xabc) {
			t.Fatalf("PutFrom(%d) reported existing key", k)
		}
	}
	for _, k := range fresh {
		if v, ok := tr.Get(k); !ok || v != k^0xabc {
			t.Fatalf("PutFrom key %d lost (%d,%v)", k, v, ok)
		}
	}
	// Upsert through the entry point too.
	if tr.PutFrom(lca, fresh[0], 7) {
		t.Fatal("PutFrom upsert reported new key")
	}
	if v, _ := tr.Get(fresh[0]); v != 7 {
		t.Fatal("PutFrom upsert lost")
	}
	// And a PutFrom outside the subtree must still land correctly via the
	// root fallback.
	outside := keys[len(keys)-1] + 12345
	tr.PutFrom(lca, outside, 99)
	if v, ok := tr.Get(outside); !ok || v != 99 {
		t.Fatal("root fallback failed")
	}
}

func TestShrinkOnDelete(t *testing.T) {
	tr := New(nil)
	// 200 dense keys under one parent drive it to node256.
	for k := uint64(0); k < 200; k++ {
		_ = tr.Insert(k, k)
	}
	memBefore := tr.MemoryUsage()
	// Delete down to a handful of keys; the node should downgrade.
	for k := uint64(0); k < 198; k++ {
		if !tr.Remove(k) {
			t.Fatalf("Remove(%d) failed", k)
		}
	}
	memAfter := tr.MemoryUsage()
	if memAfter >= memBefore/2 {
		t.Fatalf("no shrink: %d -> %d bytes", memBefore, memAfter)
	}
	// Survivors intact and ordered.
	var got []uint64
	index.Walk(tr, 0, ^uint64(0), 10, func(k, v uint64) bool {
		got = append(got, k)
		return true
	})
	if len(got) != 2 || got[0] != 198 || got[1] != 199 {
		t.Fatalf("survivors = %v", got)
	}
	// Regrowing after shrink works.
	for k := uint64(0); k < 200; k++ {
		_ = tr.Insert(k, k+1)
	}
	for k := uint64(0); k < 200; k++ {
		if v, ok := tr.Get(k); !ok || v != k+1 {
			t.Fatalf("Get(%d) = (%d,%v) after regrow", k, v, ok)
		}
	}
}

func TestShrinkKeepsFastPointerCoverage(t *testing.T) {
	h := &recordingHooks{}
	tr := New(h)
	for k := uint64(0); k < 100; k++ {
		_ = tr.Insert(k, k)
	}
	lca := tr.LowestCommonNode(10, 90)
	if lca == nil {
		t.Skip("no inner node")
	}
	lca.SetFPIndex(0) // pretend a fast pointer references it
	before := h.replaced
	for k := uint64(0); k < 95; k++ {
		tr.Remove(k)
	}
	// Shrinks fire OnReplace so a real buffer would be repaired.
	if h.replaced <= before {
		t.Log("no shrink hook fired (node may not have been the LCA); acceptable")
	}
	for k := uint64(95); k < 100; k++ {
		if _, ok := tr.Get(k); !ok {
			t.Fatalf("survivor %d lost", k)
		}
	}
}
