package art

import (
	"cmp"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"altindex/internal/index"
)

// TestNodeSizes pins the per-kind struct sizes: a leaf is its 16-byte payload
// plus the common header, and every inner kind is header + key bytes + inline
// child slots, nothing else.
func TestNodeSizes(t *testing.T) {
	for _, c := range []struct {
		name      string
		kind      uint8
		size, max uintptr
	}{
		{"leaf", kindLeaf, unsafe.Sizeof(leaf{}), 32},
		{"node4", kind4, unsafe.Sizeof(node4{}), 96},
		{"node16", kind16, unsafe.Sizeof(node16{}), 208},
		{"node48", kind48, unsafe.Sizeof(node48{}), 704},
		{"node256", kind256, unsafe.Sizeof(node256{}), 2304},
	} {
		if c.size > c.max {
			t.Errorf("%s is %d bytes, want <= %d", c.name, c.size, c.max)
		}
		if a := allocBytes[c.kind]; a < c.size || a > c.max {
			t.Errorf("%s: allocBytes = %d for a %d-byte struct (max %d)", c.name, a, c.size, c.max)
		}
	}
	// The handle is a prefix of every kind, which is what the typed views
	// rely on.
	if unsafe.Offsetof(leaf{}.Node) != 0 || unsafe.Offsetof(inner{}.Node) != 0 ||
		unsafe.Offsetof(node4{}.inner) != 0 || unsafe.Offsetof(node16{}.inner) != 0 ||
		unsafe.Offsetof(node48{}.inner) != 0 || unsafe.Offsetof(node256{}.inner) != 0 {
		t.Fatal("the common header is not at offset 0 of every kind")
	}
}

// TestOneAllocationPerNode counts heap allocations per operation: a node is
// one object, so an insert that splits a leaf makes two (the node4 and the
// new leaf), an insert into a node with room one, and reads and upserts none.
func TestOneAllocationPerNode(t *testing.T) {
	const runs = 100
	tr := New(nil)
	for i := uint64(0); i <= runs+1; i++ {
		tr.Put(i<<32, i) // leaves under one wide node
	}
	var i uint64
	next := func() uint64 { i++; return i << 32 }
	for _, c := range []struct {
		name string
		op   func()
		want float64
	}{
		{"leaf split", func() { tr.Put(next()|1, 1) }, 2},
		{"add to node4", func() { tr.Put(next()|2, 2) }, 1},
		{"upsert", func() { tr.Put(next(), 3) }, 0},
		{"Get", func() { tr.Get(next() | 1) }, 0},
		{"Update", func() { tr.Update(next()|2, 4) }, 0},
	} {
		i = 0
		if got := testing.AllocsPerRun(runs, c.op); got != c.want {
			t.Errorf("%s: %.1f allocations per op, want %.0f", c.name, got, c.want)
		}
	}
}

// fpHook plays the fast pointer buffer for one entry: it follows the node it
// references through every replacement.
type fpHook struct {
	node  *Node
	kinds []uint8 // kinds the referenced node went through
}

func (h *fpHook) OnReplace(old, new *Node) {
	if old == h.node {
		h.node = new
		h.kinds = append(h.kinds, new.kind)
	}
}

// TestKindTransitionsVersusMap drives one node 4 → 16 → 48 → 256 and back
// down against a reference map. After every operation the tree must agree
// with the map through each read path — Get, ordered AppendRange, and GetFrom
// through a fast pointer that the OnReplace hook keeps on the live node — and
// writes go through PutFrom on that pointer and RemoveRange as well as Remove.
func TestKindTransitionsVersusMap(t *testing.T) {
	const base = uint64(0xA1B2C3D4E5F60700) // the node's 256 keys: base | b
	h := &fpHook{}
	tr := New(h)
	ref := map[uint64]uint64{}
	rng := rand.New(rand.NewSource(16))
	var buf []index.KV
	check := func(when string) {
		t.Helper()
		if tr.Len() != len(ref) {
			t.Fatalf("%s: Len = %d, want %d", when, tr.Len(), len(ref))
		}
		want := make([]index.KV, 0, len(ref))
		for k, v := range ref {
			want = append(want, index.KV{Key: k, Value: v})
		}
		slices.SortFunc(want, func(a, b index.KV) int { return cmp.Compare(a.Key, b.Key) })
		if buf = tr.AppendRange(buf[:0], 0, ^uint64(0), len(ref)+1); !slices.Equal(buf, want) {
			t.Fatalf("%s: AppendRange = %v, want %v", when, buf, want)
		}
		lo, hi := base|64, base|191
		i := 0
		for i < len(want) && want[i].Key < lo {
			i++
		}
		j := i
		for j < len(want) && want[j].Key <= hi {
			j++
		}
		if buf = tr.AppendRange(buf[:0], lo, hi, 256); !slices.Equal(buf, want[i:j]) {
			t.Fatalf("%s: AppendRange[%#x,%#x] = %v, want %v", when, lo, hi, buf, want[i:j])
		}
		for b := uint64(0); b < 256; b++ {
			k := base | b
			want, wok := ref[k]
			if got, ok := tr.Get(k); ok != wok || got != want {
				t.Fatalf("%s: Get(%#x) = (%d,%v), want (%d,%v)", when, k, got, ok, want, wok)
			}
			if got, ok, _ := tr.GetFrom(h.node, k); ok != wok || got != want {
				t.Fatalf("%s: GetFrom(%#x) = (%d,%v), want (%d,%v)", when, k, got, ok, want, wok)
			}
		}
	}
	put := func(k uint64) {
		v := rng.Uint64()
		_, had := ref[k]
		if added := tr.PutFrom(h.node, k, v); added == had {
			t.Fatalf("PutFrom(%#x) added = %v with the key present = %v", k, added, had)
		}
		ref[k] = v
	}

	// A far key keeps the node off the root, so replacements go through a
	// parent; two near keys create it as a node4.
	put(1 << 56)
	put(base | 7)
	put(base | 200)
	h.node = tr.LowestCommonNode(base, base|255)
	if h.node == nil || h.node.kind != kind4 || h.node == tr.Root() {
		t.Fatalf("setup: entry node %+v is not a node4 below the root", h.node)
	}
	h.kinds = []uint8{kind4}
	check("setup")

	order := rng.Perm(256)
	for _, b := range order {
		put(base | uint64(b)) // two of them upserts
		check("grow")
	}
	if h.node.kind != kind256 || h.node.numChildren() != 256 {
		t.Fatalf("after 256 inserts the entry node is kind %d with %d children", h.node.kind, h.node.numChildren())
	}

	// RemoveRange through the full node, then single removes down to one key.
	want := removeRangeRef(ref, base|100, base|139)
	if got := tr.RemoveRange(base|100, base|139, nil); !slices.Equal(got, want) {
		t.Fatalf("RemoveRange = %v, want %v", got, want)
	}
	check("RemoveRange")
	for _, b := range order[:255] {
		k := base | uint64(b)
		_, had := ref[k]
		if tr.Remove(k) != had {
			t.Fatalf("Remove(%#x) != %v", k, had)
		}
		delete(ref, k)
		check("shrink")
	}
	if want := []uint8{kind4, kind16, kind48, kind256, kind48, kind16, kind4}; !slices.Equal(h.kinds, want) {
		t.Fatalf("the fast pointer saw kinds %v, want %v", h.kinds, want)
	}
	// The shrunken node grows again through the same pointer.
	for _, b := range order[:20] {
		put(base | uint64(b))
	}
	check("regrow")
}

// TestMemoryUsageMatchesHeap holds MemoryUsage to what the allocator really
// spends: after a collection, the heap grew by the tree and nothing else.
func TestMemoryUsageMatchesHeap(t *testing.T) {
	if raceEnabled {
		t.Skip("single-goroutine allocator accounting; nothing for the race detector to see")
	}
	const n = 1 << 20
	rng := rand.New(rand.NewSource(7))
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = rng.Uint64()
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	tr := New(nil)
	for _, k := range keys {
		tr.Put(k, k)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	heap := float64(after.HeapAlloc - before.HeapAlloc)
	got := float64(tr.MemoryUsage())
	runtime.KeepAlive(keys)
	t.Logf("MemoryUsage %.0f B (%.1f B/key), heap delta %.0f B", got, got/float64(tr.Len()), heap)
	if got < 0.9*heap || got > 1.1*heap {
		t.Fatalf("MemoryUsage = %.0f, heap grew by %.0f: off by more than 10%%", got, heap)
	}
}
