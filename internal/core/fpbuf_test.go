package core

import (
	"sync"
	"testing"

	"altindex/internal/art"
	"altindex/internal/dataset"
	"altindex/internal/index"
)

// exhaustFastPointers puts t's fast-pointer buffer in the state a full one
// degrades to (§III-C): every model unlinked, every entry cleared and no
// room for another, so every ART lookup and insert starts at the root and
// every later registration, lazy or by a rebuild, returns -1. t must be
// quiescent.
func exhaustFastPointers(t *ALT) {
	tb := t.tab.Load()
	for i := range tb.dir {
		tb.dir[i].m.fastIdx.Store(-1)
	}
	for i := range t.fp.entries {
		t.fp.entries[i].node.Store(nil)
	}
	t.fp.n.Store(int32(len(t.fp.entries)))
}

// rootOnly is an ALT that exhausts its fast-pointer buffer after every
// Bulkload, which builds a fresh one.
type rootOnly struct{ *ALT }

func newRootOnly(opts Options) rootOnly {
	r := rootOnly{New(opts)}
	exhaustFastPointers(r.ALT)
	return r
}

func (r rootOnly) Bulkload(pairs []index.KV) error {
	err := r.ALT.Bulkload(pairs)
	exhaustFastPointers(r.ALT)
	return err
}

// innerNodes collects distinct inner nodes from a populated tree.
func innerNodes(t *testing.T, count int) (*art.Tree, []*art.Node) {
	t.Helper()
	keys := dataset.Generate(dataset.OSM, 20000, 1)
	tr := art.New(nil)
	if err := tr.Bulkload(dataset.Pairs(keys)); err != nil {
		t.Fatal(err)
	}
	seen := map[*art.Node]bool{}
	var nodes []*art.Node
	for i := 0; i+200 < len(keys) && len(nodes) < count; i += 150 {
		n := tr.LowestCommonNode(keys[i], keys[i+150])
		if n == nil || seen[n] {
			continue
		}
		if _, leaf := n.Leaf(); leaf {
			continue
		}
		seen[n] = true
		nodes = append(nodes, n)
	}
	if len(nodes) < count {
		t.Skipf("only found %d distinct inner nodes", len(nodes))
	}
	return tr, nodes
}

func TestFPBufferRegisterAndMerge(t *testing.T) {
	_, nodes := innerNodes(t, 3)
	b := newFPBuffer(8)
	i0 := b.register(nodes[0])
	i1 := b.register(nodes[1])
	if i0 < 0 || i1 < 0 || i0 == i1 {
		t.Fatalf("indices %d %d", i0, i1)
	}
	// Duplicate target merges (§III-C2).
	if again := b.register(nodes[0]); again != i0 {
		t.Fatalf("merge failed: %d != %d", again, i0)
	}
	if b.len() != 2 {
		t.Fatalf("len=%d want 2", b.len())
	}
	if b.requestedCount() != 3 {
		t.Fatalf("requested=%d want 3", b.requestedCount())
	}
	if b.node(i0) != nodes[0] || b.node(i1) != nodes[1] {
		t.Fatal("node resolution wrong")
	}
	if b.node(-1) != nil || b.node(999) != nil {
		t.Fatal("bad index must resolve to nil")
	}
	if b.register(nil) != -1 {
		t.Fatal("nil register must be -1")
	}
}

func TestFPBufferFullDegrades(t *testing.T) {
	_, nodes := innerNodes(t, 3)
	b := newFPBuffer(0) // floors at 64; fill it
	filled := 0
	for i := 0; i < 64 && filled < 64; i++ {
		// Reuse the same few nodes won't append (merge), so clear the
		// back-reference to force fresh entries.
		n := nodes[i%len(nodes)]
		n.SetFPIndex(-1)
		if b.register(n) >= 0 {
			filled++
		}
	}
	nodes[0].SetFPIndex(-1)
	if idx := b.register(nodes[0]); idx != -1 {
		t.Fatalf("full buffer returned %d, want -1", idx)
	}
}

func TestFPBufferOnReplace(t *testing.T) {
	_, nodes := innerNodes(t, 2)
	b := newFPBuffer(8)
	idx := b.register(nodes[0])
	oldNode, newNode := nodes[0], nodes[1]
	newNode.SetFPIndex(-1)
	b.OnReplace(oldNode, newNode)
	if b.node(idx) != newNode {
		t.Fatal("entry not repointed")
	}
	if newNode.FPIndex() != idx {
		t.Fatal("back-reference not transferred")
	}
	if oldNode.FPIndex() != -1 {
		t.Fatal("old back-reference not cleared")
	}
	// OnReplace for an unreferenced node is a no-op.
	before := b.len()
	oldNode.SetFPIndex(-1)
	b.OnReplace(oldNode, newNode)
	if b.len() != before {
		t.Fatal("no-op OnReplace changed buffer")
	}
}

func TestFPBufferConcurrentRegister(t *testing.T) {
	tr, nodes := innerNodes(t, 4)
	_ = tr
	b := newFPBuffer(1024)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				idx := b.register(nodes[(w+i)%len(nodes)])
				if idx >= 0 && b.node(idx) == nil {
					t.Error("registered index resolves to nil")
					return
				}
			}
		}(w)
	}
	wg.Wait()
	// With merging, at most len(nodes) entries exist.
	if got := b.len(); got > len(nodes) {
		t.Fatalf("len=%d > distinct nodes %d", got, len(nodes))
	}
	if b.requestedCount() != 8*200 {
		t.Fatalf("requested=%d", b.requestedCount())
	}
}
