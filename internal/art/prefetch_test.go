package art

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// entryPool plays the fast pointer buffer at its worst: it keeps every node
// a structure modification touched — the obsolete originals of grown and
// shrunken nodes, re-parented nodes and their extracted parents — so the
// descent can be entered at nodes no current path leads to.
type entryPool struct {
	mu    sync.Mutex
	nodes []*Node
}

func (p *entryPool) OnReplace(old, new *Node) { p.add(old, new) }

func (p *entryPool) add(ns ...*Node) {
	p.mu.Lock()
	p.nodes = append(p.nodes, ns...)
	p.mu.Unlock()
}

// pick fills cur with random pool entries, some of them nil.
func (p *entryPool) pick(rng *rand.Rand, cur []*Node) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i := range cur {
		cur[i] = nil
		if len(p.nodes) > 0 && rng.Intn(8) != 0 {
			cur[i] = p.nodes[rng.Intn(len(p.nodes))]
		}
	}
}

// addSubtree adds every node reachable from n, leaves included.
func (p *entryPool) addSubtree(n *Node) {
	p.add(n)
	if n.kind == kindLeaf {
		return
	}
	var bs [256]byte
	var cs [256]*Node
	for _, c := range cs[:n.childrenInto(0, 255, &bs, &cs)] {
		p.addSubtree(c)
	}
}

// mixedKeys exercises every node kind and prefix compression: a dense run
// (node256 and node48 fan-out), clusters sharing long prefixes (compressed
// paths, node4/16) and uniform keys.
func mixedKeys(rng *rand.Rand) []uint64 {
	var keys []uint64
	for i := uint64(0); i < 3000; i++ {
		keys = append(keys, i*3)
	}
	for c := uint64(0); c < 40; c++ {
		for i := uint64(0); i < 12; i++ {
			keys = append(keys, 0xDEAD_0000_0000_0000+c<<24+i*17)
		}
	}
	for i := 0; i < 2000; i++ {
		keys = append(keys, rng.Uint64())
	}
	return append(keys, 0, ^uint64(0))
}

// TestPrefetchPathsFinishesEveryWalker enters the descent at every node of
// a tree with all four inner kinds — leaves, nil entries, and the obsolete
// and re-parented nodes its construction left behind included — with keys
// that do and do not belong under the entry. No path has more than eight
// inner nodes and a leaf, so nine rounds must finish every walker, and the
// descent must leave the tree as it found it.
func TestPrefetchPathsFinishesEveryWalker(t *testing.T) {
	rng := rand.New(rand.NewSource(0xA27))
	pool := &entryPool{}
	tr := New(pool)
	ref := map[uint64]uint64{}
	keys := mixedKeys(rng)
	for _, k := range keys {
		tr.Put(k, k^0x5A5A)
		ref[k] = k ^ 0x5A5A
	}
	for i := 0; i < 3000; i += 2 { // shrink the dense run's nodes
		tr.Remove(uint64(i) * 3)
		delete(ref, uint64(i)*3)
	}
	if len(pool.nodes) == 0 {
		t.Fatal("the build replaced no node; nothing stale to enter at")
	}
	pool.addSubtree(tr.Root())

	cur := make([]*Node, 64)
	ks := make([]uint64, 64)
	for round := 0; round < 2000; round++ {
		pool.pick(rng, cur)
		n := 1 + rng.Intn(len(cur))
		for i := range ks {
			if ks[i] = keys[rng.Intn(len(keys))]; rng.Intn(4) == 0 {
				ks[i] = rng.Uint64()
			}
		}
		PrefetchPaths(cur[:n], ks[:n])
		for i, c := range cur[:n] {
			if c != nil {
				t.Fatalf("round %d: walker %d for key %#x still on a node after %d rounds", round, i, ks[i], prefetchRounds)
			}
		}
	}
	checkAgainstRef(t, tr, ref)
}

// TestPrefetchPathsBounds hands the descent what only a torn or corrupted
// read could: a node that is its own child, and nodes whose depth and
// prefix length point past the key's eight bytes. It must stop after
// prefetchRounds hops on the first, where an unbounded walk never would,
// and must not index the key out of range on the second, where keyByte's
// depth guard is all that stands between it and a negative shift.
func TestPrefetchPathsBounds(t *testing.T) {
	loop := newInner(kind4, 0)
	loop.addChild(0x07, loop)
	deep := newInner(kind256, 7)
	deep.storeMeta(5, 7, 0) // child byte at depth 12
	deeper := newInner(kind48, 200)
	deeper.storeMeta(255, 200, 0)

	done := make(chan []*Node, 1)
	go func() {
		cur := []*Node{loop, deep, deeper, nil}
		PrefetchPaths(cur, []uint64{0x07 << 56, ^uint64(0), 1, 2})
		done <- cur
	}()
	select {
	case cur := <-done:
		if cur[0] != loop {
			t.Errorf("the walker on the self-loop ended on %p, want it stopped by the round bound still on %p", cur[0], loop)
		}
		if cur[1] != nil || cur[2] != nil {
			t.Errorf("walkers on childless nodes did not finish: %v", cur[1:3])
		}
	case <-time.After(10 * time.Second):
		t.Fatal("PrefetchPaths did not return from a cyclic path: the round bound is gone")
	}
}

// TestPrefetchPathsUnderWriters runs descents from stale and live entry
// nodes while writers force every structure modification under them: node
// growth and shrinkage (a dense run inserted and removed), prefix
// extraction (keys diverging inside compressed paths) and RemoveRange. The
// descent validates nothing, so the test is that it is race-clean,
// returns, and leaves a consistent tree.
func TestPrefetchPathsUnderWriters(t *testing.T) {
	pool := &entryPool{}
	tr := New(pool)
	seed := rand.New(rand.NewSource(0xA28))
	keys := mixedKeys(seed)
	for _, k := range keys {
		tr.Put(k, k)
	}
	pool.addSubtree(tr.Root())

	var stop atomic.Bool
	var writers, walkers sync.WaitGroup
	for w := 0; w < 3; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			rng := rand.New(rand.NewSource(int64(w) + 11))
			for !stop.Load() {
				switch k := keys[rng.Intn(len(keys))]; rng.Intn(8) {
				case 0, 1, 2:
					tr.Remove(k)
				case 3:
					// A fresh key next to a resident one diverges inside
					// whatever compressed path leads to it.
					tr.Put(k^uint64(1)<<uint(rng.Intn(64)), 1)
				case 4:
					lo := uint64(rng.Intn(9000))
					tr.RemoveRange(lo, lo+uint64(rng.Intn(600)), nil)
				default:
					tr.Put(k, k)
				}
			}
		}(w)
	}
	for w := 0; w < 2; w++ {
		walkers.Add(1)
		go func(w int) {
			defer walkers.Done()
			rng := rand.New(rand.NewSource(int64(w) + 21))
			cur := make([]*Node, 16)
			ks := make([]uint64, 16)
			for round := 0; round < 2000; round++ {
				pool.pick(rng, cur)
				if rng.Intn(4) == 0 {
					cur[0] = tr.Root()
				}
				for i := range ks {
					ks[i] = keys[rng.Intn(len(keys))]
				}
				PrefetchPaths(cur, ks)
			}
		}(w)
	}
	walkers.Wait()
	stop.Store(true)
	writers.Wait()
	checkConsistent(t, tr)
}
