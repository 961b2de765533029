package art

// prefetchRounds bounds a lockstep descent: a path holds at most eight
// inner nodes (one per key byte) and a leaf.
const prefetchRounds = 9

// PrefetchPaths warms the nodes a GetFrom or PutFrom of keys[i] entered at
// cur[i] is about to visit, for all i at once: each round every walker
// still on an inner node reads that node's own depth and prefix length,
// picks its child for the key and prefetches it, so the walkers' cache
// misses overlap instead of one lookup's chain serializing behind the
// previous lookup's. cur is the walkers' working state and is consumed; a
// nil entry is a finished walker. The walkers may sit in different trees.
//
// The descent is advisory: it takes no version snapshots, validates
// nothing and returns nothing, so whatever it reads under a concurrent
// writer — a stale child slot, an obsolete or re-parented node, a torn
// child count — costs at worst a useless prefetch. The operations that
// follow run their own optimistic-lock-coupled traversal on the lines
// this one pulled in. Every load is of an atomic word (or of the
// immutable kind), and no pointer is followed past prefetchRounds hops.
func PrefetchPaths(cur []*Node, keys []uint64) {
	for _, n := range cur {
		n.prefetch()
	}
	for round := 0; round < prefetchRounds; round++ {
		live := false
		for i, n := range cur {
			if n == nil {
				continue
			}
			var c *Node
			if n.kind != kindLeaf {
				pl, depth, _ := n.loadMeta()
				c = n.findChild(keyByte(keys[i], depth+pl))
				c.prefetch()
				live = live || c != nil
			}
			cur[i] = c
		}
		if !live {
			return
		}
	}
}
