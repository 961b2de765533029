package core

import (
	"math/bits"
	"sync"

	"altindex/internal/art"
	"altindex/internal/index"
)

// Batched operations (index.Batcher). The per-key hot path pays an atomic
// table load, a routing chain (router window, bracket, narrow, directory
// entry) and a slot probe, each step waiting on the one before it, for
// every single Get/Insert. The batch path overlaps them across a stream of
// keys:
//
//   - one tab.Load() per batch instead of per key;
//   - pipelined routing through the same directory the per-key path uses:
//     the batch loop splits route into bracket-load / narrow sub-passes so
//     the router-table loads of a whole chunk overlap instead of each
//     key's routing chain serializing behind its predecessor's;
//   - a two-phase probe: phase one routes each key and predicts its slot,
//     then a branch-free loop issues the whole chunk's meta, key and
//     value loads back to back, so the per-slot cache misses overlap
//     instead of serializing behind routing branches; phase two validates
//     the seqlock snapshots and resolves;
//   - the model's fast-pointer ART entry node is resolved at most once
//     per model run and only when a conflict key actually escapes to ART.
//
// GetBatch processes keys in caller order: with the router, routing is
// order-independent, and sorting the batch (tried first: a (key, position)
// permutation via range-adaptive radix scatter) costs more per key than
// the locality it buys at this model-directory granularity. InsertBatch
// does sort — through the stable permutation below — because grouping
// writes by model keeps the claim/upsert fast paths together and
// duplicate upserts must keep their original order (last-writer-wins).
//
// Correctness: the batch fast paths are byte-for-byte the per-key
// protocol — the phase-one meta load opens the same seqlock read section
// that model.read opens, and phase two's meta recheck closes it; the
// snapshot is discarded and the key retried through the per-key path on
// any observed writer. A stale table observed mid-batch is harmless for
// the same reason it is harmless between a per-key Load and use: a
// retrained model is frozen (all slots locked), so every operation routed
// to it falls back and escapes to the new table.

var _ index.Batcher = (*ALT)(nil)

// batchChunk is the sub-batch processed per two-phase pass. It bounds the
// stack scratch so batch calls stay allocation-free; a chunk's meta/key/
// value snapshots stay resident in L1 between the two phases.
const batchChunk = 64

// batchEnt is one routed batch element: the key and its position in the
// caller's slices, so results land correctly after sorting. w caches the
// key's 16-bit radix window during the sort (it fills what would
// otherwise be struct padding, so it is free).
type batchEnt struct {
	key uint64
	pos int32
	w   uint32
}

// batchScratch holds the reusable permutation buffers: ord is the working
// order, tmp the scatter target of the bucket pass (the two swap roles).
type batchScratch struct {
	ord []batchEnt
	tmp []batchEnt
}

var batchScratchPool = sync.Pool{New: func() any { return new(batchScratch) }}

// maxPooledBatch bounds the scratch capacity the pool retains.
const maxPooledBatch = 1 << 16

// insertBatchMin is the smallest write batch worth sorting and grouping;
// smaller ones go through the per-key loop.
const insertBatchMin = 32

// getBatchMin is the smallest read batch worth the chunked two-phase
// probe; smaller ones go through the per-key loop.
const getBatchMin = 8

// getScratch is GetBatch's per-chunk working state. Pooled rather than
// stack-allocated: as locals the ~3KB of arrays would be zeroed on every
// call, a real cost at small batch sizes.
type getScratch struct {
	es    [batchChunk]*entry
	slots [batchChunk]int32
	metas [batchChunk]uint32
	ks    [batchChunk]uint64
	vs    [batchChunk]uint64
	los   [batchChunk]int32
	his   [batchChunk]int32
}

var getScratchPool = sync.Pool{New: func() any { return new(getScratch) }}

// orderPairs fills sc.ord with (key, position) entries in ascending key
// order, skipping the sort when the keys already arrive ascending. The
// caller's slice is never reordered; only the scratch permutation is
// sorted. Equal keys keep their original relative order, which preserves
// per-key upsert semantics.
func orderPairs(sc *batchScratch, pairs []index.KV, base, span uint64) []batchEnt {
	ord := sc.ord[:0]
	if cap(ord) < len(pairs) {
		ord = make([]batchEnt, 0, len(pairs))
	}
	sorted := true
	prev := uint64(0)
	for i := range pairs {
		k := pairs[i].Key
		if k < prev {
			sorted = false
		}
		prev = k
		ord = append(ord, batchEnt{key: k, pos: int32(i)})
	}
	if !sorted {
		ord = bucketSort(sc, ord, base, span)
	}
	return ord
}

// entLess orders by (key, position). The position tiebreak makes the
// order total, so every sort below behaves like a stable sort by key.
func entLess(a, b batchEnt) bool {
	return a.key < b.key || (a.key == b.key && a.pos < b.pos)
}

// bucketSort sorts ord ascending. Comparison sorts mispredict roughly
// half their branches on random keys, which at batch sizes of 64+ costs
// more than the routing the sort buys back — so the main path is a
// branch-free two-pass LSD radix sort over a 16-bit window of the key,
// positioned to cover the model directory's key range [base, base+span).
// The scatter is stable, so keys tied in the window (equal keys, keys
// clamped at the window edges, keys differing only below the window)
// keep their original relative order; one insertion pass — linear on the
// nearly-sorted radix output — repairs any sub-window disorder. Tiny
// batches go straight to the comparison sort, and a cleanup pass that
// detects pathological clustering (the whole batch inside one 1/65536th
// of the key range) bails out to it as well.
func bucketSort(sc *batchScratch, ord []batchEnt, base, span uint64) []batchEnt {
	n := len(ord)
	if n <= 32 || span == 0 {
		sortEnts(ord)
		return ord
	}
	shift := uint(0)
	if l := bits.Len64(span); l > 16 {
		shift = uint(l - 16)
	}
	var c0, c1 [256]int32
	for i := range ord {
		w := windowOf(ord[i].key, base, shift)
		ord[i].w = w
		c0[w&255]++
		c1[w>>8]++
	}
	// Exclusive prefix sums -> per-digit write offsets.
	o0, o1 := int32(0), int32(0)
	for d := 0; d < 256; d++ {
		c0[d], o0 = o0, o0+c0[d]
		c1[d], o1 = o1, o1+c1[d]
	}
	tmp := sc.tmp[:0]
	if cap(tmp) < n {
		tmp = make([]batchEnt, n)
		sc.tmp = tmp
	} else {
		tmp = tmp[:n]
	}
	for i := range ord {
		d := ord[i].w & 255
		tmp[c0[d]] = ord[i]
		c0[d]++
	}
	for i := range tmp {
		d := tmp[i].w >> 8
		ord[c1[d]] = tmp[i]
		c1[d]++
	}
	// ord is now sorted by window; repair sub-window disorder. If the
	// batch turns out to be clustered below the window's resolution the
	// pass would go quadratic — bound the work and fall back.
	budget := 8 * n
	for i := 1; i < n; i++ {
		e := ord[i]
		j := i - 1
		for j >= 0 && entLess(e, ord[j]) {
			ord[j+1] = ord[j]
			j--
			budget--
		}
		ord[j+1] = e
		// Check only between insertions, when the array is whole.
		if budget < 0 {
			sortEnts(ord)
			return ord
		}
	}
	return ord
}

// windowOf maps a key to its 16-bit radix window: the key's offset inside
// the model directory's range, clamped at both edges.
func windowOf(k, base uint64, shift uint) uint32 {
	if k <= base {
		return 0
	}
	w := (k - base) >> shift
	if w > 0xffff {
		w = 0xffff
	}
	return uint32(w)
}

// sortEnts is a hand-rolled median-of-three quicksort with an insertion
// sort base case: the comparison-sort fallback for batches too small or
// too skewed for the bucket pass. The generic slices.SortFunc costs a
// non-inlinable comparator call per comparison; inlining the comparison
// keeps even the fallback cheap.
func sortEnts(a []batchEnt) {
	for len(a) > 16 {
		// Median-of-three pivot, placed at a[0].
		m := len(a) / 2
		hi := len(a) - 1
		if entLess(a[m], a[0]) {
			a[m], a[0] = a[0], a[m]
		}
		if entLess(a[hi], a[0]) {
			a[hi], a[0] = a[0], a[hi]
		}
		if entLess(a[hi], a[m]) {
			a[hi], a[m] = a[m], a[hi]
		}
		a[0], a[m] = a[m], a[0]
		p := a[0]
		i, j := 1, hi
		for {
			for i <= j && entLess(a[i], p) {
				i++
			}
			for entLess(p, a[j]) {
				j--
			}
			if i >= j {
				break
			}
			a[i], a[j] = a[j], a[i]
			i++
			j--
		}
		a[0], a[j] = a[j], a[0]
		// Recurse on the smaller half, loop on the larger.
		if j < len(a)-j-1 {
			sortEnts(a[:j])
			a = a[j+1:]
		} else {
			sortEnts(a[j+1:])
			a = a[:j]
		}
	}
	for i := 1; i < len(a); i++ {
		e := a[i]
		j := i - 1
		for j >= 0 && entLess(e, a[j]) {
			a[j+1] = a[j]
			j--
		}
		a[j+1] = e
	}
}

func putBatchScratch(sc *batchScratch, ord []batchEnt) {
	if cap(ord) <= maxPooledBatch {
		sc.ord = ord
	}
	if cap(sc.tmp) > maxPooledBatch {
		sc.tmp = nil
	}
	batchScratchPool.Put(sc)
}

// keySpan returns the routing range of the model directory for the
// bucket scatter: the first boundary and the spread of the boundaries.
func (tb *table) keySpan() (base, span uint64) {
	base = tb.bounds[0]
	return base, tb.bounds[len(tb.bounds)-1] - base
}

// GetBatch implements index.Batcher: lookups with pipelined routing and a
// two-phase slot probe. Keys are processed in caller order (no
// permutation): the router makes routing order-independent, so sorting
// the batch would cost more than the locality it buys. vals and found
// must be at least len(keys) long.
func (t *ALT) GetBatch(keys []uint64, vals []uint64, found []bool) {
	// One pin covers the whole batch (nested pins from the per-key
	// fallbacks below are harmless); the loaded table's slot storage
	// cannot be reclaimed while the chunks probe it.
	eg := t.ebr.Pin()
	defer eg.Unpin()
	tab := t.tab.Load()
	fpBatchReload.Inject()
	// Without a learned layer there is nothing to pipeline, and below
	// getBatchMin the chunk machinery costs more than it overlaps; take
	// the per-key path (which also owns the pre-table bootstrap recheck).
	if len(tab.dir) == 0 || len(keys) < getBatchMin {
		for i, k := range keys {
			vals[i], found[i] = t.Get(k)
		}
		return
	}

	g := getScratchPool.Get().(*getScratch)
	es := &g.es
	slots := &g.slots
	metas := &g.metas
	ks := &g.ks
	vs := &g.vs
	los := &g.los
	his := &g.his
	// The fast-pointer entry node is only needed for conflict keys that
	// escaped to ART; resolve it lazily and cache it per model run.
	var fpm *model
	var fp *art.Node
	for cb := 0; cb < len(keys); cb += batchChunk {
		cnt := len(keys) - cb
		if cnt > batchChunk {
			cnt = batchChunk
		}
		// Phase 1a: load every key's model bracket from the router. The
		// loop has only well-predicted branches (a skewed workload keeps
		// hitting sub-tabled or plain windows consistently), so the
		// router loads of the whole chunk overlap instead of each key's
		// routing chain serializing behind its predecessor's. Duplicate
		// keys (zipfian hot keys repeat within a batch) are NOT folded:
		// a chunk-local dedup hash was tried and its fixed per-key cost
		// exceeded what the ~14% duplicates at B=64 saved, because a
		// repeated key's slot lines are already hot in L1.
		for i := 0; i < cnt; i++ {
			los[i], his[i] = tab.bracket(keys[cb+i])
		}
		// Phase 1b: resolve each bracket to the responsible directory
		// entry (the brackets are usually already exact: the router has
		// several times more windows than the directory has models).
		// (The exact-bracket skip stays apart from narrow's own loop test:
		// folded into it, a B=64 core microbenchmark ran 3-6% slower.)
		fs, dir := tab.bounds, tab.dir
		for i := 0; i < cnt; i++ {
			mi := int(los[i])
			if hi := int(his[i]); hi > mi {
				mi = narrow(fs, keys[cb+i], mi, hi)
			}
			es[i] = &dir[mi]
		}
		// The slot predictions run in a second pass so the entry loads
		// (random accesses across the directory) overlap instead of each
		// slotOf stalling behind the narrow that found it.
		// (An explicit prefetcht0 of each predicted block was measured
		// here and REGRESSED B=64 by 5-8%: the branch-free phase 1c
		// loop below already issues the chunk's block loads with full
		// memory-level parallelism, so the per-key assembly call cost
		// more than the head start saved. The insert path keeps its
		// prefetch — there the next block load overlaps a CAS.)
		for i := 0; i < cnt; i++ {
			slots[i] = int32(es[i].slotOf(keys[cb+i]))
		}
		// Phase 1c: issue the chunk's meta, key and value loads in a
		// branch-free loop, so the per-slot cache misses overlap
		// instead of serializing behind routing branches. The meta
		// load opens the seqlock read section; phase 2 closes it. All
		// three loads resolve inside one interleaved block.
		for i := 0; i < cnt; i++ {
			s := int(slots[i])
			b := &es[i].blocks[s>>blockShift]
			j := s & blockMask
			metas[i] = b.meta[j].Load()
			ks[i] = b.keys[j].Load()
			vs[i] = b.vals[j].Load()
		}
		// Phase 2: validate each snapshot and resolve. Anything that
		// observed a writer (or moved under us) retries through the
		// per-key path, which reloads the table and backs off.
		for i := 0; i < cnt; i++ {
			p := cb + i
			k := keys[p]
			e := es[i]
			s := int(slots[i])
			m1 := metas[i]
			// Hit fast path: a clean occupied snapshot with the key at
			// its predicted slot — the overwhelmingly common outcome on
			// a learned-layer-resident working set.
			if m1&(slotLockBit|slotOccupied|slotTomb) == slotOccupied &&
				ks[i] == k && e.metaRef(s).Load() == m1 {
				vals[p], found[p] = vs[i], true
				continue
			}
			if m1&slotLockBit != 0 || e.metaRef(s).Load() != m1 {
				vals[p], found[p] = t.Get(k)
				continue
			}
			switch st := stateOf(m1); {
			case st == 0:
				// Empty prediction target proves absence
				// (invariant 2), exactly as in Get.
				vals[p], found[p] = 0, false
			case st&slotOccupied != 0:
				if ks[i] == k {
					vals[p], found[p] = vs[i], true
					continue
				}
				// The snapshot was validated above, so the sidecar can
				// short-circuit the ART traversal exactly as in Get.
				if e.m.absentInART(k, s) {
					vals[p], found[p] = 0, false
					continue
				}
				if e.m != fpm {
					fpm = e.m
					fp = t.fpNode(fpm)
				}
				v, ok, _ := t.tree.GetFrom(fp, k)
				if ok {
					vals[p], found[p] = v, true
					continue
				}
				if e.metaRef(s).Load() != m1 {
					// Concurrent migration between the two
					// probes; the per-key loop sorts it out.
					vals[p], found[p] = t.Get(k)
					continue
				}
				vals[p], found[p] = 0, false
			default:
				// Tombstone: rare, and the per-key path owns the
				// write-back protocol.
				vals[p], found[p] = t.Get(k)
			}
		}
	}
	// Drop the entry pointers before pooling the scratch: a retained
	// scratch would otherwise pin a superseded table's directory (and
	// through it the retired models) for as long as it sits in the pool.
	clear(g.es[:])
	getScratchPool.Put(g)
}

// InsertBatch implements index.Batcher: one table load and amortized
// routing per batch, with the in-place fast paths (free slot, same-key
// upsert) inlined and everything else — conflict eviction, tombstone
// claims, contention, retraining triggers — delegated to the per-key
// Insert. Duplicate keys in one batch apply in their original order
// (the routing order is stable), so last-writer-wins is preserved.
//
// Pairs are applied in sorted key order, not submission order, and the
// batch stops at the first error it encounters in that order — so on
// error the partially-applied prefix and the returned error reflect key
// order, as the index.Batcher contract permits.
func (t *ALT) InsertBatch(pairs []index.KV) error {
	eg := t.ebr.Pin()
	defer eg.Unpin()
	tab := t.tab.Load()
	fpBatchReload.Inject()
	// Below insertBatchMin the permutation and grouping cannot pay for
	// themselves (writes are dominated by slot CAS traffic and retrain
	// amortization, so there is less routing to save than on reads);
	// tiny batches take the plain per-key loop.
	if len(tab.dir) == 0 || len(pairs) < insertBatchMin {
		for _, kv := range pairs {
			if err := t.Insert(kv.Key, kv.Value); err != nil {
				return err
			}
		}
		return nil
	}
	sc := batchScratchPool.Get().(*batchScratch)
	base, span := tab.keySpan()
	ord := orderPairs(sc, pairs, base, span)

	// Routing: one route per group — ord is ascending, so a group runs
	// until the keys cross its model's upper boundary.
	last := len(tab.dir) - 1
	var err error
	for i := 0; i < len(ord) && err == nil; {
		mi := tab.route(ord[i].key)
		hi := tab.upperBound(mi)
		// Extend the group while keys keep hitting the same model
		// (the last model also owns its inclusive upper bound). ord is
		// ascending, so only the upper bound can end the group.
		j := i + 1
		for j < len(ord) && (ord[j].key < hi || mi == last) {
			j++
		}
		err = t.insertGroup(tab, mi, ord[i:j], pairs)
		i = j
	}
	putBatchScratch(sc, ord)
	return err
}

// insertGroup upserts one model's (ascending) entries through insertAt —
// the same single-attempt protocol body the per-key Insert runs, covering
// free-slot claims, same-key upserts, conflict eviction to ART and the
// retraining trigger without re-routing the key. Only contention (a
// locked slot or a metadata race) falls back to the per-key Insert, which
// owns backoff and table reloads.
func (t *ALT) insertGroup(tab *table, mi int, ents []batchEnt, pairs []index.KV) error {
	de := &tab.dir[mi]
	for gi, e := range ents {
		// Pull the next entry's slot block in while this entry's CAS
		// round-trips; ents is ascending so the prediction is exact.
		if gi+1 < len(ents) {
			de.prefetch(de.slotOf(ents[gi+1].key))
		}
		k, v := e.key, pairs[e.pos].Value
		if t.insertAt(tab, mi, k, v) {
			continue
		}
		if err := t.Insert(k, v); err != nil {
			return err
		}
	}
	return nil
}
