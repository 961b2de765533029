package core

import (
	"sync"

	"altindex/internal/art"
	"altindex/internal/index"
)

// Batched operations (index.Batcher). The per-key hot path pays an atomic
// table load, a routing chain (router window, bracket, narrow, directory
// entry) and a slot probe, each step waiting on the one before it, for
// every single Get/Insert. GetBatch and InsertBatch run one pipeline that
// overlaps those steps across a chunk of keys, in caller order:
//
//   - one tab.Load() and one epoch pin per batch instead of per key;
//   - routeChunk, shared by both: the route is split into bracket-load /
//     narrow / predict sub-passes so the router-table and directory loads
//     of a whole chunk overlap instead of each key's routing chain
//     serializing behind its predecessor's;
//   - a per-chunk pass that starts every predicted slot's cache lines
//     toward L1 before any of them is needed — GetBatch with a branch-free
//     loop of the seqlock loads themselves, InsertBatch with prefetches,
//     since its slot protocol (insertAt) does its own loads;
//   - a resolve pass: GetBatch validates the snapshots, InsertBatch calls
//     insertAt per pair. The model's fast-pointer ART entry node is
//     resolved at most once per model run and only when a conflict key
//     actually escapes to ART.
//
// Neither path sorts. With the router, routing is order-independent, and
// sorting the batch (tried for both: a (key, position) permutation via
// range-adaptive radix scatter) costs more per key than the locality it
// buys at this model-directory granularity: a random batch holds about one
// key per model, so grouping by model groups nothing, and an ascending
// batch is already grouped. Caller order also makes duplicate keys in a
// write batch trivially last-writer-wins.
//
// Correctness: the batch fast paths are byte-for-byte the per-key
// protocol — GetBatch's meta load opens the same seqlock read section
// that model.read opens, and its resolve pass's meta recheck closes it;
// the snapshot is discarded and the key retried through the per-key path
// on any observed writer. InsertBatch's writes all go through insertAt,
// the body of the per-key Insert. A stale table observed mid-batch is
// harmless for the same reason it is harmless between a per-key Load and
// use: a retrained model is frozen (all slots locked), so every operation
// routed to it falls back and escapes to the new table.

var _ index.Batcher = (*ALT)(nil)

// batchChunk is the sub-batch processed per pipeline pass. It bounds the
// scratch so batch calls stay allocation-free; a chunk's routed entries
// and slot lines stay resident in L1 between the passes.
const batchChunk = 64

// batchMin is the smallest batch worth the chunked pipeline; smaller ones
// go through the per-key loop.
const batchMin = 8

// chunkScratch is the batch pipeline's per-chunk working state. Pooled
// rather than stack-allocated: as locals the ~3KB of arrays would be zeroed
// on every call, a real cost at small batch sizes.
type chunkScratch struct {
	es    [batchChunk]*entry
	slots [batchChunk]int32
	pos   [batchChunk]int32 // routed directory position (bracket low end until narrowed)
	his   [batchChunk]int32
	metas [batchChunk]uint32
	ks    [batchChunk]uint64 // GetBatch: key snapshots; InsertBatch: the chunk's keys
	vs    [batchChunk]uint64
}

var chunkScratchPool = sync.Pool{New: func() any { return new(chunkScratch) }}

// putChunkScratch drops the entry pointers before pooling the scratch: a
// retained scratch would otherwise pin a superseded table's directory (and
// through it the retired models) for as long as it sits in the pool.
func putChunkScratch(g *chunkScratch) {
	clear(g.es[:])
	chunkScratchPool.Put(g)
}

// routeChunk routes one chunk (len(keys) <= batchChunk): on return, for
// every i, g.pos[i] is keys[i]'s directory position, g.es[i] its entry
// and g.slots[i] its predicted slot. The one batch router, for reads and
// writes alike.
func (tb *table) routeChunk(g *chunkScratch, keys []uint64) {
	es, slots, pos, his := &g.es, &g.slots, &g.pos, &g.his
	// Pass a: load every key's model bracket from the router. The loop
	// has only well-predicted branches (a skewed workload keeps hitting
	// sub-tabled or plain windows consistently), so the router loads of
	// the whole chunk overlap instead of each key's routing chain
	// serializing behind its predecessor's. Duplicate keys (zipfian hot
	// keys repeat within a batch) are NOT folded: a chunk-local dedup
	// hash was tried and its fixed per-key cost exceeded what the ~14%
	// duplicates at B=64 saved, because a repeated key's slot lines are
	// already hot in L1.
	for i, k := range keys {
		pos[i], his[i] = tb.bracket(k)
	}
	// Pass b: resolve each bracket to the responsible directory entry
	// (the brackets are usually already exact: the router has several
	// times more windows than the directory has models).
	// (The exact-bracket skip stays apart from narrow's own loop test:
	// folded into it, a B=64 core microbenchmark ran 3-6% slower.)
	fs, dir := tb.bounds, tb.dir
	for i, k := range keys {
		mi := int(pos[i])
		if hi := int(his[i]); hi > mi {
			mi = narrow(fs, k, mi, hi)
			pos[i] = int32(mi)
		}
		es[i] = &dir[mi]
	}
	// The slot predictions run in a third pass so the entry loads
	// (random accesses across the directory) overlap instead of each
	// slotOf stalling behind the narrow that found it.
	for i, k := range keys {
		slots[i] = int32(es[i].slotOf(k))
	}
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
	// batchMin the chunk machinery costs more than it overlaps; take the
	// per-key path (which also owns the pre-table bootstrap recheck).
	if len(tab.dir) == 0 || len(keys) < batchMin {
		for i, k := range keys {
			vals[i], found[i] = t.Get(k)
		}
		return
	}

	g := chunkScratchPool.Get().(*chunkScratch)
	es := &g.es
	slots := &g.slots
	metas := &g.metas
	ks := &g.ks
	vs := &g.vs
	// The fast-pointer entry node is only needed for conflict keys that
	// escaped to ART; resolve it lazily and cache it per model run.
	var fpm *model
	var fp *art.Node
	for cb := 0; cb < len(keys); cb += batchChunk {
		cnt := min(len(keys)-cb, batchChunk)
		// Phase 1a/1b: route the chunk and predict its slots.
		tab.routeChunk(g, keys[cb:cb+cnt])
		// Phase 1c: issue the chunk's meta, key and value loads in a
		// branch-free loop, so the per-slot cache misses overlap
		// instead of serializing behind routing branches. The meta
		// load opens the seqlock read section; phase 2 closes it. All
		// three loads resolve inside one interleaved block.
		// (An explicit prefetcht0 of each predicted block ahead of this
		// loop was measured and REGRESSED B=64 by 5-8%: the loop already
		// issues the chunk's block loads with full memory-level
		// parallelism, so the per-key assembly call cost more than the
		// head start saved. InsertBatch prefetches instead because
		// insertAt does its own loads.)
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
				if e.absentInART(k, s) {
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
	putChunkScratch(g)
}

// InsertBatch implements index.Batcher: the same route → prefetch → apply
// pipeline as GetBatch, in submission order. Every pair goes through
// insertAt — the single-attempt body of the per-key Insert, covering
// free-slot claims, same-key upserts, tombstone claims, conflict eviction
// to ART and the retraining trigger without re-routing the key. Only
// contention (a locked slot or a metadata race, which includes a model
// retrained since the batch loaded its table) falls back to the per-key
// Insert, which owns backoff and table reloads. The batch stops at the
// first error in submission order; the pairs before it are applied.
func (t *ALT) InsertBatch(pairs []index.KV) error {
	eg := t.ebr.Pin()
	defer eg.Unpin()
	tab := t.tab.Load()
	fpBatchReload.Inject()
	if len(tab.dir) == 0 || len(pairs) < batchMin {
		for _, kv := range pairs {
			if err := t.Insert(kv.Key, kv.Value); err != nil {
				return err
			}
		}
		return nil
	}

	g := chunkScratchPool.Get().(*chunkScratch)
	defer putChunkScratch(g)
	for cb := 0; cb < len(pairs); cb += batchChunk {
		chunk := pairs[cb:min(cb+batchChunk, len(pairs))]
		keys := g.ks[:len(chunk)]
		for i := range chunk {
			keys[i] = chunk[i].Key
		}
		tab.routeChunk(g, keys)
		// Phase 1c: start every pair's slot lines toward L1, so the
		// chunk's misses overlap instead of each insertAt stalling on
		// its own.
		for i := range keys {
			g.es[i].prefetch(int(g.slots[i]))
		}
		// Phase 2: apply in submission order.
		for i, kv := range chunk {
			if t.insertAt(tab, int(g.pos[i]), kv.Key, kv.Value) {
				continue
			}
			if err := t.Insert(kv.Key, kv.Value); err != nil {
				return err
			}
		}
	}
	return nil
}
