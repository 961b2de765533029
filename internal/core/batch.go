package core

import (
	"sync"
	"unsafe"

	"altindex/internal/art"
	"altindex/internal/index"
	"altindex/internal/prefetch"
)

// Batched operations (index.Batcher). The per-key hot path pays an atomic
// table load, a routing chain (router window, bracket, narrow, directory
// entry), a slot probe and — for a conflict key — a fast-pointer hop and
// an ART descent, each step waiting on the one before it, for every single
// Get/Insert. GetBatchGroups and InsertBatchGroups run one pipeline that
// overlaps those steps across a chunk of keys, in caller order. The keys
// come in groups, each bound for its own ALT (the shards of the sharded
// front-end; GetBatch and InsertBatch are the one-group case), and a chunk
// runs across group boundaries, so a 64-key batch split four ways is still
// one 64-lane chunk:
//
//   - one tab.Load() per group per call;
//   - route (routeChunk): bracket-load / narrow / predict sub-passes, so
//     the router-table and directory loads of a whole chunk overlap
//     instead of each key's routing chain serializing behind its
//     predecessor's;
//   - probe: a branch-free loop of the seqlock loads themselves, which
//     starts every predicted slot's lines toward L1 together;
//   - classify + descend (descend): the lanes whose snapshot shows the
//     slot held by a different key are ART-bound; their model line (and
//     sidecar tag), fast-pointer entry and — art.PrefetchPaths — tree
//     path nodes are prefetched in lockstep, one level per round;
//   - resolve / apply: GetBatchGroups validates the snapshots exactly as
//     Get does, InsertBatchGroups calls insertAt per pair. Both find the
//     model, tag, fast-pointer and node lines the descent warmed.
//
// The descent is advisory. It reads the snapshot without validating it,
// takes no version checks in the tree and hands nothing to the resolve and
// apply passes but warm cache lines: those run the per-key protocol
// unchanged, so a lane the descent misjudged (a snapshot a writer was
// tearing, a node replaced under the walker) costs a useless prefetch or a
// cold miss, never a wrong answer. Walkers that instead resolve the lookup
// — version snapshots, lock coupling and restarts kept per walker, AMAC
// proper — measured the same latency on mem-range when this stage was
// sized (DESIGN.md §4) and would have been a second lookup protocol to
// keep correct, so they were not built.
//
// Nothing sorts. With the router, routing is order-independent, and
// sorting the batch (tried for both directions: a (key, position)
// permutation via range-adaptive radix scatter) costs more per key than
// the locality it buys at this model-directory granularity: a random batch
// holds about one key per model, so grouping by model groups nothing, and
// an ascending batch is already grouped. Caller order also makes duplicate
// keys in a write batch trivially last-writer-wins.
//
// Correctness: the batch fast paths are byte-for-byte the per-key
// protocol — the probe's meta load opens the same seqlock read section
// that model.read opens, and the resolve pass's meta recheck closes it;
// the snapshot is discarded and the key retried through the per-key path
// on any observed writer. InsertBatchGroups' writes all go through
// insertAt, the body of the per-key Insert. A stale table observed
// mid-batch is harmless for the same reason it is harmless between a
// per-key Load and use: a retrained model is frozen (all slots locked), so
// every operation routed to it falls back and escapes to the new table.

var _ index.Batcher = (*ALT)(nil)

// batchChunk is the sub-batch processed per pipeline pass. It bounds the
// scratch so batch calls stay allocation-free; a chunk's routed entries
// and slot lines stay resident in L1 between the passes.
const batchChunk = 64

// batchMin is the smallest batch worth the chunked pipeline; smaller ones
// go through the per-key loop.
const batchMin = 8

// chunkScratch is the batch pipeline's working state: the groups' loaded
// tables and one chunk's lanes. Pooled rather than stack-allocated: as
// locals the ~4KB of arrays would be zeroed on every call, a real cost at
// small batch sizes.
type chunkScratch struct {
	tabs []*table // tabs[s] is group s's table, loaded once per call

	es    [batchChunk]*entry
	own   [batchChunk]int32 // the lane's group
	slots [batchChunk]int32
	pos   [batchChunk]int32 // routed directory position (bracket low end until narrowed)
	his   [batchChunk]int32
	metas [batchChunk]uint32
	ks    [batchChunk]uint64 // key snapshots
	vs    [batchChunk]uint64
	qs    [batchChunk]uint64 // InsertBatchGroups: the chunk's keys

	// The descent's walkers, one per ART-bound lane.
	lanes [batchChunk]int32
	nodes [batchChunk]*art.Node
	wkeys [batchChunk]uint64
}

var chunkScratchPool = sync.Pool{New: func() any { return new(chunkScratch) }}

// putChunkScratch drops the table, entry and node pointers before pooling
// the scratch: a retained scratch would otherwise pin a superseded table's
// directory (and through it the retired models) for as long as it sits in
// the pool.
func putChunkScratch(g *chunkScratch) {
	clear(g.tabs)
	clear(g.es[:])
	clear(g.nodes[:])
	chunkScratchPool.Put(g)
}

// loadGroups loads every group's table into a pooled scratch, for a batch
// of n operations. It returns nil below batchMin, where the chunk
// machinery costs more than it overlaps and the caller takes the per-key
// path instead.
func loadGroups(ts []*ALT, n int) *chunkScratch {
	if n < batchMin {
		return nil
	}
	g := chunkScratchPool.Get().(*chunkScratch)
	g.tabs = g.tabs[:0]
	for _, t := range ts {
		g.tabs = append(g.tabs, t.tab.Load())
	}
	fpBatchReload.Inject()
	return g
}

// routeChunk routes one chunk — positions [cb, cb+len(keys)) of the
// batch, none of them in a group before s — through its groups' tables: on
// return, for every lane i, g.own[i] is keys[i]'s group, g.pos[i] its
// directory position there, g.es[i] its entry and g.slots[i] its predicted
// slot. The one batch router, for reads and writes alike. It returns the
// last lane's group, the next chunk's s.
func routeChunk(g *chunkScratch, ends []int32, s, cb int, keys []uint64) int {
	es, own, slots, pos, his := &g.es, &g.own, &g.slots, &g.pos, &g.his
	// Pass a: load every key's model bracket from its group's router. The
	// loop has only well-predicted branches (a skewed workload keeps
	// hitting windows of the same sub-table depth), so the router
	// loads of the whole chunk overlap instead of each key's routing chain
	// serializing behind its predecessor's. Duplicate keys (zipfian hot
	// keys repeat within a batch) are NOT folded: a chunk-local dedup
	// hash was tried and its fixed per-key cost exceeded what the ~14%
	// duplicates at B=64 saved, because a repeated key's slot lines are
	// already hot in L1.
	for i := 0; i < len(keys); s++ {
		hi := min(int(ends[s])-cb, len(keys))
		tb := g.tabs[s]
		for ; i < hi; i++ {
			pos[i], his[i] = tb.bracket(keys[i])
			own[i] = int32(s)
		}
	}
	// Pass b: resolve each bracket to the responsible directory entry
	// (the brackets are usually already exact or one apart, and no bracket
	// inside the router's grid spans more than nestWide models), with the
	// group's boundaries and directory hoisted over its run of lanes.
	// (The exact-bracket skip stays apart from narrow's own loop test:
	// folded into it, a B=64 core microbenchmark ran 3-6% slower.)
	for i := 0; i < len(keys); {
		o := own[i]
		fs, dir := g.tabs[o].bounds, g.tabs[o].dir
		for ; i < len(keys) && own[i] == o; i++ {
			mi := int(pos[i])
			if hi := int(his[i]); hi > mi {
				mi = narrow(fs, keys[i], mi, hi)
				pos[i] = int32(mi)
			}
			es[i] = &dir[mi]
		}
	}
	// The slot predictions run in a third pass so the entry loads
	// (random accesses across the directories) overlap instead of each
	// slotOf stalling behind the narrow that found it.
	for i, k := range keys {
		slots[i] = int32(es[i].slotOf(k))
	}
	return int(own[len(keys)-1])
}

// probeChunk issues the routed chunk's meta, key and value loads in a
// branch-free loop, so the per-slot cache misses overlap instead of
// serializing behind routing branches. The meta load opens the seqlock
// read section GetBatchGroups' resolve pass closes. All three loads
// resolve inside one interleaved block.
// (An explicit prefetch of each predicted block ahead of this loop was
// measured and REGRESSED B=64 by 5-8%: the loop already issues the chunk's
// block loads with full memory-level parallelism, so the per-key assembly
// call cost more than the head start saved. InsertBatchGroups, whose
// insertAt does its own loads, shares the loop all the same: descend
// needs the snapshots.)
func probeChunk(g *chunkScratch, cnt int) {
	for i := 0; i < cnt; i++ {
		s := int(g.slots[i])
		b := &g.es[i].blocks[s>>blockShift]
		j := s & blockMask
		g.metas[i] = b.meta[j].Load()
		g.ks[i] = b.keys[j].Load()
		g.vs[i] = b.vals[j].Load()
	}
}

// descend warms the ART side of the probed chunk. A lane whose snapshot
// shows its slot cleanly occupied by a different key will, unless a writer
// intervenes, go to its group's tree through the model's fast pointer —
// the one chain of dependent misses routing and probing leave serial. The
// lanes are collected and their chains advanced together, a link per pass:
// the model's fastIdx (with tags, reads' flag, also the lane's sidecar tag
// while it is live: a sidecar and no spill bit), the fast-pointer buffer
// entry, then the tree path, by art.PrefetchPaths from the fast-pointer
// node or, without one, the root. insertAt never reads the tag. Nothing
// here is validated and nothing is kept: see the package comment on why.
func descend(g *chunkScratch, ts []*ALT, keys []uint64, tags bool) {
	n := 0
	for i, k := range keys {
		if g.metas[i]&(slotLockBit|slotOccupied|slotTomb) == slotOccupied && g.ks[i] != k {
			g.lanes[n] = int32(i)
			n++
			prefetch.T0(unsafe.Pointer(&g.es[i].m.fastIdx))
			if tags && g.es[i].tags != nil && g.metas[i]&slotSpill == 0 {
				prefetch.T0(unsafe.Add(unsafe.Pointer(g.es[i].tags), g.slots[i]))
			}
		}
	}
	if n == 0 {
		return
	}
	for _, i := range g.lanes[:n] {
		t := ts[g.own[i]]
		if idx := g.es[i].m.fastIdx.Load(); idx >= 0 && int(idx) < len(t.fp.entries) {
			prefetch.T0(unsafe.Pointer(&t.fp.entries[idx]))
		}
	}
	for w, i := range g.lanes[:n] {
		t := ts[g.own[i]]
		nd := t.fpNode(g.es[i].m)
		if nd == nil {
			nd = t.tree.Root()
		}
		g.nodes[w], g.wkeys[w] = nd, keys[i]
	}
	art.PrefetchPaths(g.nodes[:n], g.wkeys[:n])
}

// stageChunk runs the stages both directions share — route, probe,
// classify + descend — over one chunk; see routeChunk for s, cb and the
// result, and descend for tags.
func stageChunk(g *chunkScratch, ts []*ALT, ends []int32, s, cb int, keys []uint64, tags bool) int {
	s = routeChunk(g, ends, s, cb, keys)
	probeChunk(g, len(keys))
	descend(g, ts, keys, tags)
	return s
}

// GetBatch implements index.Batcher: the one-group case of GetBatchGroups.
func (t *ALT) GetBatch(keys []uint64, vals []uint64, found []bool) {
	GetBatchGroups([]*ALT{t}, []int32{int32(len(keys))}, keys, vals, found)
}

// GetBatchGroups looks keys up in groups: group s is positions
// [ends[s-1], ends[s]) of keys (from 0 for s = 0; empty groups are fine)
// and is looked up in ts[s], with the results at the same positions of
// vals and found, which must be at least len(keys) long. Keys are
// processed in caller order (no permutation): the router makes routing
// order-independent, so sorting the batch would cost more than the
// locality it buys.
func GetBatchGroups(ts []*ALT, ends []int32, keys []uint64, vals []uint64, found []bool) {
	if len(keys) == 0 {
		return
	}
	g := loadGroups(ts, len(keys))
	if g == nil {
		p := 0
		for s, t := range ts {
			for ; p < int(ends[s]); p++ {
				vals[p], found[p] = t.Get(keys[p])
			}
		}
		return
	}
	defer putChunkScratch(g)

	es, slots, metas, ks, vs := &g.es, &g.slots, &g.metas, &g.ks, &g.vs
	// The fast-pointer entry node is only needed for conflict keys that
	// escaped to ART; resolve it lazily and cache it per model run.
	var fpm *model
	var fp *art.Node
	grp := 0
	for cb := 0; cb < len(keys); cb += batchChunk {
		cnt := min(len(keys)-cb, batchChunk)
		grp = stageChunk(g, ts, ends, grp, cb, keys[cb:cb+cnt], true)
		// Resolve: validate each snapshot. Anything that observed a
		// writer (or moved under us) retries through the per-key path,
		// which reloads the table and backs off.
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
			t := ts[g.own[i]]
			if m1&slotLockBit != 0 || e.metaRef(s).Load() != m1 {
				vals[p], found[p] = t.Get(k)
				continue
			}
			st := stateOf(m1)
			if st == 0 {
				// Empty prediction target proves absence
				// (invariant 2), exactly as in Get.
				vals[p], found[p] = 0, false
				continue
			}
			if st&slotOccupied != 0 && ks[i] == k {
				vals[p], found[p] = vs[i], true
				continue
			}
			// Another key or a tombstone: Get's ART arm. The snapshot
			// was validated above, so the sidecar can short-circuit the
			// traversal exactly as in Get.
			if e.absentInART(k, s, m1) {
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
				// A write or a freeze between the two probes; the
				// per-key loop sorts it out.
				vals[p], found[p] = t.Get(k)
				continue
			}
			vals[p], found[p] = 0, false
		}
	}
}

// InsertBatch implements index.Batcher: the one-group case of
// InsertBatchGroups.
func (t *ALT) InsertBatch(pairs []index.KV) error {
	return InsertBatchGroups([]*ALT{t}, []int32{int32(len(pairs))}, pairs)
}

// InsertBatchGroups upserts pairs in groups laid out as GetBatchGroups'
// are — group s is positions [ends[s-1], ends[s]) and goes to ts[s] —
// through the same route → probe → descend pipeline, in submission order.
// Every pair goes through insertAt — the single-attempt body of the per-key Insert, covering free-slot claims,
// same-key upserts, tombstones (an ART-copy update or a claim), conflict eviction to ART and the
// retraining trigger without re-routing the key. Only contention (a locked
// slot or a metadata race, which includes a model retrained since the
// batch loaded its table) falls back to the per-key Insert, which owns
// backoff and table reloads. The batch stops at the first error in
// submission order; the pairs before it are applied.
func InsertBatchGroups(ts []*ALT, ends []int32, pairs []index.KV) error {
	if len(pairs) == 0 {
		return nil
	}
	g := loadGroups(ts, len(pairs))
	if g == nil {
		p := 0
		for s, t := range ts {
			for ; p < int(ends[s]); p++ {
				if err := t.Insert(pairs[p].Key, pairs[p].Value); err != nil {
					return err
				}
			}
		}
		return nil
	}
	defer putChunkScratch(g)

	grp := 0
	for cb := 0; cb < len(pairs); cb += batchChunk {
		chunk := pairs[cb:min(cb+batchChunk, len(pairs))]
		keys := g.qs[:len(chunk)]
		for i := range chunk {
			keys[i] = chunk[i].Key
		}
		grp = stageChunk(g, ts, ends, grp, cb, keys, false)
		// Apply in submission order.
		for i, kv := range chunk {
			o := g.own[i]
			if t := ts[o]; !t.insertAt(g.tabs[o], int(g.pos[i]), kv.Key, kv.Value) {
				if err := t.Insert(kv.Key, kv.Value); err != nil {
					return err
				}
			}
		}
	}
	return nil
}
