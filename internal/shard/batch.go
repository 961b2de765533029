package shard

import (
	"sync"

	"altindex/internal/core"
	"altindex/internal/index"
)

// splitScratch holds the shard-grouped staging buffers for one batch
// split: sid[i] is the shard of element i, cnt/start are the counting-sort
// histogram and group offsets, and keys/vals/found/pos (gets) or pairs
// (inserts) are the grouped payloads. Pooled so steady-state batches
// allocate nothing.
type splitScratch struct {
	sid   []uint8
	pos   []int32
	keys  []index.Key
	vals  []index.Value
	found []bool
	pairs []index.KV
	cnt   [MaxShards + 1]int32
	start [MaxShards + 1]int32
}

var splitPool = sync.Pool{New: func() any { return new(splitScratch) }}

// maxPooledSplit caps the staging capacity retained by the pool; larger
// one-off batches are allocated and dropped.
const maxPooledSplit = 1 << 16

func putSplit(sc *splitScratch) {
	if cap(sc.sid) > maxPooledSplit {
		return
	}
	splitPool.Put(sc)
}

func growU8(s []uint8, n int) []uint8 {
	if cap(s) < n {
		return make([]uint8, n)
	}
	return s[:n]
}

func growI32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

func growU64(s []uint64, n int) []uint64 {
	if cap(s) < n {
		return make([]uint64, n)
	}
	return s[:n]
}

func growBool(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	return s[:n]
}

func growKV(s []index.KV, n int) []index.KV {
	if cap(s) < n {
		return make([]index.KV, n)
	}
	return s[:n]
}

// groupByShard turns the per-element shard ids the caller wrote to
// sc.sid[:n] into shard groups with a stable counting sort: after the call
// sc.start[s]..sc.start[s+1] delimits shard s's group, and sc.cnt[s] is a
// scatter cursor positioned at each group's start. O(n + S), no
// comparisons beyond the router's. (The callers classify in their own
// typed loops: a key-accessor closure here cost an indirect call per key,
// 4-5% of both batch legs.)
func (sc *splitScratch) groupByShard(r *routing, n int) {
	ns := r.last + 1
	clear(sc.cnt[:ns+1])
	for _, s := range sc.sid[:n] {
		sc.cnt[s]++
	}
	off := int32(0)
	for s := 0; s < ns; s++ {
		sc.start[s] = off
		off += sc.cnt[s]
		sc.cnt[s] = sc.start[s] // becomes the scatter cursor
	}
	sc.start[ns] = off
}

// GetBatch implements index.Batcher: the batch is split by shard boundary
// in O(B + S), the shard-grouped keys go through core's grouped pipeline
// in one call — its chunks span the shard groups, so a batch split S ways
// still overlaps the misses of all its keys, and below core's batch
// minimum it runs core's per-key loop — and the results scatter back to
// the caller's positions.
func (t *ALT) GetBatch(keys []index.Key, vals []index.Value, found []bool) {
	n := len(keys)
	if n == 0 {
		return
	}
	r := t.route.Load()
	fpRoute.Inject()
	if r.last == 0 {
		r.ixs[0].GetBatch(keys, vals, found)
		return
	}

	sc := splitPool.Get().(*splitScratch)
	sc.sid = growU8(sc.sid, n)
	for i, k := range keys {
		sc.sid[i] = uint8(r.shardOf(k))
	}
	sc.groupByShard(r, n)
	sc.pos = growI32(sc.pos, n)
	sc.keys = growU64(sc.keys, n)
	sc.vals = growU64(sc.vals, n)
	sc.found = growBool(sc.found, n)
	for i, k := range keys {
		p := sc.cnt[sc.sid[i]]
		sc.cnt[sc.sid[i]] = p + 1
		sc.keys[p] = k
		sc.pos[p] = int32(i)
	}
	core.GetBatchGroups(r.ixs, sc.start[1:r.last+2], sc.keys, sc.vals, sc.found)
	for j, p := range sc.pos {
		vals[p] = sc.vals[j]
		found[p] = sc.found[j]
	}
	putSplit(sc)
}

// InsertBatch implements index.Batcher by splitting the batch across
// shards like GetBatch. The split is a stable counting sort and the groups
// apply in shard order through one pipeline call, so every shard sees its
// pairs in submission order and duplicate keys — which always route to the
// same shard — are last-writer-wins. The first error stops the batch: the
// groups of earlier shards and the failing group's pairs before the error
// are applied, nothing after it is.
func (t *ALT) InsertBatch(pairs []index.KV) error {
	n := len(pairs)
	if n == 0 {
		return nil
	}
	r := t.route.Load()
	fpRoute.Inject()
	if r.last == 0 {
		return r.ixs[0].InsertBatch(pairs)
	}

	sc := splitPool.Get().(*splitScratch)
	sc.sid = growU8(sc.sid, n)
	for i := range pairs {
		sc.sid[i] = uint8(r.shardOf(pairs[i].Key))
	}
	sc.groupByShard(r, n)
	sc.pairs = growKV(sc.pairs, n)
	for i, kv := range pairs {
		p := sc.cnt[sc.sid[i]]
		sc.cnt[sc.sid[i]] = p + 1
		sc.pairs[p] = kv
	}
	err := core.InsertBatchGroups(r.ixs, sc.start[1:r.last+2], sc.pairs)
	putSplit(sc)
	return err
}
