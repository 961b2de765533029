package shard

import (
	"sync"

	"altindex/internal/core"
	"altindex/internal/index"
)

// splitMin is the batch size below which per-key routing beats the
// counting-sort split (mirrors core's batchMin).
const splitMin = 8

// fanoutMin is the batch size above which per-shard sub-batches run on
// their own goroutines instead of sequentially in shard order.
const fanoutMin = 2048

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
// scatter cursor positioned at each group's start. Returns the number of
// non-empty groups. O(n + S), no comparisons beyond the router's. (The
// callers classify in their own typed loops: a key-accessor closure here
// cost an indirect call per key, 4-5% of both batch legs.)
func (sc *splitScratch) groupByShard(r *routing, n int) int {
	ns := r.last + 1
	clear(sc.cnt[:ns+1])
	for _, s := range sc.sid[:n] {
		sc.cnt[s]++
	}
	touched := 0
	off := int32(0)
	for s := 0; s < ns; s++ {
		if sc.cnt[s] > 0 {
			touched++
		}
		sc.start[s] = off
		off += sc.cnt[s]
		sc.cnt[s] = sc.start[s] // becomes the scatter cursor
	}
	sc.start[ns] = off
	return touched
}

// GetBatch implements index.Batcher: the batch is split by shard boundary
// in O(B + S), the shard-grouped keys go through core's grouped pipeline
// in one call — its chunks span the shard groups, so a batch split S ways
// still overlaps the misses of all its keys — and the results scatter back
// to the caller's positions. Large batches touching several shards instead
// fan out, one goroutine per group.
func (t *ALT) GetBatch(keys []index.Key, vals []index.Value, found []bool) {
	n := len(keys)
	if n == 0 {
		return
	}
	r := t.route.Load()
	fpRoute.Inject()
	if r.last == 0 {
		d := &r.shards[0]
		d.ops.Add(int64(n))
		d.ix.GetBatch(keys, vals, found)
		return
	}
	if n < splitMin {
		for i, k := range keys {
			d := r.descOf(k)
			d.ops.Add(1)
			vals[i], found[i] = d.ix.Get(k)
		}
		return
	}

	sc := splitPool.Get().(*splitScratch)
	sc.sid = growU8(sc.sid, n)
	for i, k := range keys {
		sc.sid[i] = uint8(r.shardOf(k))
	}
	touched := sc.groupByShard(r, n)
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
	r.countOps(sc)

	if n >= fanoutMin && touched > 1 {
		var wg sync.WaitGroup
		for s := 0; s <= r.last; s++ {
			lo, hi := sc.start[s], sc.start[s+1]
			if lo == hi {
				continue
			}
			wg.Add(1)
			go func(s int, lo, hi int32) {
				defer wg.Done()
				d := &r.shards[s]
				d.ix.GetBatch(sc.keys[lo:hi], sc.vals[lo:hi], sc.found[lo:hi])
			}(s, lo, hi)
		}
		wg.Wait()
	} else {
		core.GetBatchGroups(r.ixs, sc.start[1:r.last+2], sc.keys, sc.vals, sc.found)
	}
	for j, p := range sc.pos {
		vals[p] = sc.vals[j]
		found[p] = sc.found[j]
	}
	putSplit(sc)
}

// InsertBatch implements index.Batcher by splitting the batch across
// shards like GetBatch. The split is a stable counting sort and the groups
// apply in order, so every shard sees its pairs in submission order and
// duplicate keys — which always route to the same shard — are
// last-writer-wins. On error, groups routed to other shards may already
// have been applied; within the failing group the pairs before the error
// are applied and the error is that group's first in submission order.
// Across groups the error returned is the first in shard order.
func (t *ALT) InsertBatch(pairs []index.KV) error {
	n := len(pairs)
	if n == 0 {
		return nil
	}
	r := t.route.Load()
	fpRoute.Inject()
	if r.last == 0 {
		d := &r.shards[0]
		d.ops.Add(int64(n))
		return d.ix.InsertBatch(pairs)
	}
	if n < splitMin {
		for _, kv := range pairs {
			d := r.descOf(kv.Key)
			d.ops.Add(1)
			if err := d.ix.Insert(kv.Key, kv.Value); err != nil {
				return err
			}
		}
		return nil
	}

	sc := splitPool.Get().(*splitScratch)
	sc.sid = growU8(sc.sid, n)
	for i := range pairs {
		sc.sid[i] = uint8(r.shardOf(pairs[i].Key))
	}
	touched := sc.groupByShard(r, n)
	sc.pairs = growKV(sc.pairs, n)
	for i, kv := range pairs {
		p := sc.cnt[sc.sid[i]]
		sc.cnt[sc.sid[i]] = p + 1
		sc.pairs[p] = kv
	}
	r.countOps(sc)

	var firstErr error
	if n >= fanoutMin && touched > 1 {
		errs := make([]error, r.last+1)
		var wg sync.WaitGroup
		for s := 0; s <= r.last; s++ {
			lo, hi := sc.start[s], sc.start[s+1]
			if lo == hi {
				continue
			}
			wg.Add(1)
			go func(s int, lo, hi int32) {
				defer wg.Done()
				d := &r.shards[s]
				errs[s] = d.ix.InsertBatch(sc.pairs[lo:hi])
			}(s, lo, hi)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				firstErr = err
				break
			}
		}
	} else {
		firstErr = core.InsertBatchGroups(r.ixs, sc.start[1:r.last+2], sc.pairs)
	}
	putSplit(sc)
	return firstErr
}

// countOps adds the split batch's group sizes to the shards' op counters.
func (r *routing) countOps(sc *splitScratch) {
	for s := 0; s <= r.last; s++ {
		if c := sc.start[s+1] - sc.start[s]; c > 0 {
			r.shards[s].ops.Add(int64(c))
		}
	}
}
