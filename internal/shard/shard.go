// Package shard range-partitions the keyspace across S independent
// core.ALT instances behind an immutable learned boundary router. Each
// shard is a whole index of its own: one copy-on-write model table, one
// retraining worker and one ART fallback, sharing nothing with the others.
//
// The layer goes beyond the paper, whose index is one flattened model
// table over one ART (§III-B, §III-C). It was built to remove the
// single-root contention that "Are Updatable Learned Indexes Ready?"
// (arXiv:2207.02900) describes, and the measurements here did not show
// that benefit: at ε 1,000 four shards lose every pair to one on read and
// write latency and on throughput (results/router_nest_pairs.txt). The
// package stays while the fixed benchmark's mem-range workload runs on it.
//
// Boundaries are equal-depth quantiles of the bulkload key sample
// (internal/gpl's sampled-CDF helpers), so shards hold equal key counts
// regardless of the distribution. Each routing generation is immutable:
// every routed operation resolves its shard with a branch-free binary
// search over at most 63 boundary keys, and immutability is what makes
// the router a single atomic pointer load with no coordination. The
// layout is static: Bulkload's quantiles are the only thing that sets
// boundaries, and nothing reshapes them while the index is in use, so no
// routed operation ever has to re-check its shard choice (DESIGN.md §9 has
// the measurement behind keeping it that way).
package shard

import (
	"sort"
	"sync"
	"sync/atomic"

	"altindex/internal/core"
	"altindex/internal/failpoint"
	"altindex/internal/gpl"
	"altindex/internal/index"
)

// MaxShards caps the shard count: 63 boundary keys fit one padded probe
// array, keeping the router branch-free (six predicated steps).
const MaxShards = 64

// sampleMax bounds the bulkload key sample the boundary quantiles are
// computed from.
const sampleMax = 1 << 16

// parallelBulkMin is the bulkload size above which per-shard loads run on
// their own goroutines. Each shard's core Bulkload fills its own shells on
// GOMAXPROCS goroutines too, so above it the two levels of goroutines nest.
const parallelBulkMin = 1 << 16

// ALT is a range-sharded ALT-index: it implements the same concurrent
// ordered-map surface as core.ALT (index.Concurrent, index.Batcher,
// scans, stats) by routing every operation to one of S core.ALT shards.
// Create with New; safe for concurrent use after Bulkload.
type ALT struct {
	opts  core.Options // per-shard options: Shards cleared
	route atomic.Pointer[routing]
}

var (
	_ index.Concurrent = (*ALT)(nil)
	_ index.Batcher    = (*ALT)(nil)
	_ index.Stats      = (*ALT)(nil)
)

// routing is the immutable router: boundary keys plus the shards.
// Replaced wholesale (atomically) by Bulkload, never mutated.
type routing struct {
	// pad holds the S-1 boundary keys padded to 63 entries with MaxUint64
	// sentinels, the shape the branch-free probe ladder needs. Shard i
	// owns keys k with pad[i-1] <= k < pad[i]; shard 0 also owns
	// everything below pad[0].
	pad  [MaxShards - 1]uint64
	last int // S-1, the highest shard id
	// ixs[i] is shard i. It is also the group targets core's grouped
	// batch pipeline takes, which a split batch passes as it lies.
	ixs []*core.ALT
}

// clampShards normalizes a requested shard count into [1, MaxShards].
func clampShards(s int) int {
	if s < 1 {
		s = 1
	}
	if s > MaxShards {
		s = MaxShards
	}
	return s
}

// New returns an empty sharded index with opts.Shards shards (clamped to
// [1, MaxShards]). Until Bulkload the boundaries are equal-width splits of
// the uint64 domain; Bulkload replaces them with equal-depth CDF
// quantiles of the loaded keys. Each shard is core.New(opts) with Shards
// cleared: an independent index with its own retraining worker.
func New(opts core.Options) *ALT {
	s := clampShards(opts.Shards)
	opts.Shards = 0
	t := &ALT{opts: opts}
	t.route.Store(t.newRouting(gpl.EqualWidthBounds(s)))
	return t
}

// newRouting builds a fresh routing table with len(bounds)+1 empty shards.
func (t *ALT) newRouting(bounds []uint64) *routing {
	r := &routing{last: len(bounds)}
	for i := range r.pad {
		r.pad[i] = ^uint64(0)
	}
	copy(r.pad[:], bounds)
	r.ixs = make([]*core.ALT, len(bounds)+1)
	for i := range r.ixs {
		r.ixs[i] = core.New(t.opts)
	}
	return r
}

// shardOf routes a key: the number of boundaries <= key, computed with a
// branch-free probe ladder over the padded boundary array (six predicated
// steps; the compiler lowers each `if` to a conditional move). The
// MaxUint64 sentinels are only ever counted for key == MaxUint64, which
// the final clamp routes to the last shard.
func (r *routing) shardOf(key uint64) int {
	p := 0
	if r.pad[p+31] <= key {
		p += 32
	}
	if r.pad[p+15] <= key {
		p += 16
	}
	if r.pad[p+7] <= key {
		p += 8
	}
	if r.pad[p+3] <= key {
		p += 4
	}
	if r.pad[p+1] <= key {
		p += 2
	}
	if r.pad[p] <= key {
		p++
	}
	if p > r.last {
		p = r.last
	}
	return p
}

// ixOf resolves a key's shard under the current routing.
func (r *routing) ixOf(key uint64) *core.ALT {
	return r.ixs[r.shardOf(key)]
}

// Shards returns the shard count.
func (t *ALT) Shards() int { return t.route.Load().last + 1 }

// Name implements index.Concurrent.
func (t *ALT) Name() string { return "ALT-sharded" }

// Len returns the number of live keys across all shards.
func (t *ALT) Len() int {
	r := t.route.Load()
	n := 0
	for _, ix := range r.ixs {
		n += ix.Len()
	}
	return n
}

// Bulkload replaces the index contents: boundaries are recomputed as
// equal-depth quantiles of a key sample, the sorted input is split by
// boundary, and each shard bulkloads its slice — in parallel for large
// loads, since the slices are disjoint.
// Like core.ALT's, it replaces the contents and must not run concurrently
// with any other method call.
func (t *ALT) Bulkload(pairs []index.KV) error {
	// Validate up front so a rejected load leaves the contents untouched.
	for i := 1; i < len(pairs); i++ {
		if pairs[i].Key <= pairs[i-1].Key {
			return index.ErrUnsortedBulk
		}
	}
	old := t.route.Load()
	s := old.last + 1
	bounds := old.pad[:old.last]
	if len(pairs) > 0 {
		keys := make([]uint64, len(pairs))
		for i := range pairs {
			keys[i] = pairs[i].Key
		}
		bounds = gpl.EqualDepthBounds(gpl.SampleKeys(keys, sampleMax), s)
	}
	nr := t.newRouting(bounds)

	// Split the sorted input at each boundary; shard i gets keys in
	// [bounds[i-1], bounds[i]).
	split := make([]int, s+1)
	split[s] = len(pairs)
	lo := 0
	for i := 0; i+1 < s; i++ {
		b := bounds[i]
		lo += sort.Search(len(pairs)-lo, func(j int) bool { return pairs[lo+j].Key >= b })
		split[i+1] = lo
	}

	errs := make([]error, s)
	if len(pairs) >= parallelBulkMin && s > 1 {
		var wg sync.WaitGroup
		for i := 0; i < s; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				errs[i] = nr.ixs[i].Bulkload(pairs[split[i]:split[i+1]])
			}(i)
		}
		wg.Wait()
	} else {
		for i := 0; i < s; i++ {
			errs[i] = nr.ixs[i].Bulkload(pairs[split[i]:split[i+1]])
		}
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}

	// Publish the new generation, then stop the old shards' retraining
	// workers. Bulkload is contractually pre-concurrency, but a straggler
	// still holding the old routing pointer stays safe: a closed core.ALT
	// remains readable and writable, and the collector frees the old
	// generation once the last such holder lets go.
	t.route.Store(nr)
	for _, ix := range old.ixs {
		_ = ix.Close()
	}
	return nil
}

// Get routes the lookup to its shard.
func (t *ALT) Get(key uint64) (uint64, bool) {
	r := t.route.Load()
	failpoint.Hit("shard/route")
	return r.ixOf(key).Get(key)
}

// Insert routes the upsert to its shard.
func (t *ALT) Insert(key, value uint64) error {
	r := t.route.Load()
	failpoint.Hit("shard/route")
	return r.ixOf(key).Insert(key, value)
}

// Update routes the in-place overwrite to its shard.
func (t *ALT) Update(key, value uint64) bool {
	r := t.route.Load()
	failpoint.Hit("shard/route")
	return r.ixOf(key).Update(key, value)
}

// Remove routes the deletion to its shard.
func (t *ALT) Remove(key uint64) bool {
	r := t.route.Load()
	failpoint.Hit("shard/route")
	return r.ixOf(key).Remove(key)
}

// MemoryUsage sums the shards plus the router itself: the boundary array
// and one pointer per shard.
func (t *ALT) MemoryUsage() uintptr {
	r := t.route.Load()
	total := uintptr(len(r.pad)+len(r.ixs)) * 8
	for _, ix := range r.ixs {
		total += ix.MemoryUsage()
	}
	return total
}

// Quiesce drains every shard's retraining pipeline; see core.ALT.Quiesce
// for the contract.
func (t *ALT) Quiesce() {
	for _, ix := range t.route.Load().ixs {
		ix.Quiesce()
	}
}

// Close stops every shard's background retraining machinery. The data
// stays readable and writable; implements io.Closer like core.ALT.
func (t *ALT) Close() error {
	for _, ix := range t.route.Load().ixs {
		_ = ix.Close()
	}
	return nil
}
