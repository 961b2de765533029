// Package altindex is a hybrid learned index for concurrent in-memory
// database workloads, implementing the ALT-index design (Yang et al., ICDE
// 2025): a flattened learned-index layer of Greedy Pessimistic Linear (GPL)
// models whose predictions are exact by construction, backed by an
// optimized Adaptive Radix Tree (ART-OPT) that hosts conflict data, with a
// fast pointer buffer linking each model to its ART subtree.
//
// The index maps uint64 keys to uint64 values, supports concurrent Get /
// Insert / Update / Remove and bounded range scans, and retrains crowded
// models dynamically.
//
// Quick start:
//
//	idx := altindex.New(altindex.Options{})
//	if err := idx.Bulkload(pairs); err != nil { ... } // pairs sorted by key
//	v, ok := idx.Get(42)
//	_ = idx.Insert(43, 430)
//	dst = idx.ScanAppend(dst[:0], 40, 50, 10) // up to 10 pairs in [40, 50)
//	for k, v := range altindex.Range(idx, 40) { ... } // every key >= 40
//
// The zero Options value selects the paper's recommendations (error bound
// = n/1000 for the n live keys at each build, capped at 1,024, gap factor
// 2, retraining enabled). Fast pointers are
// part of the design and always on.
package altindex

import (
	"iter"

	"altindex/internal/core"
	"altindex/internal/index"
	"altindex/internal/shard"
)

// Index is the concurrent ordered-map surface of the hybrid ALT-index.
// Create with New; safe for concurrent use. It is an interface because New
// returns one of two layouts sharing the same protocol: a single core
// instance (Options.Shards == 0, the paper's layout, unchanged) or a
// range-partitioned front-end of independent core instances behind a
// learned boundary router (Options.Shards > 1, internal/shard).
type Index interface {
	index.Concurrent
	index.Batcher
	index.Stats

	// Quiesce blocks until background retraining triggered so far has
	// drained, giving deterministic checkpoints (Save requires one).
	Quiesce()
	// Close stops background retraining machinery. The index stays usable;
	// Close exists so long-lived processes can release the worker
	// goroutines.
	Close() error
}

var (
	_ Index = (*core.ALT)(nil)
	_ Index = (*shard.ALT)(nil)
)

// Options configure an Index; the zero value is the paper-recommended
// default.
type Options = core.Options

// KV is a key/value pair for Bulkload.
type KV = index.KV

// Key and Value are the 8-byte record types.
type (
	Key   = index.Key
	Value = index.Value
)

// Concurrent is the ordered-index interface Index satisfies; the baselines
// in internal/ implement it too, which is how the benchmark harness
// compares them.
type Concurrent = index.Concurrent

// Range returns an iterator over the pairs of ix with keys >= start in
// ascending key order. It pulls bounded ScanAppend batches, each an
// internally consistent snapshot; the iteration as a whole is safe under
// concurrent writers, and the loop body may write to ix.
func Range(ix Concurrent, start Key) iter.Seq2[Key, Value] { return index.Range(ix, start) }

// ErrUnsortedBulk is returned by Bulkload for unsorted input.
var ErrUnsortedBulk = index.ErrUnsortedBulk

// New returns an empty ALT-index with the given options. Options.Shards
// selects the layout: zero (or one) is a single instance, higher values
// range-partition the keyspace into that many independent shards at
// CDF-balanced boundaries, which Bulkload computes and nothing moves
// afterwards (see internal/shard).
func New(opts Options) Index {
	if opts.Shards > 1 {
		return shard.New(opts)
	}
	return core.New(opts)
}

// NewDefault returns an empty ALT-index with the paper-recommended
// defaults.
func NewDefault() Index { return core.New(Options{}) }
