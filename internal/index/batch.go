package index

// Batcher is the optional batched-operation interface. A single lookup or
// insert is a chain of dependent cache misses — table load, model search,
// slot probe, tree descent — so an index that implements Batcher natively
// can overlap those chains across a whole batch (ALT does: routing, the
// slot probes and the ART descents of its conflict keys each run as one
// pass over the batch, see internal/core/batch.go). Indexes without a
// native batch path still participate in comparisons through the generic
// loop fallback (BatchOf / LoopBatcher).
type Batcher interface {
	// GetBatch looks up keys[i] for every i, writing the result into
	// vals[i] and found[i]. vals and found must be at least len(keys)
	// long. Each individual lookup is linearizable exactly as a per-key
	// Get would be; the batch as a whole is not atomic with respect to
	// concurrent writers.
	GetBatch(keys []Key, vals []Value, found []bool)

	// InsertBatch upserts every pair, with per-pair semantics identical
	// to Insert. A nil return means every pair was applied. Duplicate
	// keys within the batch apply in their original relative order
	// (last-writer-wins) in every implementation. ALT and the loop
	// fallback go further: pairs apply in submission order, the batch
	// stops at the first error in that order, and exactly the pairs
	// before it are applied. The sharded front-end splits the batch by
	// shard and hands the groups, in shard order, to that same pipeline in
	// one call, so the guarantee holds in shard-grouped order: each shard
	// sees its pairs in submission order, the groups apply in shard order,
	// and the first error stops the batch — earlier shards' groups and the
	// failing group's pairs before it are applied, nothing after it is.
	InsertBatch(pairs []KV) error
}

// loopBatcher adapts any Concurrent to Batcher with per-key loops. It is
// the comparison baseline for native batch paths: same semantics, no
// amortization.
type loopBatcher struct{ Concurrent }

func (b loopBatcher) GetBatch(keys []Key, vals []Value, found []bool) {
	for i, k := range keys {
		vals[i], found[i] = b.Get(k)
	}
}

func (b loopBatcher) InsertBatch(pairs []KV) error {
	for _, kv := range pairs {
		if err := b.Insert(kv.Key, kv.Value); err != nil {
			return err
		}
	}
	return nil
}

// BatchOf returns ix's native Batcher when it implements one, and the
// generic per-key loop fallback otherwise. Every index in this repository
// can therefore be driven through the batched API.
func BatchOf(ix Concurrent) Batcher {
	if b, ok := ix.(Batcher); ok {
		return b
	}
	return loopBatcher{ix}
}

// LoopBatcher always returns the per-key loop fallback, even when ix has a
// native batch path. Benchmarks use it to measure what batching actually
// buys over the equivalent sequence of single-key calls.
func LoopBatcher(ix Concurrent) Batcher {
	return loopBatcher{ix}
}
