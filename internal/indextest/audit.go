package indextest

import (
	"fmt"
	"sync"
	"testing"

	"altindex/internal/index"
	"altindex/internal/xrand"
)

// Audit checks a quiescent index against the expected final key/value
// state and returns every invariant violation found (nil means the index
// is consistent). The invariants are the cross-implementation contract the
// chaos and churn suites rely on:
//
//   - no lost acked writes: every expected key is readable with its exact
//     last-written value;
//   - no ghost or duplicate keys: a full scan yields exactly the expected
//     key set, strictly ascending;
//   - consistent counts: Len equals the expected population;
//   - path agreement: the batched read path returns what per-key Get does.
//
// It is exported so engine-specific suites (core chaos, memdb chaos) and
// the shared conformance suite audit with the same rules.
func Audit(ix index.Concurrent, want map[uint64]uint64) []string {
	// Engines with asynchronous maintenance (e.g. background retraining)
	// expose Quiesce; drain it so the audit never observes a mid-rebuild
	// state as a violation.
	if q, ok := ix.(interface{ Quiesce() }); ok {
		q.Quiesce()
	}
	const maxViolations = 25
	var bad []string
	report := func(format string, args ...any) bool {
		bad = append(bad, fmt.Sprintf(format, args...))
		return len(bad) < maxViolations
	}

	for k, v := range want {
		got, ok := ix.Get(k)
		if !ok {
			if !report("lost acked write: Get(%d) absent, want %d", k, v) {
				return bad
			}
		} else if got != v {
			if !report("stale value: Get(%d) = %d, want %d", k, got, v) {
				return bad
			}
		}
	}

	seen := 0
	var prev uint64
	index.Walk(ix, 0, ^uint64(0), len(want)+64, func(k, v uint64) bool {
		if seen > 0 && k <= prev {
			report("scan order violation: %d after %d", k, prev)
		}
		prev = k
		seen++
		wv, ok := want[k]
		if !ok {
			report("ghost key in scan: %d", k)
		} else if wv != v {
			report("scan value mismatch: key %d = %d, want %d", k, v, wv)
		}
		return len(bad) < maxViolations
	})
	if len(bad) >= maxViolations {
		return bad
	}
	if seen != len(want) {
		report("scan visited %d keys, want %d", seen, len(want))
	}
	if n := ix.Len(); n != len(want) {
		report("Len = %d, want %d", n, len(want))
	}

	bt := index.BatchOf(ix)
	keys := make([]uint64, 0, len(want))
	for k := range want {
		keys = append(keys, k)
	}
	vals := make([]uint64, len(keys))
	found := make([]bool, len(keys))
	bt.GetBatch(keys, vals, found)
	for i, k := range keys {
		if !found[i] || vals[i] != want[k] {
			if !report("GetBatch(%d) = (%d,%v), want %d", k, vals[i], found[i], want[k]) {
				return bad
			}
		}
	}
	return bad
}

// testChurnInvariants is the concurrency-invariant conformance test: a
// deterministically-owned mixed workload (upserts, updates, removes,
// reinserts) races against readers and scanners, then the quiesced index
// must Audit clean against the exactly-known expected state. Unlike
// testConcurrent (insert-only, per-key checks), this drives the full
// mutation mix and the full audit, so every implementation is held to the
// same no-lost-writes / no-ghosts / sorted-scan contract ALT's chaos suite
// enforces.
func testChurnInvariants(t *testing.T, factory Factory) {
	const (
		writers      = 4
		bulkKeys     = 1 << 13
		opsPerWriter = 1500
		stride       = 32
	)
	ix := factory()
	defer closeIfCloser(ix)

	pairs := make([]index.KV, 0, bulkKeys)
	for i := uint64(0); i < bulkKeys; i++ {
		pairs = append(pairs, index.KV{Key: i*stride + 3, Value: i ^ 0xF00D})
	}
	if err := ix.Bulkload(pairs); err != nil {
		t.Fatal(err)
	}

	type finalState struct {
		val  uint64
		live bool
	}
	finals := make([]map[uint64]finalState, writers)
	var writerWg, readerWg sync.WaitGroup
	stop := make(chan struct{})

	for w := 0; w < writers; w++ {
		writerWg.Add(1)
		go func(w int) {
			defer writerWg.Done()
			rng := xrand.New(uint64(0xC0FFEE + w*104729))
			mine := make(map[uint64]finalState)
			finals[w] = mine
			for op := 0; op < opsPerWriter; op++ {
				// Grid index ≡ w (mod writers): single-writer ownership
				// makes the final expected state exact.
				gi := uint64(rng.Intn(bulkKeys/writers*2))*writers + uint64(w)
				k := gi*stride + 3
				v := uint64(op)<<8 | uint64(w)
				switch rng.Intn(8) {
				case 0, 1:
					ix.Remove(k)
					mine[k] = finalState{}
				case 2:
					if ix.Update(k, v) {
						mine[k] = finalState{val: v, live: true}
					}
				default:
					if err := ix.Insert(k, v); err != nil {
						t.Errorf("Insert(%d): %v", k, err)
						return
					}
					mine[k] = finalState{val: v, live: true}
				}
			}
		}(w)
	}

	for r := 0; r < 2; r++ {
		readerWg.Add(1)
		go func(r int) {
			defer readerWg.Done()
			rng := xrand.New(uint64(0xBEE + r))
			var dst []index.KV
			for {
				select {
				case <-stop:
					return
				default:
				}
				for j := 0; j < 32; j++ {
					ix.Get(uint64(rng.Intn(bulkKeys*2)) * stride)
				}
				// Mid-churn scans must stay strictly ascending.
				start := uint64(rng.Intn(bulkKeys)) * stride
				dst = ix.ScanAppend(dst[:0], start, ^uint64(0), 128)
				for i, kv := range dst {
					if kv.Key < start || (i > 0 && kv.Key <= dst[i-1].Key) {
						t.Errorf("mid-churn scan from %d: key %d at position %d, after %v", start, kv.Key, i, dst[:i])
						return
					}
				}
			}
		}(r)
	}

	writerWg.Wait()
	close(stop)
	readerWg.Wait()

	want := make(map[uint64]uint64, 2*bulkKeys)
	for _, kv := range pairs {
		want[kv.Key] = kv.Value
	}
	for _, mine := range finals {
		for k, st := range mine {
			if st.live {
				want[k] = st.val
			} else {
				delete(want, k)
			}
		}
	}
	for _, violation := range Audit(ix, want) {
		t.Error(violation)
	}
}
