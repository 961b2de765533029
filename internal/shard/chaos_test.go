//go:build failpoint

// Chaos scenario for the sharding boundary: a lookup stalled between
// loading the routing table and probing its target shard must stay correct
// while that shard's retrainer splices a new model table underneath it.
// The router holds no locks and pins no shard state, so the only thing
// protecting the wedged reader is the shard-local seqlock/publish protocol
// — which is exactly what this test stresses across the extra indirection.
package shard_test

import (
	"sync"
	"testing"
	"time"

	"altindex/internal/core"
	"altindex/internal/index"
	"altindex/internal/indextest"
	"altindex/internal/shard"
	"altindex/internal/xrand"
)

func TestShardChaosRouteRacingSplice(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos suite is not -short")
	}
	const (
		writers      = 4
		readers      = 3
		bulkKeys     = 1 << 13
		opsPerWriter = 1200
		keyStride    = 64
	)

	idx := shard.New(core.Options{Shards: 4, ErrorBound: 16})
	t.Cleanup(func() { idx.Close() })

	// Grid keys i*stride+7 are writer-owned (writer = i mod writers);
	// i*stride+31 are immutable sentinels readers assert exactly mid-flight.
	var pairs []index.KV
	for i := uint64(0); i < bulkKeys; i++ {
		pairs = append(pairs,
			index.KV{Key: i*keyStride + 7, Value: i ^ 0xABCD},
			index.KV{Key: i*keyStride + 31, Value: i*3 + 1},
		)
	}
	if err := idx.Bulkload(pairs); err != nil {
		t.Fatal(err)
	}

	// Wedge routed operations between router resolution and the shard
	// probe while every splice stalls before building its new table.
	hits, disarm := indextest.Arm(t, indextest.Schedule{
		"shard/route": func(n int64) {
			if n%50 == 0 {
				time.Sleep(50 * time.Microsecond)
			}
		},
		"core/retrain/splice": func(int64) { time.Sleep(200 * time.Microsecond) },
	})
	defer disarm()

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
			rng := xrand.New(uint64(0x9E37*w + 11))
			mine := make(map[uint64]finalState)
			finals[w] = mine
			for op := 0; op < opsPerWriter; op++ {
				gi := uint64(rng.Intn(bulkKeys*2))*uint64(writers) + uint64(w)
				off := uint64(7)
				if gi&1 == 1 {
					off = 13 // fresh off-grid keys: gap inserts + ART evictions
				}
				k := gi*keyStride + off
				v := uint64(op)<<16 | uint64(w)
				switch rng.Intn(10) {
				case 0, 1:
					idx.Remove(k)
					mine[k] = finalState{}
				case 2, 3: // batched insert spanning shard boundaries
					batch := make([]index.KV, 0, 16)
					for j := uint64(0); j < 16; j++ {
						bk := (gi + j*uint64(writers)) * keyStride
						batch = append(batch, index.KV{Key: bk + off, Value: v + j})
					}
					if err := idx.InsertBatch(batch); err != nil {
						t.Errorf("InsertBatch: %v", err)
						return
					}
					for j, kv := range batch {
						mine[kv.Key] = finalState{val: v + uint64(j), live: true}
					}
				default:
					if err := idx.Insert(k, v); err != nil {
						t.Errorf("Insert(%d): %v", k, err)
						return
					}
					mine[k] = finalState{val: v, live: true}
				}
			}
		}(w)
	}

	for r := 0; r < readers; r++ {
		readerWg.Add(1)
		go func(r int) {
			defer readerWg.Done()
			rng := xrand.New(uint64(0xFEED + r))
			keys := make([]uint64, 128)
			vals := make([]uint64, 128)
			found := make([]bool, 128)
			for {
				select {
				case <-stop:
					return
				default:
				}
				// Immutable sentinels must always read exactly, even with
				// the reader wedged at the route point mid-splice.
				for j := 0; j < 64; j++ {
					i := uint64(rng.Intn(bulkKeys))
					v, ok := idx.Get(i*keyStride + 31)
					if !ok || v != i*3+1 {
						t.Errorf("sentinel %d = (%d,%v), want %d", i*keyStride+31, v, ok, i*3+1)
						return
					}
				}
				// Stitched scans must stay strictly ascending across shard
				// boundaries mid-retrain.
				var prev uint64
				n := 0
				start := uint64(rng.Intn(bulkKeys)) * keyStride
				index.Walk(idx, start, ^uint64(0), 256, func(k, v uint64) bool {
					if n > 0 && k <= prev {
						t.Errorf("mid-flight scan order violation: %d after %d", k, prev)
						return false
					}
					if k < start {
						t.Errorf("scan yielded key %d below start %d", k, start)
						return false
					}
					prev = k
					n++
					return true
				})
				// Split batched reads of sentinels agree with Get.
				for j := range keys {
					keys[j] = uint64(rng.Intn(bulkKeys))*keyStride + 31
				}
				idx.GetBatch(keys, vals, found)
				for j, k := range keys {
					if !found[j] || vals[j] != (k-31)/keyStride*3+1 {
						t.Errorf("GetBatch sentinel %d = (%d,%v)", k, vals[j], found[j])
						return
					}
				}
			}
		}(r)
	}

	writerWg.Wait()
	close(stop)
	readerWg.Wait()
	disarm()
	idx.Quiesce()

	for _, site := range []string{"shard/route", "core/retrain/splice"} {
		if hits(site) == 0 {
			t.Errorf("site %s never fired; scenario did not exercise its window", site)
		}
	}
	if idx.StatsMap()["retrains"] == 0 {
		t.Error("no retraining happened; chaos run did not stress the splice path")
	}

	want := make(map[uint64]uint64, 2*bulkKeys)
	for _, kv := range pairs {
		want[kv.Key] = kv.Value
	}
	for _, mine := range finals {
		for k, fs := range mine {
			if fs.live {
				want[k] = fs.val
			} else {
				delete(want, k)
			}
		}
	}
	for _, b := range indextest.Audit(idx, want) {
		t.Error(b)
	}
}
