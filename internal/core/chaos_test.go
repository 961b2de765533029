//go:build failpoint

// Chaos suite for the §III-E seqlock/retrain protocol. Build with
// -tags failpoint; see DESIGN.md ("Failure model") for the site catalog.
//
// The harness runs mixed Get/Insert/Update/Remove/Scan/GetBatch workloads
// while failpoints stretch the protocol's danger windows (write-locked
// slots, retraining freezes, table publishes), then quiesces and audits
// the survivors against a deterministically-known expected state with
// indextest.Audit: the history checker's rules over a Get of every
// expected key and a walk of the whole index, and Len against the walk.
package core

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"altindex/internal/dataset"
	"altindex/internal/index"
	"altindex/internal/indextest"
	"altindex/internal/xrand"
)

// chaosConfig describes one chaos scenario: which sites are armed with
// which schedule while the workload runs.
type chaosConfig struct {
	name  string
	sched indextest.Schedule
	// mustFire lists sites whose hit counter must be positive after the
	// run, proving the scenario exercised its target window.
	mustFire []string
	// opts overrides the index configuration (nil means the harness
	// default).
	opts *Options
	// queue, when set, pins the trigger queue's capacity (pinRetrainPipeline).
	queue int
	// check, when set, runs scenario-specific assertions after the audit.
	check func(t *testing.T, idx *ALT)
}

// runChaosWorkload drives writers+readers over a bulkloaded index with the
// given failpoints armed, quiesces, checks that every mustFire site fired,
// and returns the index plus the exact expected final state.
//
// Determinism of the expectation: the key grid is partitioned by writer
// (grid index mod writers), so every key has exactly one writer and its
// final value/liveness is decided by that writer's own deterministic op
// stream — concurrency changes interleavings but never ownership.
func runChaosWorkload(t *testing.T, cfg chaosConfig) (*ALT, map[uint64]uint64) {
	t.Helper()
	const (
		writers      = 4
		readers      = 3
		bulkKeys     = 1 << 13
		opsPerWriter = 1200
		keyStride    = 64
	)

	opts := Options{ErrorBound: 16}
	if cfg.opts != nil {
		opts = *cfg.opts
	}
	idx := New(opts)
	if cfg.queue > 0 {
		pinRetrainPipeline(idx, cfg.queue)
	}
	t.Cleanup(func() { idx.Close() })
	// Grid keys i*stride+7 are writer-owned; i*stride+31 are immutable
	// sentinels no writer touches, so readers can assert exact values
	// mid-flight (a live no-lost-writes check, not just post-quiesce).
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

	hits, disarm := indextest.Arm(t, cfg.sched)
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
				// Own grid slot: index ≡ w (mod writers). Half the ops
				// target fresh off-grid keys (offset 13) so inserts land
				// in gaps and conflict-evict to ART, not only upsert.
				gi := uint64(rng.Intn(bulkKeys*2))*uint64(writers) + uint64(w)
				off := uint64(7)
				if gi&1 == 1 {
					off = 13
				}
				k := gi*keyStride + off
				v := uint64(op)<<16 | uint64(w)
				switch rng.Intn(10) {
				case 0, 1: // remove
					idx.Remove(k)
					mine[k] = finalState{}
				case 2: // update (no-op when absent; state unchanged then)
					if idx.Update(k, v) {
						mine[k] = finalState{val: v, live: true}
					}
				case 3, 4: // batched insert of a small run of own keys
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
				default: // insert (upsert)
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
			for iter := 0; ; iter++ {
				select {
				case <-stop:
					return
				default:
				}
				// Immutable sentinels must always read exactly.
				for j := 0; j < 64; j++ {
					i := uint64(rng.Intn(bulkKeys))
					v, ok := idx.Get(i*keyStride + 31)
					if !ok || v != i*3+1 {
						t.Errorf("sentinel %d = (%d,%v), want %d", i*keyStride+31, v, ok, i*3+1)
						return
					}
				}
				// Scans must stay strictly ascending mid-retrain.
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
				// Batched reads of sentinels agree with Get.
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

	// Writers bound the run; readers loop until the writers are done.
	writerWg.Wait()
	close(stop)
	readerWg.Wait()

	// Drain the asynchronous retraining pipeline so the audit observes a
	// settled index, not a mid-rebuild one. The failpoints stay armed
	// through the drain (the deferred disarm runs at return):
	// on a small box the pipeline may only get scheduled once writers
	// stop, so rebuild-side sites fire during Quiesce — disarming earlier
	// would make mustFire miss exactly the runs it exists to prove.
	idx.Quiesce()
	for _, site := range cfg.mustFire {
		if hits(site) == 0 {
			t.Errorf("site %s never fired; scenario did not exercise its window", site)
		}
	}

	// Merge expected state: bulkload baseline, then each writer's final
	// word on the keys it owns.
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
	return idx, want
}

func TestChaosProtocol(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos suite is not -short")
	}
	for _, cfg := range []chaosConfig{
		{
			// Retrain storm: every freeze and publish window stretched
			// while writers force frequent rebuilds.
			name: "retrain-storm",
			sched: indextest.Schedule{
				"core/retrain/freeze":  func(int64) { time.Sleep(50 * time.Microsecond) },
				"core/retrain/publish": func(int64) { time.Sleep(50 * time.Microsecond) },
				"core/fpbuf/register":  func(int64) { runtime.Gosched() },
			},
			mustFire: []string{"core/retrain/freeze", "core/retrain/publish"},
		},
		{
			// Descheduled writers: every 50th slot critical section stalls
			// mid-seqlock, forcing reader retry loops and the full backoff
			// path.
			name: "descheduled-writers",
			sched: indextest.Schedule{
				"core/insert/locked": func(n int64) {
					if n%50 == 0 {
						time.Sleep(50 * time.Microsecond)
					}
				},
			},
			mustFire: []string{"core/insert/locked"},
		},
		{
			// Stale-table batches: batched operations pause after loading
			// the model table, so retraining replaces it mid-batch.
			name: "stale-batch-table",
			sched: indextest.Schedule{
				"core/batch/reload":    func(int64) { time.Sleep(100 * time.Microsecond) },
				"core/retrain/publish": func(int64) { runtime.Gosched() },
			},
			mustFire: []string{"core/batch/reload"},
		},
		{
			// Retrain overflow: a one-deep queue behind one stalled worker
			// forces trigger drops on the writer's enqueue path. The audit
			// proves dropped triggers are deferred, never lost — and the
			// check proves the overflow path actually ran.
			name: "retrain-overflow",
			sched: indextest.Schedule{
				"core/retrain/enqueue": func(int64) { time.Sleep(100 * time.Microsecond) },
				"core/retrain/freeze":  func(int64) { time.Sleep(2 * time.Millisecond) },
			},
			mustFire: []string{"core/retrain/enqueue"},
			opts:     &Options{ErrorBound: 16},
			queue:    1,
			check: func(t *testing.T, idx *ALT) {
				// The workload's trigger arrivals are timing-dependent —
				// on a quiet box the single worker can drain the one-deep
				// queue between them and the run ends with zero organic
				// drops. The drop path itself is what's under test, so
				// force it deterministically then: hammer enqueues faster
				// than the worker can dequeue. Two back-to-back sends
				// against a full queue overflow on the second, so the
				// budget is pure paranoia.
				for i := 0; i < 1000 && idx.ret.drops.Load() == 0; i++ {
					idx.enqueueRetrain(idx.tab.Load().dir[0].m)
				}
				if idx.ret.drops.Load() == 0 {
					t.Error("overflow scenario produced no trigger drops")
				}
			},
		},
		{
			// Concurrent splice: every splice stalls after its new models
			// are filled and before it builds the new table, so it runs
			// against live writers (retrying on the frozen span) and
			// against routing on the table it is about to replace.
			name: "concurrent-splice",
			sched: indextest.Schedule{
				"core/retrain/splice":  func(int64) { time.Sleep(200 * time.Microsecond) },
				"core/retrain/publish": func(int64) { runtime.Gosched() },
			},
			mustFire: []string{"core/retrain/splice"},
			queue:    64,
		},
	} {
		t.Run(cfg.name, func(t *testing.T) {
			idx, want := runChaosWorkload(t, cfg)
			for _, b := range indextest.Audit(idx, want) {
				t.Error(b)
			}
			if idx.retrains.Load() == 0 {
				t.Error("no retraining happened; chaos run did not stress the rebuild path")
			}
			checkTable(t, idx)
			if cfg.check != nil {
				cfg.check(t, idx)
			}
		})
	}
}

// TestChaosInsertBatchOnStaleTable wedges one four-group InsertBatchGroups —
// four indexes, what the 4-shard front-end hands the pipeline — right
// after its table loads (core/batch/reload) while a retrain storm on the test goroutine splices out every model group 2's
// pairs route to, with the publish window stretched too. The other three
// groups' tables stay the ones the batch loaded. When the batch wakes, its
// chunks run across all four groups: each of group 2's pairs finds its
// routed model frozen and retired from the live table, so every insertAt on
// it must report contention and fall through to the per-key Insert, which
// reloads the table, while the lanes of the other groups in the same chunks
// apply in place. Every acknowledged upsert — duplicates last-writer-wins,
// in submission order across two chunk boundaries inside group 2 — is
// readable afterwards.
func TestChaosInsertBatchOnStaleTable(t *testing.T) {
	const (
		site   = "core/batch/reload"
		groups = 4
		staleG = 2
		grid   = 1 << 12
		hot    = grid / 4  // group 2's pairs and the storm both work in its first hot keys
		span   = grid * 16 // group g owns [g*span, (g+1)*span)
		offset = 9         // fresh off-grid keys; the storm uses offsets 1..8
	)
	var ts [groups]*ALT
	var want [groups]map[uint64]uint64
	for g := range ts {
		keys := make([]uint64, grid)
		want[g] = make(map[uint64]uint64, 2*grid)
		for i := range keys {
			keys[i] = uint64(g)*span + uint64(i)*16
			want[g][keys[i]] = dataset.ValueFor(keys[i])
		}
		ts[g] = mustBulk(t, Options{ErrorBound: 16}, keys)
	}

	// Groups of 30, 40, 150 and 20 pairs: group 2 is positions 70..219, so
	// chunks 1, 2 and 3 each mix its lanes with another group's. Upserts of
	// grid keys, fresh off-grid keys, and every fifth pair repeating the
	// key five positions earlier in its group with a newer value.
	rng := xrand.New(7)
	var batch []index.KV
	var ends [groups]int32
	for g, n := range [groups]int{30, 40, 150, 20} {
		lo := len(batch)
		for i := 0; i < n; i++ {
			k := uint64(g)*span + uint64(rng.Intn(hot))*16
			if i%2 == 1 {
				k += offset
			}
			if i%5 == 0 && i >= 5 {
				k = batch[lo+i-5].Key
			}
			batch = append(batch, index.KV{Key: k, Value: uint64(len(batch)) + 1})
		}
		ends[g] = int32(len(batch))
	}
	var loaded [groups]*table
	for g := range ts {
		loaded[g] = ts[g].tab.Load()
	}

	hits, _ := indextest.Arm(t, indextest.Schedule{
		site: func(n int64) {
			if n == 1 {
				time.Sleep(time.Second) // the storm takes ~0.1 s under -race
			}
		},
		"core/retrain/publish": func(int64) { time.Sleep(50 * time.Microsecond) },
	})
	done := make(chan error, 1) // one send, never blocks the batch
	go func() { done <- InsertBatchGroups(ts[:], ends[:], batch) }()
	for hits(site) == 0 {
		runtime.Gosched()
	}

	// The batch now sleeps holding `loaded`. Storm group 2's range until
	// none of its pairs routes to a model its loaded table knows.
	idx, stale := ts[staleG], loaded[staleG]
	replaced := func() bool {
		cur := idx.tab.Load()
		for _, kv := range batch[ends[staleG-1]:ends[staleG]] {
			sm, _ := routed(stale, kv.Key)
			if cm, _ := routed(cur, kv.Key); cm == sm {
				return false
			}
		}
		return true
	}
	for round := 0; round < 64 && !replaced(); round++ {
		for i := 0; i < hot; i++ {
			k := staleG*span + uint64(i)*16 + 1 + uint64(round%8)
			v := uint64(round)<<32 | uint64(i)
			if err := idx.Insert(k, v); err != nil {
				t.Fatal(err)
			}
			want[staleG][k] = v
		}
		idx.Quiesce()
	}
	if !replaced() || idx.StatsMap()["retrains"] == 0 {
		t.Fatal("the storm left some of group 2's models in the live table; the stale path was not forced")
	}
	for g := range ts {
		if g != staleG && ts[g].tab.Load() != loaded[g] {
			t.Fatalf("group %d's table was superseded too; only group %d's should be stale", g, staleG)
		}
	}
	select {
	case err := <-done:
		t.Fatalf("InsertBatchGroups returned (%v) before the storm finished; the wedge did not hold", err)
	default:
	}

	if err := <-done; err != nil {
		t.Fatal(err)
	}
	g := 0
	for p, kv := range batch {
		for int32(p) >= ends[g] {
			g++
		}
		want[g][kv.Key] = kv.Value // submission order: the last duplicate wins
	}
	for g, idx := range ts {
		idx.Quiesce()
		for _, b := range indextest.Audit(idx, want[g]) {
			t.Errorf("group %d: %s", g, b)
		}
		if err := tableViolations(idx.tab.Load(), idx.tree.Len()); err != nil {
			t.Errorf("group %d: %v", g, err)
		}
	}
}
