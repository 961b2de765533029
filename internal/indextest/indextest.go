// Package indextest provides a reusable conformance suite for
// index.Concurrent implementations. Every index in this repository — ALT
// and all five baselines — must pass the same behavioural contract, which
// keeps the benchmark comparisons apples-to-apples.
package indextest

import (
	"io"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"altindex/internal/dataset"
	"altindex/internal/index"
	"altindex/internal/workload"
)

// Factory builds a fresh, empty index for each subtest.
type Factory func() index.Concurrent

// closeIfCloser stops background machinery (e.g. XIndex's compactor).
func closeIfCloser(ix index.Concurrent) {
	if c, ok := ix.(io.Closer); ok {
		_ = c.Close()
	}
}

// Run executes the full conformance suite.
func Run(t *testing.T, factory Factory) {
	t.Run("BulkloadGet", func(t *testing.T) { testBulkloadGet(t, factory) })
	t.Run("UnsortedBulkRejected", func(t *testing.T) { testUnsorted(t, factory) })
	t.Run("InsertGet", func(t *testing.T) { testInsertGet(t, factory) })
	t.Run("UpsertUpdate", func(t *testing.T) { testUpsertUpdate(t, factory) })
	t.Run("Remove", func(t *testing.T) { testRemove(t, factory) })
	t.Run("ScanOrdered", func(t *testing.T) { testScan(t, factory) })
	t.Run("ScanAppendWindow", func(t *testing.T) { testScanAppendWindow(t, factory) })
	t.Run("RandomOpsVersusMap", func(t *testing.T) { testVersusMap(t, factory) })
	t.Run("ConcurrentReadWrite", func(t *testing.T) { testConcurrent(t, factory) })
	t.Run("MemoryUsagePositive", func(t *testing.T) { testMemory(t, factory) })
	t.Run("BatchMatchesPerKey", func(t *testing.T) { testBatchMatchesPerKey(t, factory) })
	t.Run("BatchInsert", func(t *testing.T) { testBatchInsert(t, factory) })
	t.Run("BatchDuplicates", func(t *testing.T) { testBatchDuplicates(t, factory) })
	t.Run("BatchConflictHeavy", func(t *testing.T) { testBatchConflictHeavy(t, factory) })
	t.Run("BatchConcurrent", func(t *testing.T) { testBatchConcurrent(t, factory) })
	t.Run("History", func(t *testing.T) { testHistory(t, factory) })
}

// batchers returns the batched views of ix under test: the preferred one
// (native when the index implements index.Batcher, e.g. ALT) and the forced
// per-key loop fallback. Both must behave identically.
func batchers(ix index.Concurrent) map[string]index.Batcher {
	return map[string]index.Batcher{
		"BatchOf":     index.BatchOf(ix),
		"LoopBatcher": index.LoopBatcher(ix),
	}
}

// testBatchMatchesPerKey checks that GetBatch over present, absent, removed
// and updated keys returns exactly what per-key Get returns, for both the
// native batch path and the loop fallback, across key orderings (sorted,
// reversed, shuffled) that exercise the hint/galloping router.
func testBatchMatchesPerKey(t *testing.T, factory Factory) {
	ix := factory()
	defer closeIfCloser(ix)
	keys := dataset.Generate(dataset.OSM, 20000, 21)
	loaded, pending := workload.SplitLoad(keys, 0.5, 22)
	if err := ix.Bulkload(dataset.Pairs(loaded)); err != nil {
		t.Fatal(err)
	}
	for i, k := range pending {
		if i%2 == 0 {
			if err := ix.Insert(k, dataset.ValueFor(k)); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < len(loaded); i += 7 {
		ix.Remove(loaded[i])
	}
	// Probe set: everything, plus gap keys that were never inserted.
	probe := append([]uint64(nil), keys...)
	for i := 1; i < len(keys); i += 97 {
		if gap := keys[i] - keys[i-1]; gap > 2 {
			probe = append(probe, keys[i-1]+gap/2)
		}
	}
	orders := map[string][]uint64{
		"sorted":   sortedCopy(probe),
		"reversed": reversedCopy(probe),
		"shuffled": shuffledCopy(probe, 23),
	}
	for bname, bt := range batchers(ix) {
		for oname, ks := range orders {
			for _, batchSize := range []int{1, 3, 64, 257, len(ks)} {
				vals := make([]uint64, batchSize)
				found := make([]bool, batchSize)
				for off := 0; off < len(ks); off += batchSize {
					end := off + batchSize
					if end > len(ks) {
						end = len(ks)
					}
					chunk := ks[off:end]
					bt.GetBatch(chunk, vals, found)
					for i, k := range chunk {
						wv, wok := ix.Get(k)
						if found[i] != wok || (wok && vals[i] != wv) {
							t.Fatalf("%s/%s/B=%d: GetBatch(%d)=(%d,%v) want (%d,%v)",
								bname, oname, batchSize, k, vals[i], found[i], wv, wok)
						}
					}
				}
			}
		}
	}
}

// testBatchInsert checks InsertBatch semantics: fresh inserts, upserts of
// existing keys, and reclaiming removed keys, all visible to both per-key
// Get and GetBatch afterwards.
func testBatchInsert(t *testing.T, factory Factory) {
	ix := factory()
	defer closeIfCloser(ix)
	keys := dataset.Generate(dataset.FB, 12000, 31)
	loaded, pending := workload.SplitLoad(keys, 0.5, 32)
	if err := ix.Bulkload(dataset.Pairs(loaded)); err != nil {
		t.Fatal(err)
	}
	bt := index.BatchOf(ix)
	var batch []index.KV
	for _, k := range pending {
		batch = append(batch, index.KV{Key: k, Value: dataset.ValueFor(k)})
	}
	if err := bt.InsertBatch(batch); err != nil {
		t.Fatal(err)
	}
	if ix.Len() != len(keys) {
		t.Fatalf("Len=%d want %d", ix.Len(), len(keys))
	}
	// Remove every fifth loaded key, then drive one batch that both
	// reclaims the removed keys (tombstone claims) and upserts every
	// third key (in-place overwrites).
	for i := 0; i < len(loaded); i += 5 {
		ix.Remove(loaded[i])
	}
	var upserts []index.KV
	for i, k := range loaded {
		if i%5 == 0 || i%3 == 0 {
			upserts = append(upserts, index.KV{Key: k, Value: 7000 + uint64(i)})
		}
	}
	if err := bt.InsertBatch(upserts); err != nil {
		t.Fatal(err)
	}
	if ix.Len() != len(keys) {
		t.Fatalf("Len=%d after upsert batch, want %d", ix.Len(), len(keys))
	}
	for i, k := range loaded {
		want := dataset.ValueFor(k)
		if i%5 == 0 || i%3 == 0 {
			want = 7000 + uint64(i)
		}
		if v, ok := ix.Get(k); !ok || v != want {
			t.Fatalf("after InsertBatch: Get(%d)=(%d,%v) want %d", k, v, ok, want)
		}
	}
}

// testBatchDuplicates checks InsertBatch's ordering contract on batches
// full of duplicate keys: adjacent duplicates, one pair straddling
// positions 63/64 (ALT's chunk boundary), the first key repeated last, and
// random repeats drawn from a small pool spread over the whole key range
// (so over every shard of a sharded index). Every position carries its own
// value, so anything other than last-writer-wins in submission order shows.
// The batch sizes sit on both sides of ALT's per-key threshold and chunk
// size. Checked differentially: the same batches go through the native
// path on one index and the per-key loop on its twin, and the two must end
// up indistinguishable — values, Len, then a full scan.
func testBatchDuplicates(t *testing.T, factory Factory) {
	native, twin := factory(), factory()
	defer closeIfCloser(native)
	defer closeIfCloser(twin)
	keys := dataset.Generate(dataset.OSM, 6000, 51)
	loaded, pending := workload.SplitLoad(keys, 0.5, 52)
	for _, ix := range []index.Concurrent{native, twin} {
		if err := ix.Bulkload(dataset.Pairs(loaded)); err != nil {
			t.Fatal(err)
		}
		// Tombstones, so batches also claim removed slots.
		for i := 0; i < len(loaded); i += 9 {
			ix.Remove(loaded[i])
		}
	}
	nb, lb := index.BatchOf(native), index.LoopBatcher(twin)
	rng := rand.New(rand.NewSource(53))
	stamp := uint64(0)
	for _, size := range []int{1, 7, 8, 9, 63, 64, 65, 129, 1000} {
		for round := 0; round < 4; round++ {
			// A pool a third of the batch makes most keys repeat. Even
			// rounds draw it from fresh keys, odd ones from loaded keys
			// (upserts and tombstone claims).
			src := pending
			if round%2 == 1 {
				src = loaded
			}
			pool := make([]uint64, size/3+1)
			for i := range pool {
				pool[i] = src[rng.Intn(len(src))]
			}
			batch := make([]index.KV, size)
			for i := range batch {
				stamp++
				batch[i] = index.KV{Key: pool[rng.Intn(len(pool))], Value: stamp}
			}
			if size > 1 {
				batch[1].Key = batch[0].Key
				batch[size-1].Key = batch[0].Key
			}
			if size > 64 {
				batch[64].Key = batch[63].Key
			}
			if err := nb.InsertBatch(batch); err != nil {
				t.Fatal(err)
			}
			if err := lb.InsertBatch(batch); err != nil {
				t.Fatal(err)
			}
			for _, kv := range batch {
				gv, gok := native.Get(kv.Key)
				wv, wok := twin.Get(kv.Key)
				if gv != wv || gok != wok {
					t.Fatalf("B=%d round %d: Get(%d)=(%d,%v), per-key loop gives (%d,%v)",
						size, round, kv.Key, gv, gok, wv, wok)
				}
			}
			if native.Len() != twin.Len() {
				t.Fatalf("B=%d round %d: Len=%d, per-key loop gives %d", size, round, native.Len(), twin.Len())
			}
		}
	}
	scansMatch(t, native, twin)
}

// scansMatch checks that a full scan of native returns Len pairs and
// exactly what a full scan of twin returns.
func scansMatch(t *testing.T, native, twin index.Concurrent) {
	t.Helper()
	got := native.ScanAppend(nil, 0, ^uint64(0), native.Len()+1)
	want := twin.ScanAppend(nil, 0, ^uint64(0), twin.Len()+1)
	if len(got) != len(want) || len(got) != native.Len() {
		t.Fatalf("Scan returned %d pairs, per-key loop %d, Len %d", len(got), len(want), native.Len())
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("Scan[%d]=%v, per-key loop gives %v", i, got[i], want[i])
		}
	}
}

// testBatchConflictHeavy drives the batch paths where most keys miss their
// predicted slot. The key set is what makes it so, whatever the index's
// options: three adjacent keys are inserted between every two bulk-loaded
// neighbours before the first batch. No slot line through a gap that wide
// tells adjacent keys apart, so two of each three conflict into the ART
// layer, and a rebuild leaves them there (an index that reports art_keys
// must show at least a quarter of its keys there, so at least a quarter of
// every chunk takes the fast-pointer hop and tree descent). Around them: a fourth in-between
// key per gap arrives through the batches (more runtime conflict
// evictions), a fifth stays absent (a lookup lands on a slot held by
// another key and must prove absence), every fifth loaded key is removed up
// front (tombstoned slots, claimed back by later batches), and keys below
// the first and above the last loaded key fall outside every model. Checked
// differentially: the same batches go through the native path on one index
// and the per-key loop on its twin, at sizes on both sides of ALT's per-key
// threshold and chunk size, and every GetBatch, then Len, then a full scan
// must agree.
func testBatchConflictHeavy(t *testing.T, factory Factory) {
	native, twin := factory(), factory()
	defer closeIfCloser(native)
	defer closeIfCloser(twin)
	rng := rand.New(rand.NewSource(61))
	loaded := make([]uint64, 0, 2500)
	for k := uint64(1) << 32; len(loaded) < cap(loaded); k += 64 + uint64(rng.Intn(1<<20)) {
		loaded = append(loaded, k)
	}
	var crowd, fresh, absent, removed []uint64
	for i, k := range loaded[:len(loaded)-1] {
		step := (loaded[i+1] - k) / 8
		crowd = append(crowd, k+step, k+step+1, k+step+2)
		fresh = append(fresh, k+2*step)
		absent = append(absent, k+6*step)
		if i%5 == 0 {
			removed = append(removed, k)
		}
	}
	last := loaded[len(loaded)-1]
	outside := []uint64{0, 1, 77, 1 << 31, last + 1, last + 1<<30, ^uint64(0) - 5, ^uint64(0)}
	for _, ix := range []index.Concurrent{native, twin} {
		if err := ix.Bulkload(dataset.Pairs(loaded)); err != nil {
			t.Fatal(err)
		}
		for _, k := range crowd {
			if err := ix.Insert(k, dataset.ValueFor(k)); err != nil {
				t.Fatal(err)
			}
		}
		for _, k := range removed {
			ix.Remove(k)
		}
	}
	if st, ok := native.(index.Stats); ok {
		if art, ok := st.StatsMap()["art_keys"]; ok && 4*art < int64(native.Len()) {
			t.Fatalf("only %d of %d keys are ART-resident; the key set no longer forces conflicts", art, native.Len())
		}
	}

	// draw picks a key: mostly keys of the crowded range, whose slots are
	// contested.
	draw := func(write bool) uint64 {
		from := func(ks []uint64) uint64 { return ks[rng.Intn(len(ks))] }
		switch p := rng.Intn(20); {
		case p < 4:
			return from(loaded)
		case p < 11:
			return from(crowd)
		case p < 15:
			return from(fresh)
		case p < 17:
			return from(removed)
		case p < 18:
			return from(outside)
		case write:
			return from(crowd)
		default:
			return from(absent)
		}
	}
	nb, lb := index.BatchOf(native), index.LoopBatcher(twin)
	stamp := uint64(0)
	for _, size := range []int{8, 63, 64, 65, 129, 1000} {
		batch := make([]index.KV, size)
		probe := make([]uint64, size)
		gv, wv := make([]uint64, size), make([]uint64, size)
		gf, wf := make([]bool, size), make([]bool, size)
		for round := 0; round < 3; round++ {
			for i := range batch {
				stamp++
				batch[i] = index.KV{Key: draw(true), Value: stamp}
			}
			if err := nb.InsertBatch(batch); err != nil {
				t.Fatal(err)
			}
			if err := lb.InsertBatch(batch); err != nil {
				t.Fatal(err)
			}
			for i := range probe {
				probe[i] = draw(false)
			}
			nb.GetBatch(probe, gv, gf)
			lb.GetBatch(probe, wv, wf)
			for i, k := range probe {
				if gf[i] != wf[i] || (wf[i] && gv[i] != wv[i]) {
					t.Fatalf("B=%d round %d: GetBatch[%d](%d)=(%d,%v), per-key loop gives (%d,%v)",
						size, round, i, k, gv[i], gf[i], wv[i], wf[i])
				}
				if v, ok := native.Get(k); ok != gf[i] || (ok && v != gv[i]) {
					t.Fatalf("B=%d round %d: GetBatch[%d](%d)=(%d,%v), Get gives (%d,%v)",
						size, round, i, k, gv[i], gf[i], v, ok)
				}
			}
			if native.Len() != twin.Len() {
				t.Fatalf("B=%d round %d: Len=%d, per-key loop gives %d", size, round, native.Len(), twin.Len())
			}
		}
	}
	scansMatch(t, native, twin)
}

// testBatchConcurrent races GetBatch/InsertBatch against per-key inserts,
// removes and (for ALT) the retraining this hot insert stream triggers. A
// batch must never return a stale value or a phantom hit: bulkloaded keys
// are immutable here and must always be found with their exact value;
// writer-owned keys must be either absent or carry the exact written value.
func testBatchConcurrent(t *testing.T, factory Factory) {
	ix := factory()
	defer closeIfCloser(ix)
	keys := dataset.Generate(dataset.OSM, 40000, 41)
	// Hot split reserves a consecutive range, the retraining trigger.
	stable, hot := workload.HotSplit(keys, 0.3, 42)
	if err := ix.Bulkload(dataset.Pairs(stable)); err != nil {
		t.Fatal(err)
	}
	const writers = 4
	per := len(hot) / writers
	var wwg, rwg sync.WaitGroup
	stop := make(chan struct{})
	// Writers: half insert via InsertBatch, half per-key, with periodic
	// removes and reinserts to churn tombstones.
	for w := 0; w < writers; w++ {
		wwg.Add(1)
		go func(w int) {
			defer wwg.Done()
			mine := hot[w*per : (w+1)*per]
			bt := index.BatchOf(ix)
			if w%2 == 0 {
				var batch []index.KV
				for _, k := range mine {
					batch = append(batch, index.KV{Key: k, Value: dataset.ValueFor(k)})
					if len(batch) == 64 {
						if err := bt.InsertBatch(batch); err != nil {
							t.Error(err)
							return
						}
						batch = batch[:0]
					}
				}
				if err := bt.InsertBatch(batch); err != nil {
					t.Error(err)
				}
			} else {
				for i, k := range mine {
					if err := ix.Insert(k, dataset.ValueFor(k)); err != nil {
						t.Error(err)
						return
					}
					if i%16 == 0 {
						ix.Remove(k)
						if err := ix.Insert(k, dataset.ValueFor(k)); err != nil {
							t.Error(err)
							return
						}
					}
				}
			}
		}(w)
	}
	// Readers: batched lookups over stable keys (must always hit with the
	// exact value) mixed with hot keys (must be absent or exact).
	for r := 0; r < 4; r++ {
		rwg.Add(1)
		go func(r int) {
			defer rwg.Done()
			bt := index.BatchOf(ix)
			if r%2 == 1 {
				bt = index.LoopBatcher(ix)
			}
			rng := rand.New(rand.NewSource(int64(100 + r)))
			batch := make([]uint64, 128)
			vals := make([]uint64, 128)
			found := make([]bool, 128)
			for {
				select {
				case <-stop:
					return
				default:
				}
				for i := range batch {
					if i%4 == 0 {
						batch[i] = hot[rng.Intn(len(hot))]
					} else {
						batch[i] = stable[rng.Intn(len(stable))]
					}
				}
				bt.GetBatch(batch, vals, found)
				for i, k := range batch {
					if i%4 == 0 {
						if found[i] && vals[i] != dataset.ValueFor(k) {
							t.Errorf("hot key %d: stale value %d", k, vals[i])
							return
						}
					} else if !found[i] || vals[i] != dataset.ValueFor(k) {
						t.Errorf("stable key %d: (%d,%v) want (%d,true)",
							k, vals[i], found[i], dataset.ValueFor(k))
						return
					}
				}
			}
		}(r)
	}
	wwg.Wait()
	close(stop)
	rwg.Wait()
	if t.Failed() {
		return
	}
	// Quiescent check: every hot key its writer inserted last is present.
	for _, k := range hot[:writers*per] {
		if v, ok := ix.Get(k); !ok || v != dataset.ValueFor(k) {
			t.Fatalf("hot key %d lost after join: (%d,%v)", k, v, ok)
		}
	}
}

func sortedCopy(keys []uint64) []uint64 {
	out := slices.Clone(keys)
	slices.Sort(out)
	return out
}

func reversedCopy(keys []uint64) []uint64 {
	out := sortedCopy(keys)
	slices.Reverse(out)
	return out
}

func shuffledCopy(keys []uint64, seed int64) []uint64 {
	out := append([]uint64(nil), keys...)
	r := rand.New(rand.NewSource(seed))
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

func testBulkloadGet(t *testing.T, factory Factory) {
	for _, name := range dataset.Names() {
		ix := factory()
		keys := dataset.Generate(name, 12000, 1)
		if err := ix.Bulkload(dataset.Pairs(keys)); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if ix.Len() != len(keys) {
			t.Fatalf("%s: Len=%d want %d", name, ix.Len(), len(keys))
		}
		for _, k := range keys {
			if v, ok := ix.Get(k); !ok || v != dataset.ValueFor(k) {
				t.Fatalf("%s: Get(%d)=(%d,%v)", name, k, v, ok)
			}
		}
		for i := 1; i < len(keys); i += 173 {
			if gap := keys[i] - keys[i-1]; gap > 2 {
				if _, ok := ix.Get(keys[i-1] + gap/2); ok {
					t.Fatalf("%s: phantom key", name)
				}
			}
		}
		closeIfCloser(ix)
	}
}

func testUnsorted(t *testing.T, factory Factory) {
	ix := factory()
	defer closeIfCloser(ix)
	if err := ix.Bulkload([]index.KV{{Key: 5}, {Key: 4}}); err != index.ErrUnsortedBulk {
		t.Fatalf("err=%v want ErrUnsortedBulk", err)
	}
}

func testInsertGet(t *testing.T, factory Factory) {
	ix := factory()
	defer closeIfCloser(ix)
	keys := dataset.Generate(dataset.OSM, 16000, 2)
	loaded, pending := workload.SplitLoad(keys, 0.5, 3)
	if err := ix.Bulkload(dataset.Pairs(loaded)); err != nil {
		t.Fatal(err)
	}
	for _, k := range pending {
		if err := ix.Insert(k, dataset.ValueFor(k)); err != nil {
			t.Fatal(err)
		}
	}
	if ix.Len() != len(keys) {
		t.Fatalf("Len=%d want %d", ix.Len(), len(keys))
	}
	for _, k := range keys {
		if v, ok := ix.Get(k); !ok || v != dataset.ValueFor(k) {
			t.Fatalf("Get(%d)=(%d,%v)", k, v, ok)
		}
	}
}

func testUpsertUpdate(t *testing.T, factory Factory) {
	ix := factory()
	defer closeIfCloser(ix)
	keys := dataset.Generate(dataset.Libio, 4000, 4)
	if err := ix.Bulkload(dataset.Pairs(keys)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(keys); i += 5 {
		_ = ix.Insert(keys[i], 1000+uint64(i))
	}
	if ix.Len() != len(keys) {
		t.Fatalf("upsert changed Len to %d", ix.Len())
	}
	for i := 0; i < len(keys); i += 5 {
		if v, _ := ix.Get(keys[i]); v != 1000+uint64(i) {
			t.Fatalf("upsert lost at %d", i)
		}
	}
	if !ix.Update(keys[1], 7) {
		t.Fatal("Update(present) = false")
	}
	if v, _ := ix.Get(keys[1]); v != 7 {
		t.Fatal("Update value lost")
	}
	if ix.Update(keys[len(keys)-1]+999999, 1) {
		t.Fatal("Update(absent) = true")
	}
}

func testRemove(t *testing.T, factory Factory) {
	ix := factory()
	defer closeIfCloser(ix)
	keys := dataset.Generate(dataset.FB, 8000, 5)
	if err := ix.Bulkload(dataset.Pairs(keys)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(keys); i += 3 {
		if !ix.Remove(keys[i]) {
			t.Fatalf("Remove(%d)=false", keys[i])
		}
	}
	if ix.Remove(keys[0]) {
		t.Fatal("double remove")
	}
	for i, k := range keys {
		_, ok := ix.Get(k)
		if (i%3 == 0) == ok {
			t.Fatalf("key %d removed=%v visible=%v", k, i%3 == 0, ok)
		}
	}
	// Reinsert removed keys.
	for i := 0; i < len(keys); i += 3 {
		if err := ix.Insert(keys[i], 42); err != nil {
			t.Fatal(err)
		}
	}
	if ix.Len() != len(keys) {
		t.Fatalf("Len=%d after reinsert, want %d", ix.Len(), len(keys))
	}
	for i := 0; i < len(keys); i += 3 {
		if v, ok := ix.Get(keys[i]); !ok || v != 42 {
			t.Fatalf("reinserted key %d = (%d,%v)", keys[i], v, ok)
		}
	}
}

func testScan(t *testing.T, factory Factory) {
	ix := factory()
	defer closeIfCloser(ix)
	keys := dataset.Generate(dataset.LongLat, 10000, 6)
	loaded, pending := workload.SplitLoad(keys, 0.7, 7)
	if err := ix.Bulkload(dataset.Pairs(loaded)); err != nil {
		t.Fatal(err)
	}
	for _, k := range pending {
		_ = ix.Insert(k, dataset.ValueFor(k))
	}
	ref := dataset.Pairs(sortedCopy(keys))
	for trial := 0; trial < 40; trial++ {
		start := ref[(trial*251)%len(ref)].Key
		limit := 1 + (trial*7)%120
		var got []index.KV
		n := index.Walk(ix, start, ^uint64(0), limit, func(k, v uint64) bool {
			got = append(got, index.KV{Key: k, Value: v})
			return true
		})
		if want := refWindow(ref, start, ^uint64(0), limit); n != len(want) || !slices.Equal(got, want) {
			t.Fatalf("Walk(%d, %d) = %d pairs, want %d", start, limit, n, len(want))
		}
	}
}

// refWindow is the reference scan of the sorted pairs ref: up to max pairs
// with keys in [start, end), where end == ^uint64(0) is unbounded.
func refWindow(ref []index.KV, start, end uint64, max int) (out []index.KV) {
	for _, kv := range ref {
		if len(out) == max || (end != ^uint64(0) && kv.Key >= end) {
			break
		}
		if kv.Key >= start {
			out = append(out, kv)
		}
	}
	return out
}

// testScanAppendWindow holds ScanAppend to its half-open window contract
// against a sorted reference, over keys in both of an index's layers
// (bulkloaded, then inserted): edge windows, a dst prefix that must
// survive, key MaxUint64 under the unbounded end, and random windows.
func testScanAppendWindow(t *testing.T, factory Factory) {
	ix := factory()
	defer closeIfCloser(ix)
	keys := dataset.Generate(dataset.OSM, 6000, 71)
	loaded, pending := workload.SplitLoad(keys, 0.6, 72)
	if err := ix.Bulkload(dataset.Pairs(loaded)); err != nil {
		t.Fatal(err)
	}
	for _, k := range pending {
		if err := ix.Insert(k, dataset.ValueFor(k)); err != nil {
			t.Fatal(err)
		}
	}
	ref := dataset.Pairs(sortedCopy(keys))
	check := func(start, end uint64, max int, prefix ...index.KV) {
		t.Helper()
		want := append(slices.Clone(prefix), refWindow(ref, start, end, max)...)
		if got := ix.ScanAppend(prefix, start, end, max); !slices.Equal(got, want) {
			t.Fatalf("ScanAppend(%d, %d, %d) after %d dst pairs: %d pairs, want %d (%v...)",
				start, end, max, len(prefix), len(got)-len(prefix), len(want)-len(prefix), want[:min(len(want), 4)])
		}
	}
	last, mid := ref[len(ref)-1].Key, len(ref)/2
	for _, w := range []struct {
		start, end uint64
		max        int
	}{
		{last + 1, ^uint64(0), 10},           // start past the last key
		{ref[mid].Key, ref[mid+10].Key, 100}, // end cuts inside the window
		{ref[mid].Key, ref[mid+50].Key, 7},   // max cuts first
		{ref[mid].Key, ref[mid].Key, 10},     // end == start: empty
		{ref[mid].Key, ref[mid-5].Key, 10},   // end < start: empty
	} {
		check(w.start, w.end, w.max)
	}
	check(ref[mid].Key, ^uint64(0), 5, index.KV{Key: 1, Value: 2}, index.KV{Key: 3, Value: 4})

	// The unbounded end includes key MaxUint64 itself.
	for _, k := range []uint64{^uint64(0) - 1, ^uint64(0)} {
		if err := ix.Insert(k, dataset.ValueFor(k)); err != nil {
			t.Fatal(err)
		}
		ref = append(ref, index.KV{Key: k, Value: dataset.ValueFor(k)})
	}
	check(last, ^uint64(0), 10)
	rng := rand.New(rand.NewSource(73))
	for trial := 0; trial < 300; trial++ {
		start := ref[rng.Intn(len(ref))].Key + uint64(trial%2*rng.Intn(1<<20)) // on or between keys
		end := start + uint64(rng.Intn(1<<30))
		if trial%5 == 0 {
			end = ^uint64(0)
		}
		check(start, end, 1+rng.Intn(200))
	}
}

func testVersusMap(t *testing.T, factory Factory) {
	base := dataset.Generate(dataset.OSM, 3000, 8)
	for _, seed := range []int64{1, 7, 42} {
		ix := factory()
		if err := ix.Bulkload(dataset.Pairs(base[:1500])); err != nil {
			t.Fatal(err)
		}
		ref := map[uint64]uint64{}
		for _, k := range base[:1500] {
			ref[k] = dataset.ValueFor(k)
		}
		r := rand.New(rand.NewSource(seed))
		for i := 0; i < 4000; i++ {
			k := base[r.Intn(len(base))]
			switch r.Intn(4) {
			case 0:
				v := r.Uint64()
				_ = ix.Insert(k, v)
				ref[k] = v
			case 1:
				got, ok := ix.Get(k)
				want, wok := ref[k]
				if ok != wok || (ok && got != want) {
					t.Fatalf("seed %d op %d: Get(%d)=(%d,%v) want (%d,%v)",
						seed, i, k, got, ok, want, wok)
				}
			case 2:
				_, wok := ref[k]
				if ix.Remove(k) != wok {
					t.Fatalf("seed %d op %d: Remove(%d) want %v", seed, i, k, wok)
				}
				delete(ref, k)
			case 3:
				v := r.Uint64()
				_, wok := ref[k]
				if ix.Update(k, v) != wok {
					t.Fatalf("seed %d op %d: Update(%d) want %v", seed, i, k, wok)
				}
				if wok {
					ref[k] = v
				}
			}
		}
		if ix.Len() != len(ref) {
			t.Fatalf("seed %d: Len=%d ref=%d", seed, ix.Len(), len(ref))
		}
		for k, want := range ref {
			if got, ok := ix.Get(k); !ok || got != want {
				t.Fatalf("seed %d final: Get(%d)=(%d,%v) want %d", seed, k, got, ok, want)
			}
		}
		closeIfCloser(ix)
	}
}

func testConcurrent(t *testing.T, factory Factory) {
	ix := factory()
	defer closeIfCloser(ix)
	keys := dataset.Generate(dataset.OSM, 30000, 9)
	loaded, pending := workload.SplitLoad(keys, 0.5, 10)
	if err := ix.Bulkload(dataset.Pairs(loaded)); err != nil {
		t.Fatal(err)
	}
	const workers = 8
	per := len(pending) / workers
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(w)))
			for _, k := range pending[w*per : (w+1)*per] {
				if err := ix.Insert(k, dataset.ValueFor(k)); err != nil {
					t.Error(err)
					return
				}
				g := loaded[r.Intn(len(loaded))]
				if v, ok := ix.Get(g); !ok || v != dataset.ValueFor(g) {
					t.Errorf("concurrent Get(%d)=(%d,%v)", g, v, ok)
					return
				}
				if r.Intn(8) == 0 {
					index.Walk(ix, g, ^uint64(0), 10, func(a, b uint64) bool { return true })
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for w := 0; w < workers; w++ {
		for _, k := range pending[w*per : (w+1)*per] {
			if v, ok := ix.Get(k); !ok || v != dataset.ValueFor(k) {
				t.Fatalf("inserted key %d lost (%d,%v)", k, v, ok)
			}
		}
	}
	for _, k := range loaded {
		if v, ok := ix.Get(k); !ok || v != dataset.ValueFor(k) {
			t.Fatalf("loaded key %d lost (%d,%v)", k, v, ok)
		}
	}
}

func testMemory(t *testing.T, factory Factory) {
	ix := factory()
	defer closeIfCloser(ix)
	keys := dataset.Generate(dataset.Libio, 5000, 11)
	if err := ix.Bulkload(dataset.Pairs(keys)); err != nil {
		t.Fatal(err)
	}
	if m := ix.MemoryUsage(); m < uintptr(len(keys))*8 {
		t.Fatalf("MemoryUsage=%d implausibly small", m)
	}
}
