//go:build failpoint

package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"altindex/internal/dataset"
	"altindex/internal/failpoint"
	"altindex/internal/index"
	"altindex/internal/xrand"
)

// TestScanDedupDuringStretchedMigration stretches the §III-F freeze and
// publish windows while a hot insert stream keeps models rebuilding, and
// scans continuously through both the bounded kernel and the callback
// shim. A rebuild moves keys between the layers only while its model is
// frozen; a scan that read the slots before the freeze and ART after the
// move could meet a key twice, and frozenIn sends it back to retry. Every
// scan must emit strictly ascending keys with exact values — every write
// in this test is Insert(k, ValueFor(k)), so a torn or double-merged pair
// is visible.
func TestScanDedupDuringStretchedMigration(t *testing.T) {
	const grid = 1 << 12
	keys := make([]uint64, 0, grid)
	for i := uint64(0); i < grid; i++ {
		keys = append(keys, i*16)
	}
	alt := mustBulk(t, Options{ErrorBound: 16, RetrainMinInserts: 128}, keys)

	for site, spec := range map[string]string{
		"core/retrain/freeze":  "delay(500us)",
		"core/retrain/publish": "delay(500us)",
	} {
		if err := failpoint.Enable(site, spec); err != nil {
			t.Fatal(err)
		}
	}
	defer failpoint.DisableAll()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	stopStream := sync.OnceFunc(func() { close(stop); wg.Wait() })
	defer stopStream()
	var inserted atomic.Int64
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := xrand.New(42)
		for {
			select {
			case <-stop:
				return
			default:
			}
			// Dense off-grid inserts concentrate on a few models, pushing
			// them over the retrain threshold again and again.
			k := uint64(rng.Intn(grid))*16 + 1 + uint64(rng.Intn(8))
			if err := alt.Insert(k, dataset.ValueFor(k)); err != nil {
				t.Errorf("Insert(%d): %v", k, err)
				return
			}
			inserted.Add(1)
		}
	}()

	// Scan only once the stream runs (on one core the trial loop could
	// otherwise finish first), and go on past the 250 trials until a
	// rebuild has published, so the stretched windows are scanned through.
	deadline := time.Now().Add(time.Minute)
	for inserted.Load() == 0 && time.Now().Before(deadline) {
		runtime.Gosched()
	}
	rng := xrand.New(17)
	dst := make([]index.KV, 0, 4096)
	for trial := 0; trial < 250 || alt.retrains.Load() == 0; trial++ {
		if time.Now().After(deadline) {
			t.Fatalf("no retraining published within a minute: %d trials, %d inserts", trial, inserted.Load())
		}
		start := uint64(rng.Intn(grid * 16))
		max := 64 + rng.Intn(2048)
		dst = alt.ScanAppend(dst[:0], start, ^uint64(0), max)
		for i, kv := range dst {
			if i > 0 && kv.Key <= dst[i-1].Key {
				t.Fatalf("trial %d: duplicate/disordered key %d after %d during stretched migration",
					trial, kv.Key, dst[i-1].Key)
			}
			if kv.Value != dataset.ValueFor(kv.Key) {
				t.Fatalf("trial %d: key %d carries %#x, want ValueFor", trial, kv.Key, kv.Value)
			}
		}
		// The walker over the same window.
		var prev uint64
		n := 0
		index.Walk(alt, start, ^uint64(0), 256, func(k, v uint64) bool {
			if n > 0 && k <= prev {
				t.Fatalf("trial %d: Walk duplicate/disordered %d after %d", trial, k, prev)
			}
			prev = k
			n++
			return true
		})
	}
	stopStream()
	if inserted.Load() == 0 {
		t.Fatal("insert stream never ran")
	}
	alt.Quiesce()
	if alt.retrains.Load() == 0 {
		t.Fatal("no retraining fired; the stretched windows were never exercised")
	}
	for _, site := range []string{"core/retrain/freeze", "core/retrain/publish"} {
		if failpoint.Hits(site) == 0 {
			t.Errorf("site %s never fired; the migration window was not stretched", site)
		}
	}
}
