//go:build failpoint

package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"altindex/internal/dataset"
	"altindex/internal/indextest"
)

// TestOneRebuildInFlight pins the retraining pipeline's shape: one index
// runs one rebuild at a time. Writers cross retrain thresholds in eight
// disjoint regions at once, so triggers for unrelated ranges queue
// together, and every freeze is stretched so that two overlapping rebuilds
// would stay visible to a sampler reading the in-flight count. A pool that
// rebuilds disjoint ranges concurrently fails here.
func TestOneRebuildInFlight(t *testing.T) {
	keys := dataset.Generate(dataset.OSM, 30000, 41)
	alt := mustBulk(t, Options{ErrorBound: 16}, keys)
	indextest.Arm(t, indextest.Schedule{
		"core/retrain/freeze": func(int64) { time.Sleep(2 * time.Millisecond) },
	})

	stop := make(chan struct{})
	var peak atomic.Int64
	var sampler sync.WaitGroup
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if n := alt.ret.inflight.Load(); n > peak.Load() {
				peak.Store(n)
			}
			runtime.Gosched()
		}
	}()

	// Each writer fills the key range of its own model, the models spread
	// evenly over the table, so every region trips its own trigger.
	const regions = 8
	const perWriter = 3000
	tb := alt.tab.Load()
	var wg sync.WaitGroup
	for w := 0; w < regions; w++ {
		lo, end := tb.rangeBounds((w + 1) * len(tb.dir) / (regions + 1))
		step := max((end-lo)/perWriter, 1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := uint64(0); i < perWriter; i++ {
				k := lo + i*step
				if err := alt.Insert(k, k); err != nil {
					panic(err)
				}
			}
		}()
	}
	wg.Wait()
	alt.Quiesce()
	close(stop)
	sampler.Wait()

	if n := alt.retrains.Load(); n < regions {
		t.Fatalf("%d rebuilds ran; the writers should have triggered at least one per region", n)
	}
	t.Logf("%d rebuilds, peak in flight %d", alt.retrains.Load(), peak.Load())
	if p := peak.Load(); p > 1 {
		t.Fatalf("%d rebuilds of one index were in flight at once", p)
	}
	checkTable(t, alt)
}
