package bench

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"altindex/internal/dataset"
	"altindex/internal/histogram"
	"altindex/internal/index"
	"altindex/internal/workload"
)

// Prepared is a reusable benchmark scenario: a bulkloaded index plus the
// per-thread operation streams of a workload. It lets testing.B benchmarks
// exclude the build from the timed region, and it is the one place the
// harness generates, splits and bulkloads a dataset — Run and every
// experiment cell start here.
type Prepared struct {
	Ix      index.Concurrent
	Build   time.Duration // wall time of the bulkload
	cfg     Config
	loaded  []uint64 // the bulkloaded keys, ascending
	streams []*workload.Stream
}

// Prepare generates the dataset, bulkloads a fresh index and sets up one
// operation stream per thread.
func Prepare(factory func() index.Concurrent, cfg Config) *Prepared {
	cfg = cfg.withDefaults()
	keys := dataset.Generate(cfg.Dataset, cfg.Keys, cfg.Seed)
	var loaded, pending []uint64
	if cfg.Hot {
		loaded, pending = workload.HotSplit(keys, cfg.HotFrac, cfg.Seed)
	} else {
		loaded, pending = workload.SplitLoad(keys, cfg.InitRatio, cfg.Seed)
	}
	ix := factory()
	t0 := time.Now()
	if err := ix.Bulkload(dataset.Pairs(loaded)); err != nil {
		panic(fmt.Sprintf("bench: bulkload %s: %v", ix.Name(), err))
	}
	p := &Prepared{Ix: ix, Build: time.Since(t0), cfg: cfg, loaded: loaded}
	w := workload.New(workload.Config{
		Mix: cfg.Mix, Theta: cfg.Theta, Threads: cfg.Threads, Seed: cfg.Seed + 1,
	}, loaded, pending)
	for tid := 0; tid < cfg.Threads; tid++ {
		p.streams = append(p.streams, w.Stream(tid))
	}
	return p
}

// launch parks one goroutine per stream behind a start gate and returns
// the function that opens the gate, waits for them and reports the number
// of operations executed — so a caller can put its clock (and GC window)
// around measured work only, not goroutine spawn.
//
// ops is split across the threads with the remainder spread over the first
// ops%threads of them, so every requested operation runs even when ops is
// not a multiple of the thread count — in particular ops < threads must
// not silently run zero operations. A positive d instead gives every
// thread an unbounded op budget and a wall-clock deadline that starts when
// the gate opens. A nil hist disables latency sampling.
func (p *Prepared) launch(ops int, d time.Duration, hist *histogram.Histogram) (release func() int) {
	base, rem := ops/len(p.streams), ops%len(p.streams)
	if d > 0 {
		// -1 marks an unbounded per-thread budget (the deadline is the only
		// stop condition); 0 must keep meaning "no ops for this thread".
		base, rem = -1, 0
	}
	var achieved atomic.Int64
	var wg sync.WaitGroup
	start := make(chan struct{})
	for tid, s := range p.streams {
		n := base
		if tid < rem {
			n++
		}
		wg.Add(1)
		go func(s *workload.Stream, n int) {
			defer wg.Done()
			<-start
			var dl time.Time
			if d > 0 {
				dl = time.Now().Add(d)
			}
			if p.cfg.BatchSize > 1 {
				n = runThreadBatched(p.Ix, s, n, p.cfg.BatchSize, p.cfg.LoopBatch, p.cfg.SampleEvery, hist, dl)
			} else {
				n = runThread(p.Ix, s, n, p.cfg.SampleEvery, hist, dl)
			}
			achieved.Add(int64(n))
		}(s, n)
	}
	return func() int {
		close(start)
		wg.Wait()
		return int(achieved.Load())
	}
}

// Exec runs ops operations split across the prepared threads (no latency
// sampling). Streams continue where the previous Exec stopped.
func (p *Prepared) Exec(ops int) { p.launch(ops, 0, nil)() }

// result snapshots the index behind p into the Result fields that do not
// depend on a measured window. It first drains any asynchronous
// maintenance (background retraining) so memory and stats are settled;
// that wait is deliberately outside every timed window: writers never
// wait for it, that is the design.
func (p *Prepared) result() Result {
	if q, ok := p.Ix.(interface{ Quiesce() }); ok {
		q.Quiesce()
	}
	res := Result{
		Index:     p.Ix.Name(),
		Dataset:   p.cfg.Dataset,
		Mix:       p.cfg.Mix.Name,
		Threads:   p.cfg.Threads,
		BuildTime: p.Build,
		Mem:       p.Ix.MemoryUsage(),
		Len:       p.Ix.Len(),
	}
	if st, ok := p.Ix.(index.Stats); ok {
		res.Stats = st.StatsMap()
	}
	return res
}

// Close releases background machinery owned by the index.
func (p *Prepared) Close() { CloseIndex(p.Ix) }
