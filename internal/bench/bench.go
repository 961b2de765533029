// Package bench is the benchmark harness that regenerates every table and
// figure of the ALT-index paper's evaluation (§IV) against the six index
// implementations in this repository. Each experiment is exposed both as a
// function (used by cmd/altbench and the root testing.B benchmarks) and
// prints the same rows/series the paper reports.
package bench

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"altindex/internal/dataset"
	"altindex/internal/histogram"
	"altindex/internal/index"
	"altindex/internal/workload"
)

// Config describes one benchmark run of one index.
type Config struct {
	Dataset   dataset.Name
	Keys      int     // total dataset size
	InitRatio float64 // bulkloaded fraction (default 0.5, §IV-A2)
	Hot       bool    // reserve a consecutive middle range for inserts
	HotFrac   float64 // reserved fraction for Hot (default 0.2)
	Mix       workload.Mix
	Theta     float64 // zipfian θ for reads (default 0.99)
	Threads   int
	Ops       int // total operations across all threads
	Seed      uint64
	// SampleEvery controls latency sampling (default every 16th op).
	SampleEvery int
	// BatchSize groups consecutive same-kind Get/Insert operations into
	// GetBatch/InsertBatch calls of at most this size. 0 or 1 selects the
	// per-key path. Latency samples then cover a whole batch.
	BatchSize int
	// Duration, when positive, makes the run time-bounded: every thread
	// executes operations until the wall-clock budget expires and Ops is
	// ignored as a stop condition. Result.Ops then reports the achieved
	// operation count, so throughput stays comparable across host speeds
	// (a slow machine runs fewer ops instead of taking longer).
	Duration time.Duration
	// LoopBatch forces the generic per-key loop fallback
	// (index.LoopBatcher) even when the index natively implements
	// index.Batcher — the comparison baseline for native batch paths.
	LoopBatch bool
}

func (c Config) withDefaults() Config {
	if c.Keys == 0 {
		c.Keys = 2_000_000
	}
	if c.InitRatio == 0 {
		c.InitRatio = 0.5
	}
	if c.HotFrac == 0 {
		c.HotFrac = 0.2
	}
	if c.Theta == 0 {
		c.Theta = 0.99
	}
	if c.Threads == 0 {
		c.Threads = defaultThreads()
	}
	if c.Ops == 0 {
		c.Ops = 1_000_000
	}
	if c.SampleEvery == 0 {
		c.SampleEvery = 16
	}
	return c
}

func defaultThreads() int {
	t := runtime.GOMAXPROCS(0)
	if t > 32 {
		t = 32
	}
	return t
}

// Result is the outcome of one run.
type Result struct {
	Index     string
	Dataset   dataset.Name
	Mix       string
	Threads   int
	Ops       int
	Elapsed   time.Duration
	Mops      float64
	Mean      time.Duration
	P50       time.Duration
	P99       time.Duration
	P999      time.Duration
	BuildTime time.Duration
	Mem       uintptr
	Len       int
	Stats     map[string]int64
	// GC carries the collector telemetry captured across the measured
	// window (see GCTelemetry); nil only for hand-built Results.
	GC *GCTelemetry
}

// Run bulkloads a fresh index from factory and drives cfg's workload
// against it with cfg.Threads goroutines, returning throughput, sampled
// latency percentiles, memory and internal stats.
func Run(factory func() index.Concurrent, cfg Config) Result {
	cfg = cfg.withDefaults()
	// Collect the previous run's garbage so back-to-back comparisons of
	// different indexes don't charge one index for another's heap.
	runtime.GC()
	keys := dataset.Generate(cfg.Dataset, cfg.Keys, cfg.Seed)
	var loaded, pending []uint64
	if cfg.Hot {
		loaded, pending = workload.HotSplit(keys, cfg.HotFrac, cfg.Seed)
	} else {
		loaded, pending = workload.SplitLoad(keys, cfg.InitRatio, cfg.Seed)
	}

	ix := factory()
	defer closeIfCloser(ix)
	buildStart := time.Now()
	if err := ix.Bulkload(dataset.Pairs(loaded)); err != nil {
		panic(fmt.Sprintf("bench: bulkload %s: %v", ix.Name(), err))
	}
	build := time.Since(buildStart)

	w := workload.New(workload.Config{
		Mix:     cfg.Mix,
		Theta:   cfg.Theta,
		Threads: cfg.Threads,
		Seed:    cfg.Seed + 1,
	}, loaded, pending)

	if cfg.Ops < 0 {
		panic(fmt.Sprintf("bench: Ops = %d, must be positive", cfg.Ops))
	}
	// Distribute cfg.Ops across threads with the remainder spread over the
	// first Ops%Threads of them, so every configured operation runs even
	// when Ops is not a multiple of Threads — in particular Ops < Threads
	// must not silently run zero operations. Time-bounded runs instead give
	// every thread an unbounded op budget and a shared wall-clock deadline.
	base, rem := cfg.Ops/cfg.Threads, cfg.Ops%cfg.Threads
	if cfg.Duration > 0 {
		// -1 marks an unbounded per-thread budget (the deadline is the only
		// stop condition); 0 must keep meaning "no ops for this thread".
		base, rem = -1, 0
	}
	var achieved atomic.Int64
	var hist histogram.Histogram
	var wg sync.WaitGroup
	start := make(chan struct{})
	for tid := 0; tid < cfg.Threads; tid++ {
		ops := base
		if tid < rem {
			ops++
		}
		wg.Add(1)
		go func(tid, ops int) {
			defer wg.Done()
			s := w.Stream(tid)
			<-start
			// The deadline starts at the release of the start gate, so the
			// budget covers measured work only, not goroutine spawn.
			var dl time.Time
			if cfg.Duration > 0 {
				dl = time.Now().Add(cfg.Duration)
			}
			var n int
			if cfg.BatchSize > 1 {
				n = runThreadBatched(ix, s, ops, cfg.BatchSize, cfg.LoopBatch, cfg.SampleEvery, &hist, dl)
			} else {
				n = runThread(ix, s, ops, cfg.SampleEvery, &hist, dl)
			}
			achieved.Add(int64(n))
		}(tid, ops)
	}
	gw := startGCWindow()
	t0 := time.Now()
	close(start)
	wg.Wait()
	elapsed := time.Since(t0)
	gc := gw.finish()
	doneOps := int(achieved.Load())
	// Drain any asynchronous maintenance (background retraining) so the
	// memory/stats snapshot below is settled. Deliberately outside the
	// timed window: writers never wait for it, that is the design.
	if q, ok := ix.(interface{ Quiesce() }); ok {
		q.Quiesce()
	}

	res := Result{
		Index:     ix.Name(),
		Dataset:   cfg.Dataset,
		Mix:       cfg.Mix.Name,
		Threads:   cfg.Threads,
		Ops:       doneOps,
		Elapsed:   elapsed,
		Mops:      float64(doneOps) / elapsed.Seconds() / 1e6,
		Mean:      hist.Mean(),
		P50:       hist.Quantile(0.50),
		P99:       hist.Quantile(0.99),
		P999:      hist.Quantile(0.999),
		BuildTime: build,
		Mem:       ix.MemoryUsage(),
		Len:       ix.Len(),
		GC:        gc,
	}
	if st, ok := ix.(index.Stats); ok {
		res.Stats = st.StatsMap()
	}
	return res
}

// runThread executes up to ops operations (unbounded when ops < 0; zero
// means zero) and returns the number actually executed. A non-zero
// deadline dl stops the loop once the wall clock passes it; the check
// runs every 64 ops so the common fixed-ops path pays nothing
// measurable for it.
func runThread(ix index.Concurrent, s *workload.Stream, ops, sampleEvery int, hist *histogram.Histogram, dl time.Time) int {
	done := 0
	for i := 0; ops < 0 || i < ops; i++ {
		if !dl.IsZero() && i&63 == 0 && time.Now().After(dl) {
			break
		}
		op := s.Next()
		done++
		sampled := i%sampleEvery == 0
		var t0 time.Time
		if sampled {
			t0 = time.Now()
		}
		switch op.Kind {
		case workload.Get:
			ix.Get(op.Key)
		case workload.Insert:
			_ = ix.Insert(op.Key, op.Value)
		case workload.Update:
			ix.Update(op.Key, op.Value)
		case workload.Remove:
			ix.Remove(op.Key)
		case workload.Scan:
			ix.Scan(op.Key, op.N, func(uint64, uint64) bool { return true })
		}
		if sampled {
			hist.Record(time.Since(t0))
		}
	}
	return done
}

// runThreadBatched drives the stream through the batched API: consecutive
// Get ops accumulate into a GetBatch, consecutive Inserts into an
// InsertBatch, flushed when the kind changes or the batch fills. Other op
// kinds run per-key. Each latency sample covers one whole flushed batch.
// Like runThread it returns the executed op count, honoring the deadline.
func runThreadBatched(ix index.Concurrent, s *workload.Stream, ops, batchSize int, loopBatch bool, sampleEvery int, hist *histogram.Histogram, dl time.Time) int {
	bt := index.BatchOf(ix)
	if loopBatch {
		bt = index.LoopBatcher(ix)
	}
	getKeys := make([]uint64, 0, batchSize)
	vals := make([]uint64, batchSize)
	found := make([]bool, batchSize)
	pairs := make([]index.KV, 0, batchSize)
	flushes := 0
	flush := func() {
		if len(getKeys) == 0 && len(pairs) == 0 {
			return
		}
		flushes++
		sampled := flushes%sampleEvery == 0
		var t0 time.Time
		if sampled {
			t0 = time.Now()
		}
		if len(getKeys) > 0 {
			bt.GetBatch(getKeys, vals[:len(getKeys)], found[:len(getKeys)])
			getKeys = getKeys[:0]
		}
		if len(pairs) > 0 {
			_ = bt.InsertBatch(pairs)
			pairs = pairs[:0]
		}
		if sampled {
			hist.Record(time.Since(t0))
		}
	}
	done := 0
	for i := 0; ops < 0 || i < ops; i++ {
		if !dl.IsZero() && i&63 == 0 && time.Now().After(dl) {
			break
		}
		op := s.Next()
		done++
		switch op.Kind {
		case workload.Get:
			if len(pairs) > 0 || len(getKeys) == batchSize {
				flush()
			}
			getKeys = append(getKeys, op.Key)
		case workload.Insert:
			if len(getKeys) > 0 || len(pairs) == batchSize {
				flush()
			}
			pairs = append(pairs, index.KV{Key: op.Key, Value: op.Value})
		default:
			flush()
			switch op.Kind {
			case workload.Update:
				ix.Update(op.Key, op.Value)
			case workload.Remove:
				ix.Remove(op.Key)
			case workload.Scan:
				ix.Scan(op.Key, op.N, func(uint64, uint64) bool { return true })
			}
		}
	}
	flush()
	return done
}

func closeIfCloser(ix index.Concurrent) {
	if c, ok := ix.(io.Closer); ok {
		_ = c.Close()
	}
}

// BuildOnly bulkloads a fresh index and returns it with its build time.
// The caller must Close closeable indexes; CloseIndex helps.
func BuildOnly(factory func() index.Concurrent, name dataset.Name, keys int, initRatio float64, seed uint64) (index.Concurrent, time.Duration) {
	all := dataset.Generate(name, keys, seed)
	loaded := all
	if initRatio > 0 && initRatio < 1 {
		loaded, _ = workload.SplitLoad(all, initRatio, seed)
	}
	ix := factory()
	t0 := time.Now()
	if err := ix.Bulkload(dataset.Pairs(loaded)); err != nil {
		panic(fmt.Sprintf("bench: bulkload %s: %v", ix.Name(), err))
	}
	return ix, time.Since(t0)
}

// CloseIndex stops any background machinery owned by ix.
func CloseIndex(ix index.Concurrent) { closeIfCloser(ix) }
