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
	if cfg.Ops < 0 {
		panic(fmt.Sprintf("bench: Ops = %d, must be positive", cfg.Ops))
	}
	// Collect the previous run's garbage so back-to-back comparisons of
	// different indexes don't charge one index for another's heap.
	runtime.GC()
	p := Prepare(factory, cfg)
	defer p.Close()

	var hist histogram.Histogram
	release := p.launch(p.cfg.Ops, p.cfg.Duration, &hist)
	gw := startGCWindow()
	t0 := time.Now()
	doneOps := release()
	elapsed := time.Since(t0)
	gc := gw.finish()

	res := p.result().measured(doneOps, elapsed, &hist)
	res.GC = gc
	return res
}

// measured fills in the fields every timed window reports: the achieved
// op count, throughput and — when hist sampled any — latency percentiles.
func (r Result) measured(ops int, elapsed time.Duration, hist *histogram.Histogram) Result {
	r.Ops, r.Elapsed = ops, elapsed
	r.Mops = float64(ops) / elapsed.Seconds() / 1e6
	if hist != nil {
		r.Mean, r.P50, r.P99, r.P999 = hist.Mean(), hist.Quantile(0.50), hist.Quantile(0.99), hist.Quantile(0.999)
	}
	return r
}

// runThread executes up to ops operations (unbounded when ops < 0; zero
// means zero) and returns the number actually executed. A non-zero
// deadline dl stops the loop once the wall clock passes it; the check
// runs every 64 ops so the common fixed-ops path pays nothing
// measurable for it. A nil hist disables latency sampling.
func runThread(ix index.Concurrent, s *workload.Stream, ops, sampleEvery int, hist *histogram.Histogram, dl time.Time) int {
	done := 0
	var dst []index.KV
	for i := 0; ops < 0 || i < ops; i++ {
		if !dl.IsZero() && i&63 == 0 && time.Now().After(dl) {
			break
		}
		op := s.Next()
		done++
		sampled := hist != nil && i%sampleEvery == 0
		var t0 time.Time
		if sampled {
			t0 = time.Now()
		}
		dst = apply(ix, op, dst)
		if sampled {
			hist.Record(time.Since(t0))
		}
	}
	return done
}

// apply executes one per-key operation against ix. A scan fills the
// caller's reused buffer, which apply returns.
func apply(ix index.Concurrent, op workload.Op, dst []index.KV) []index.KV {
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
		return ix.ScanAppend(dst[:0], op.Key, ^uint64(0), op.N)
	}
	return dst
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
	var scanBuf []index.KV
	flushes := 0
	flush := func() {
		if len(getKeys) == 0 && len(pairs) == 0 {
			return
		}
		flushes++
		sampled := hist != nil && flushes%sampleEvery == 0
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
			scanBuf = apply(ix, op, scanBuf)
		}
	}
	flush()
	return done
}

// CloseIndex stops any background machinery owned by ix.
func CloseIndex(ix index.Concurrent) {
	if c, ok := ix.(io.Closer); ok {
		_ = c.Close()
	}
}
