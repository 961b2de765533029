package main

import (
	"fmt"
	"os"
	"runtime"
	"slices"
	"syscall"
	"time"

	"altindex/internal/xrand"
)

// logf writes a diagnostic to standard error; a slice's standard output
// carries only its result.
func logf(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) }

// Run shape. These are constants of the benchmark, not knobs: one driver
// goroutine in a closed loop, fixed work per window, every slice (set-up,
// warm-up, windows) in a process of its own, and many short windows with a
// reference probe between them (see ref.go, runner.go and NOISE.md).
const (
	roundsPerRun     = 4 // slices per workload per run
	pointSampleEvery = 8 // point ops between two latency samples; calls and bursts are all sampled
)

// Latency classes. Every workload has reads and writes; only mem-range
// has scans.
const (
	classRead = iota
	classWrite
	classScan
	numClasses
)

// sliceConfig selects one slice. Seed reaches only the generators; the
// program under test sees the keys and operations they produce.
type sliceConfig struct {
	Workload string
	Seed     uint64
	Round    int
	Seconds  int     // the run's --seconds; scales the ops of a window
	Scale    float64 // 1 in every measured run; the smoke test shrinks it
	Trace    bool
	OutDir   string // scratch for WAL directories and span files
}

// rng returns the generator stream of this slice. The seed and round are
// mixed through one splitmix64 step each: xrand's state advances by a
// fixed stride, so seeds that differ by that stride would otherwise yield
// one stream shifted by a step.
func (c sliceConfig) rng() *xrand.Rng {
	return xrand.New(xrand.New(c.Seed).Next() ^ xrand.New(uint64(c.Round)+1).Next()<<1)
}

// windowResult is one timed window. Percentiles are exact over the
// window's samples, in microseconds.
type windowResult struct {
	Work    int64               `json:"work"`
	Seconds float64             `json:"seconds"`
	CPU     float64             `json:"cpu_s"`
	P50     [numClasses]float64 `json:"p50_us"`
	P99     [numClasses]float64 `json:"p99_us"`
	Samples [numClasses]int     `json:"samples"`
	Ref     refReading          `json:"ref"` // mean of the probes before and after the window
}

// rate is the window's work per second as the clock saw it.
func (w windowResult) rate() float64 { return float64(w.Work) / w.Seconds }

// sliceResult is what a slice's process hands back to the runner.
type sliceResult struct {
	Workload    string            `json:"workload"`
	Round       int               `json:"round"`
	SetupPhases []float64         `json:"setup_phases_s"` // generate, load, warm-up
	SetupRefs   []refReading      `json:"setup_refs"`     // probes before the set-up, after the load and after the warm-up
	Windows     []windowResult    `json:"windows"`
	Retrains    int64             `json:"retrains"`  // background rebuilds finished during the windows
	GCCycles    uint32            `json:"gc_cycles"` // collector cycles finished during the windows
	Attempted   int64             `json:"attempted"`
	Failed      int64             `json:"failed"`
	Len         int               `json:"len"`
	BytesPerKey float64           `json:"bytes_per_key"`
	Keys        int               `json:"keys"`
	WindowOps   int               `json:"window_ops"`
	Info        map[string]string `json:"info,omitempty"`
	Stats       map[string]int64  `json:"stats,omitempty"`
	Spans       []layerRow        `json:"spans,omitempty"`
	SpanFile    string            `json:"span_file,omitempty"`
}

// recorder collects what the driver goroutine observes in one slice. The
// samples of every window stay in memory until the slice ends, because a
// window's percentiles count every failure of the slice (windows).
type recorder struct {
	base      time.Time
	samples   [numClasses][]int64 // latencies of the timed windows, in order
	cuts      []windowCut
	classFail [numClasses]int // failed operations per class, warm-up included
	attempted int64
	failed    int64
	spans     *spanLog // nil unless the slice is traced
	window    uint32   // id of the enclosing window span
}

// windowCut closes a window: where its samples end and what it measured.
type windowCut struct {
	ends    [numClasses]int
	work    int64
	seconds float64
	cpu     float64
	ref     refReading
}

func (r *recorder) now() int64 { return int64(time.Since(r.base)) }

// reserve sizes the sample buffers for n samples per class, so that no
// timed window pays for their growth.
func (r *recorder) reserve(n int) {
	for c := range r.samples {
		r.samples[c] = make([]int64, 0, n)
	}
}

// sample records the latency of one sampled call and, in a traced slice,
// its span. It returns the span id (0 when untraced) for child spans.
func (r *recorder) sample(class int, name uint8, op int, t0, t1 int64) uint32 {
	r.samples[class] = append(r.samples[class], t1-t0)
	if r.spans == nil {
		return 0
	}
	return r.spans.add(name, r.window, uint32(op), t0, t1)
}

// sampleCall records a call whose reply check takes measurable time: the
// latency sample is the call alone (t0..t1); a traced slice also records
// an op span that runs until now, with the call and the check below it.
func (r *recorder) sampleCall(class int, opName, callName uint8, op int, t0, t1 int64) {
	r.samples[class] = append(r.samples[class], t1-t0)
	if r.spans == nil {
		return
	}
	t2 := r.now()
	id := r.spans.add(opName, r.window, uint32(op), t0, t2)
	r.spans.add(callName, id, uint32(op), t0, t1)
	r.spans.add(spVerify, id, uint32(op), t1, t2)
}

// child records a span below parent; a no-op when untraced.
func (r *recorder) child(name uint8, parent uint32, op int, t0, t1 int64) {
	if r.spans != nil {
		r.spans.add(name, parent, uint32(op), t0, t1)
	}
}

// fail counts a reply that disagreed with the shadow model.
func (r *recorder) fail(class int, name uint8) {
	r.failed++
	r.classFail[class]++
	if r.spans != nil {
		r.spans.failures[name]++
	}
}

// dropSamples forgets the samples taken so far (the warm-up's); counts of
// attempted and failed operations stay.
func (r *recorder) dropSamples() {
	for c := range r.samples {
		r.samples[c] = r.samples[c][:0]
	}
}

func (r *recorder) endWindow(work int64, d time.Duration, cpu float64, ref refReading) {
	cut := windowCut{work: work, seconds: d.Seconds(), cpu: cpu, ref: ref}
	for c := range r.samples {
		cut.ends[c] = len(r.samples[c])
	}
	r.cuts = append(r.cuts, cut)
}

// windows computes every window's percentiles once the slice has ended.
// Each failed operation of the slice, in whichever window or in the
// warm-up, ranks in every window above all of its class's samples: it
// misses any latency limit, and an estimator that picks some windows out of
// many (summarize) cannot pick its way around it.
func (r *recorder) windows() []windowResult {
	out := make([]windowResult, len(r.cuts))
	var from [numClasses]int
	for i, cut := range r.cuts {
		w := windowResult{Work: cut.work, Seconds: cut.seconds, CPU: cut.cpu, Ref: cut.ref}
		for c := range r.samples {
			s := r.samples[c][from[c]:cut.ends[c]]
			slices.Sort(s)
			w.P50[c] = percentileNS(s, r.classFail[c], 0.50)
			w.P99[c] = percentileNS(s, r.classFail[c], 0.99)
			w.Samples[c] = len(s)
		}
		from = cut.ends
		out[i] = w
	}
	return out
}

// workload is one of the four systems under test with its generator and
// shadow model. prepare is never timed; build and run are.
type workload interface {
	// build generates the dataset and constructs the system; it returns
	// the time of each set-up phase (generator-only state is excluded).
	build() ([]time.Duration, error)
	// prepare generates the next n operations and advances the shadow
	// model past them, so each operation carries its expected reply.
	prepare(n int)
	// run executes the prepared operations in order, counts them as
	// attempted, and returns the work done in the workload's throughput
	// unit (operations, or keys touched on mem-range).
	run(r *recorder) int64
	// finish checks the final state and reports the live key count and
	// the bytes held per key.
	finish(r *recorder) (keys int, bytesPerKey float64, err error)
	// describe reports sizes and environment for the run header.
	describe() (keys int, info map[string]string)
	// stats returns the program's own counters (StatsMap / STATS).
	stats() map[string]int64
	close()
}

// sizing fixes a workload's work: key count, warm-up length, windows per
// slice and the ops of one window, which is rate*seconds spread over the
// run's windows. Rates were measured on the 2-vCPU reference host so that
// a run's windows take about --seconds together. sampleEvery is the ops
// between two latency samples; it only sizes the sample buffers.
type sizing struct {
	keys        int
	warmOps     int
	windows     int
	rate        float64
	sampleEvery int
}

func (s sizing) scaled(cfg sliceConfig) (keys, warmOps, windowOps int) {
	keys = int(float64(s.keys) * cfg.Scale)
	warmOps = int(float64(s.warmOps) * cfg.Scale)
	windowOps = int(s.rate * cfg.Scale * float64(cfg.Seconds) / float64(roundsPerRun*s.windows))
	return keys, warmOps, windowOps
}

// The four workloads. BENCHMARK.json lists the first three; net-durable
// runs in every traced run and in the all-workloads mode, ungated.
const (
	wlMemRead    = "mem-read"
	wlMemChurn   = "mem-churn"
	wlMemRange   = "mem-range"
	wlNetDurable = "net-durable"
)

var allWorkloads = []string{wlMemRead, wlMemChurn, wlMemRange, wlNetDurable}

func newWorkload(cfg sliceConfig) (workload, sizing, error) {
	switch cfg.Workload {
	case wlMemRead:
		return newMemRead(cfg), memReadSizing, nil
	case wlMemChurn:
		return newMemChurn(cfg), memChurnSizing, nil
	case wlMemRange:
		return newMemRange(cfg), memRangeSizing, nil
	case wlNetDurable:
		return newNetDurable(cfg), netDurableSizing, nil
	}
	return nil, sizing{}, fmt.Errorf("unknown workload %q", cfg.Workload)
}

// gcCycles is the number of collector cycles this process has finished.
func gcCycles() uint32 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.NumGC
}

// cpuSeconds is the CPU time this process has used so far, on all threads.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF and a valid pointer
	return float64(ru.Utime.Sec+ru.Stime.Sec) + float64(ru.Utime.Usec+ru.Stime.Usec)/1e6
}

// runSlice is one (workload, round): set-up, warm-up, the timed windows and
// the final checks.
func runSlice(cfg sliceConfig) (*sliceResult, error) {
	w, sz, err := newWorkload(cfg)
	if err != nil {
		return nil, err
	}
	return measureSlice(cfg, w, sz)
}

func measureSlice(cfg sliceConfig, w workload, sz sizing) (*sliceResult, error) {
	defer w.close()
	_, warmOps, windowOps := sz.scaled(cfg)
	if windowOps < 16 {
		return nil, fmt.Errorf("%s: %d ops per window is too few", cfg.Workload, windowOps)
	}

	rec := &recorder{base: time.Now()}
	ref := newReference(cfg.Scale)
	setupRefs := []refReading{ref.probe()}
	phases, err := w.build()
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", cfg.Workload, err)
	}
	setupRefs = append(setupRefs, ref.probe())
	// Warm-up is verified like any window but never traced or sampled
	// into a metric.
	rec.reserve(max(warmOps/sz.sampleEvery+1, sz.windows*(windowOps/sz.sampleEvery+1)))
	w.prepare(warmOps)
	t0 := time.Now()
	w.run(rec)
	phases = append(phases, time.Since(t0))
	setupRefs = append(setupRefs, ref.probe())
	rec.dropSamples()
	if cfg.Trace {
		rec.spans = &spanLog{}
	}

	res := &sliceResult{Workload: cfg.Workload, Round: cfg.Round, WindowOps: windowOps, SetupRefs: setupRefs}
	for _, d := range phases {
		res.SetupPhases = append(res.SetupPhases, d.Seconds())
	}
	// Work the program does in the background while the windows run,
	// counted so that a reader can tell whether a window holds it.
	retrains0, gc0 := w.stats()["retrains"], gcCycles()
	before := ref.probe()
	for i := 0; i < sz.windows; i++ {
		w.prepare(windowOps)
		start := rec.now()
		if rec.spans != nil {
			rec.window = rec.spans.add(spWindow, 0, uint32(i), start, start)
		}
		cpu0 := cpuSeconds()
		work := w.run(rec)
		end := rec.now()
		cpu := cpuSeconds() - cpu0
		if rec.spans != nil {
			rec.spans.spans[rec.window-1].end = end
		}
		after := ref.probe()
		rec.endWindow(work, time.Duration(end-start), cpu, between(before, after))
		before = after
	}
	res.Retrains, res.GCCycles = w.stats()["retrains"]-retrains0, gcCycles()-gc0
	res.Len, res.BytesPerKey, err = w.finish(rec)
	if err != nil {
		return nil, fmt.Errorf("%s: final check: %w", cfg.Workload, err)
	}
	res.Stats = w.stats()
	res.Windows = rec.windows()
	res.Attempted, res.Failed = rec.attempted, rec.failed
	res.Keys, res.Info = w.describe()
	if rec.spans != nil {
		res.Spans = rec.spans.table()
		res.SpanFile = fmt.Sprintf("%s/trace-%s.jsonl", cfg.OutDir, cfg.Workload)
		if err := rec.spans.write(res.SpanFile); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
	}
	return res, nil
}
