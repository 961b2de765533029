package bench

import (
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"time"
)

// GCTelemetry summarizes the garbage collector's behaviour across one
// measured benchmark window. At paper scale (tens of millions of keys)
// the collector is a first-order effect on the tails the harness
// measures, so every Result carries these numbers and the JSON artifacts
// make the GC cost a number instead of a claim. All counters are deltas
// between the window's start and end except the heap gauges, which are
// the end-of-window values.
type GCTelemetry struct {
	// Cycles is the number of collections completed inside the window.
	Cycles int64
	// PauseTotalNs sums the stop-the-world pauses inside the window;
	// PauseP50Ns/PauseP99Ns/PauseMaxNs are quantiles over the same
	// per-cycle pauses (zero when no cycle completed).
	PauseTotalNs int64
	PauseP50Ns   int64
	PauseP99Ns   int64
	PauseMaxNs   int64
	// PausePerSecNs normalizes the total pause by the window's wall
	// clock, the number the large-tier acceptance gate compares: it is
	// insensitive to how long the window ran.
	PausePerSecNs float64
	// HeapInuseBytes/HeapSysBytes are the live-span and OS-reserved heap
	// sizes at window end.
	HeapInuseBytes uint64
	HeapSysBytes   uint64
	// AllocBytes is the total allocation inside the window (retraining's
	// replacement slot arrays are most of it on write-heavy rows).
	AllocBytes uint64
	// ScanBytes is the pointer-scan work (heap + stacks + globals) the
	// collector performed inside the window — the number that pointer-free
	// slot-block storage drives toward zero per slot.
	ScanBytes uint64
	// GCCPUFraction is the runtime's lifetime estimate of CPU spent in
	// GC, read at window end.
	GCCPUFraction float64
}

// gcPauseRing bounds the pause history requested from the runtime; the
// runtime itself retains at most 256 pauses.
const gcPauseRing = 256

// gcWindow is an open telemetry window; startGCWindow opens one and
// finish closes it into a GCTelemetry.
type gcWindow struct {
	t0    time.Time
	gcs   debug.GCStats
	ms    runtime.MemStats
	scan0 uint64
}

// startGCWindow snapshots the collector's counters. Call immediately
// before the measured work; the snapshot itself briefly stops the world
// (ReadMemStats), which is why it sits outside the timed region.
func startGCWindow() *gcWindow {
	w := &gcWindow{}
	w.gcs.Pause = make([]time.Duration, 0, gcPauseRing)
	debug.ReadGCStats(&w.gcs)
	runtime.ReadMemStats(&w.ms)
	w.scan0 = readScanBytes()
	w.t0 = time.Now()
	return w
}

// finish closes the window and computes the deltas. The pause quantiles
// cover the cycles that completed inside the window (the runtime's ring
// holds the most recent 256 — more than any realistic window completes).
func (w *gcWindow) finish() *GCTelemetry {
	elapsed := time.Since(w.t0)
	var gcs debug.GCStats
	gcs.Pause = make([]time.Duration, 0, gcPauseRing)
	debug.ReadGCStats(&gcs)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)

	out := &GCTelemetry{
		Cycles:         gcs.NumGC - w.gcs.NumGC,
		PauseTotalNs:   int64(gcs.PauseTotal - w.gcs.PauseTotal),
		HeapInuseBytes: ms.HeapInuse,
		HeapSysBytes:   ms.HeapSys,
		AllocBytes:     ms.TotalAlloc - w.ms.TotalAlloc,
		GCCPUFraction:  ms.GCCPUFraction,
	}
	if s := readScanBytes(); s >= w.scan0 {
		out.ScanBytes = s - w.scan0
	}
	if sec := elapsed.Seconds(); sec > 0 {
		out.PausePerSecNs = float64(out.PauseTotalNs) / sec
	}
	n := int(out.Cycles)
	if n > len(gcs.Pause) {
		n = len(gcs.Pause) // ring shorter than the cycle count: best effort
	}
	if n > 0 {
		// gcs.Pause is most-recent-first; the window's pauses are the
		// prefix. Sort a copy for the quantiles.
		pauses := append([]time.Duration(nil), gcs.Pause[:n]...)
		sort.Slice(pauses, func(i, j int) bool { return pauses[i] < pauses[j] })
		out.PauseP50Ns = int64(pauses[n/2])
		out.PauseP99Ns = int64(pauses[n*99/100])
		out.PauseMaxNs = int64(pauses[n-1])
	}
	return out
}

// readScanBytes reads the collector's cumulative pointer-scan byte count
// (heap + stacks + globals) from runtime/metrics; zero when the metric is
// unavailable.
func readScanBytes() uint64 {
	samples := []metrics.Sample{{Name: "/gc/scan/total:bytes"}}
	metrics.Read(samples)
	if samples[0].Value.Kind() == metrics.KindUint64 {
		return samples[0].Value.Uint64()
	}
	return 0
}
