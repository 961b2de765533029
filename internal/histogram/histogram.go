// Package histogram provides a lock-free log-bucketed latency histogram
// (HdrHistogram-style, stdlib only) used by the benchmark harness to report
// the P99.9 tail latencies of the paper's Table I and Fig 7.
package histogram

import (
	"math/bits"
	"sync/atomic"
	"time"
)

const (
	majors  = 40 // covers 1ns .. ~18 minutes
	minors  = 16 // linear sub-buckets per power of two
	buckets = majors * minors
)

// Histogram records int64 nanosecond durations. The zero value is ready to
// use; all methods are safe for concurrent use.
type Histogram struct {
	counts [buckets]atomic.Int64
	total  atomic.Int64
	maxNS  atomic.Int64
}

// bucketOf maps a value to its bucket index.
func bucketOf(v int64) int {
	if v < 1 {
		v = 1
	}
	exp := 63 - bits.LeadingZeros64(uint64(v)) // floor(log2 v)
	var minor int
	if exp >= 4 {
		minor = int((uint64(v) >> (uint(exp) - 4)) & (minors - 1))
	} else {
		minor = int(uint64(v) & (minors - 1))
		exp = 0
	}
	idx := exp*minors + minor
	if idx >= buckets {
		idx = buckets - 1
	}
	return idx
}

// midpoint returns a representative value for bucket idx.
func midpoint(idx int) int64 {
	exp := idx / minors
	minor := idx % minors
	if exp == 0 {
		return int64(minor)
	}
	base := int64(1) << uint(exp)
	step := base / minors
	if step == 0 {
		step = 1
	}
	return base + int64(minor)*step + step/2
}

// Record adds one observation of d.
func (h *Histogram) Record(d time.Duration) {
	ns := int64(d)
	h.counts[bucketOf(ns)].Add(1)
	h.total.Add(1)
	for {
		cur := h.maxNS.Load()
		if ns <= cur || h.maxNS.CompareAndSwap(cur, ns) {
			break
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.total.Load() }

// Quantile returns the approximate q-quantile (0 < q <= 1).
func (h *Histogram) Quantile(q float64) time.Duration {
	total := h.total.Load()
	if total == 0 {
		return 0
	}
	if q > 1 {
		q = 1
	}
	target := int64(q * float64(total))
	if target < 1 {
		target = 1
	}
	var cum int64
	for i := 0; i < buckets; i++ {
		cum += h.counts[i].Load()
		if cum >= target {
			v := midpoint(i)
			if mx := h.maxNS.Load(); v > mx {
				v = mx
			}
			return time.Duration(v)
		}
	}
	return time.Duration(h.maxNS.Load())
}

// Max returns the largest recorded value.
func (h *Histogram) Max() time.Duration { return time.Duration(h.maxNS.Load()) }

// Mean returns the approximate mean.
func (h *Histogram) Mean() time.Duration {
	total := h.total.Load()
	if total == 0 {
		return 0
	}
	var sum int64
	for i := 0; i < buckets; i++ {
		sum += h.counts[i].Load() * midpoint(i)
	}
	return time.Duration(sum / total)
}
