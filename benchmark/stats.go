package main

import (
	"math"
	"sort"
)

// median returns the middle of vs (mean of the two middles for even
// lengths); vs is not modified.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first and third quartile of vs by the exclusive
// method, the one Python's statistics.quantiles(vs, n=4) uses, so the
// self-check's spreads are the ones the PR driver computes.
func quartiles(vs []float64) (q1, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return median(s), median(s)
	}
	at := func(p float64) float64 {
		pos := p * float64(n+1)
		j := int(math.Floor(pos))
		switch {
		case j < 1:
			j = 1
		case j > n-1:
			j = n - 1
		}
		d := pos - float64(j)
		return s[j-1] + d*(s[j]-s[j-1])
	}
	return at(0.25), at(0.75)
}

// percentileNS returns the q-quantile (nearest rank), in microseconds, of
// sorted nanosecond samples together with failed operations, which rank
// above every sample. Raw samples are kept instead of internal/histogram
// because that histogram's buckets are 6 % wide, wider than half of the
// bound the issue set for latencies.
func percentileNS(sorted []int64, failed int, q float64) float64 {
	n := len(sorted) + failed
	if n == 0 {
		return 0
	}
	i := max(int(math.Ceil(q*float64(n)))-1, 0)
	if i >= len(sorted) {
		return math.MaxInt64 / 1e3 // a failed operation: no limit is met
	}
	return float64(sorted[i]) / 1e3
}
