// Package gpl implements the Greedy Pessimistic Linear segmentation
// algorithm from the ALT-index paper (Algorithm 1), together with the two
// competing segmentation algorithms it is evaluated against: the
// ShrinkingCone algorithm of FITing-tree and the Learning Probe Algorithm
// (LPA) of FINEdex.
//
// All three partition a strictly ascending key array into segments, each
// approximated by one linear model  predict(key) = Slope*(key-First) +
// Intercept  whose prediction error is bounded by ε positions.
package gpl

import "math"

// Segment is one linear model covering N consecutive keys starting at First.
// The model predicts the in-segment position of a key as
// Slope*(key-First) + Intercept.
type Segment struct {
	First     uint64
	N         int
	Slope     float64
	Intercept float64
}

// Predict returns the (unclamped) position predicted for key.
func (s Segment) Predict(key uint64) float64 {
	return s.Slope*float64(key-s.First) + s.Intercept
}

// Partition runs the Greedy Pessimistic Linear algorithm over keys with
// error bound eps and returns the resulting segments. Keys must be strictly
// ascending. Complexity is O(n): each key is visited once.
//
// Per Algorithm 1, every candidate line passes through the segment's first
// point. upperSlope/lowerSlope track the extreme slopes seen so far; a new
// point whose pessimistic error (evaluated against both extreme lines)
// exceeds eps closes the segment. The emitted model uses the midpoint slope,
// which keeps every in-segment point within 2·eps of the line. With eps far
// above a segment's key count the test barely constrains the slopes: one
// close early pair of keys sets a steep upper slope, the segment runs on
// until that line overshoots by eps, and the midpoint slope then spreads
// the segment over up to eps/2 more positions than it has keys. ALT keeps
// the segments and origins but refits each slot line inside the cone
// (internal/core fitSlope); Slope stays GPL's midpoint.
func Partition(keys []uint64, eps float64) []Segment {
	if eps <= 0 {
		eps = 1
	}
	var segs []Segment
	for start := 0; start < len(keys); {
		n := segmentEnd(keys[start:], eps)
		segs = append(segs, fitThroughFirst(keys[start:start+n]))
		start += n
	}
	return segs
}

// segmentEnd implements the inner loop of Algorithm 1: it returns the number
// of leading keys that form one GPL segment under error bound eps.
func segmentEnd(keys []uint64, eps float64) int {
	if len(keys) <= 2 {
		return len(keys)
	}
	first := keys[0]
	upper := math.Inf(-1)
	lower := math.Inf(1)
	for i := 1; i < len(keys); i++ {
		d := float64(keys[i] - first)
		s := float64(i) / d
		if s > upper {
			upper = s
		}
		if s < lower {
			lower = s
		}
		// Pessimistic error of the current point against both extreme
		// lines through the first point.
		upperErr := upper*d - float64(i)
		lowerErr := float64(i) - lower*d
		if math.Max(upperErr, lowerErr) > eps {
			return i
		}
	}
	return len(keys)
}

// fitThroughFirst builds the segment model for keys: a line through the
// first point with the midpoint of the extreme slopes, the cone Algorithm 1
// tracks. Its error bound is what the midpoint buys; ALT reads none, and
// refits its slot line inside the same cone to the fewest slots that evict
// no more keys than this slope does (internal/core fitSlope).
func fitThroughFirst(keys []uint64) Segment {
	seg := Segment{First: keys[0], N: len(keys)}
	if len(keys) < 2 {
		seg.Slope = 1
		return seg
	}
	upper := math.Inf(-1)
	lower := math.Inf(1)
	for i := 1; i < len(keys); i++ {
		s := float64(i) / float64(keys[i]-keys[0])
		if s > upper {
			upper = s
		}
		if s < lower {
			lower = s
		}
	}
	seg.Slope = (upper + lower) / 2
	return seg
}

// MaxError returns the maximum absolute prediction error, in positions, of
// seg over its keys. Used by tests and by the fig4 algorithm-comparison
// experiment.
func MaxError(keys []uint64, seg Segment) float64 {
	maxErr := 0.0
	for i := 0; i < seg.N; i++ {
		e := math.Abs(seg.Predict(keys[i]) - float64(i))
		if e > maxErr {
			maxErr = e
		}
	}
	return maxErr
}

// ShrinkingCone runs the FITing-tree segmentation algorithm: the feasible
// slope cone through the first point is narrowed by every accepted point
// (each point constrains the cone to lines passing within eps of it), and
// the segment closes when a point falls outside the cone. Compared with GPL
// this updates both cone bounds on nearly every point (the overhead the
// paper's Fig 4(b) discussion calls out).
func ShrinkingCone(keys []uint64, eps float64) []Segment {
	if eps <= 0 {
		eps = 1
	}
	var segs []Segment
	for start := 0; start < len(keys); {
		n, slope := coneEnd(keys[start:], eps)
		seg := Segment{First: keys[start], N: n, Slope: slope}
		segs = append(segs, seg)
		start += n
	}
	return segs
}

// coneEnd returns the segment length and the midpoint of the final cone —
// any slope inside the cone keeps every accepted point within eps, by the
// cone's construction.
func coneEnd(keys []uint64, eps float64) (int, float64) {
	if len(keys) == 1 {
		return 1, 1
	}
	first := keys[0]
	hi := math.Inf(1)
	lo := math.Inf(-1)
	n := len(keys)
	for i := 1; i < len(keys); i++ {
		d := float64(keys[i] - first)
		s := float64(i) / d
		if s > hi || s < lo {
			n = i
			break
		}
		if h := (float64(i) + eps) / d; h < hi {
			hi = h
		}
		if l := (float64(i) - eps) / d; l > lo {
			lo = l
		}
	}
	slope := (hi + lo) / 2
	if math.IsInf(hi, 0) || math.IsInf(lo, 0) {
		slope = 1 / float64(keys[1]-first)
	}
	return n, slope
}

// LPA runs FINEdex's Learning Probe Algorithm: least-squares models are
// grown by probing forward in blocks and verified against the error bound,
// backtracking when verification fails. It produces tighter (regression)
// fits than GPL but visits data repeatedly, so it emits more segments per
// second of training time on hard distributions.
func LPA(keys []uint64, eps float64) []Segment {
	if eps <= 0 {
		eps = 1
	}
	const probe = 256
	var segs []Segment
	for start := 0; start < len(keys); {
		n := probe
		if rem := len(keys) - start; n > rem {
			n = rem
		}
		seg := FitLeastSquares(keys[start : start+n])
		// Grow while the fit holds, doubling the probe step.
		step := probe
		for MaxError(keys[start:start+n], seg) <= eps && start+n < len(keys) {
			grown := n + step
			if rem := len(keys) - start; grown > rem {
				grown = rem
			}
			cand := FitLeastSquares(keys[start : start+grown])
			if MaxError(keys[start:start+grown], cand) > eps {
				break
			}
			n, seg = grown, cand
			step *= 2
		}
		// Shrink until the fit holds.
		for n > 1 && MaxError(keys[start:start+n], seg) > eps {
			n = n / 2
			if n < 1 {
				n = 1
			}
			seg = FitLeastSquares(keys[start : start+n])
		}
		segs = append(segs, seg)
		start += n
	}
	return segs
}

// FitLeastSquares fits position = Slope*(key-First) + Intercept by ordinary
// least squares over keys. Exposed for baselines (XIndex group models) that
// retrain a single model over a merged array.
func FitLeastSquares(keys []uint64) Segment {
	seg := Segment{First: keys[0], N: len(keys)}
	n := len(keys)
	if n < 2 {
		seg.Slope = 1
		return seg
	}
	var sx, sy, sxx, sxy float64
	for i, k := range keys {
		x := float64(k - keys[0])
		y := float64(i)
		sx += x
		sy += y
		sxx += x * x
		sxy += x * y
	}
	fn := float64(n)
	den := fn*sxx - sx*sx
	if den == 0 {
		seg.Slope = 1
		return seg
	}
	seg.Slope = (fn*sxy - sx*sy) / den
	seg.Intercept = (sy - seg.Slope*sx) / fn
	return seg
}
