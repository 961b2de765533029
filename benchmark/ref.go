package main

import (
	"time"

	"altindex/internal/xrand"
)

// The reference probe is the benchmark's yardstick for the host, not a
// part of the program under test: two fixed chains of dependent random
// loads, through an array of 32 MB and one of 128 MB, which is what a miss
// in the processor's own caches costs right now. The host slows down for
// seconds to minutes at a stretch, by up to a half and for whole runs,
// because its neighbours take cache, memory bandwidth and processor time
// from it (NOISE.md), and the index operations slow down with these loops.
// A probe runs before and after every timed window, and every timing is
// reported at the reference speed: divided by how much slower than
// nominal the probes around it ran.
const (
	refLoops = 2
	refLoads = 51_200 // loads per array and probe, about 7 + 8 ms
)

var (
	refNames = [refLoops]string{"32mb", "128mb"}
	refWords = [refLoops]int{1 << 22, 1 << 24}
	// Nominal readings, in ns per load: the reference host when quiet.
	// They only fix the scale of the reported numbers, so that these read
	// like the raw ones of a quiet hour.
	refNominal = [refLoops]float64{135, 157}
)

type reference struct {
	arrays [refLoops][]uint64
	loads  int
	at     uint64
}

// newReference builds the arrays. Their contents are a constant of the
// benchmark: the yardstick must be the same thing for every seed. scale
// shrinks them, and the loops, for the smoke test.
func newReference(scale float64) *reference {
	r := &reference{loads: max(int(refLoads*scale), 256)}
	rng := xrand.New(0x5eed0fa11)
	for l := range r.arrays {
		n := refWords[l]
		for float64(n) > float64(refWords[l])*scale && n > 1<<10 {
			n >>= 1
		}
		r.arrays[l] = make([]uint64, n)
		for i := range r.arrays[l] {
			r.arrays[l][i] = rng.Next()
		}
	}
	return r
}

// refReading is one probe: nanoseconds per load of each loop.
type refReading [refLoops]float64

func (r *reference) probe() refReading {
	var out refReading
	at, t0 := r.at, time.Now()
	for l, words := range r.arrays {
		mask := uint64(len(words) - 1)
		for i := 0; i < r.loads; i++ {
			at = words[at&mask] + uint64(i)
		}
		t1 := time.Now()
		out[l], t0 = float64(t1.Sub(t0))/float64(r.loads), t1
	}
	r.at = at
	return out
}

// between is the reading a window is calibrated with: the mean of the
// probes on either side of it.
func between(a, b refReading) refReading {
	for l := range a {
		a[l] = (a[l] + b[l]) / 2
	}
	return a
}

// slowdown is how much slower than nominal the host ran: the mean over
// the loops of reading over nominal. A window's throughput is
// multiplied by it and its latencies are divided by it.
func (r refReading) slowdown() float64 {
	var s float64
	for l, v := range r {
		s += v / refNominal[l] / refLoops
	}
	return s
}
