package histogram

import (
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"
)

func TestEmpty(t *testing.T) {
	var h Histogram
	if h.Count() != 0 || h.Quantile(0.99) != 0 || h.Mean() != 0 || h.Max() != 0 {
		t.Fatal("empty histogram not zero")
	}
}

func TestSingleValue(t *testing.T) {
	var h Histogram
	h.Record(1000 * time.Nanosecond)
	if h.Count() != 1 {
		t.Fatal("count")
	}
	q := h.Quantile(0.5)
	if q < 900*time.Nanosecond || q > 1100*time.Nanosecond {
		t.Fatalf("median %v for single 1µs sample", q)
	}
	if h.Max() != 1000*time.Nanosecond {
		t.Fatalf("max %v", h.Max())
	}
}

func TestQuantileAccuracy(t *testing.T) {
	var h Histogram
	r := rand.New(rand.NewSource(1))
	vals := make([]int64, 100000)
	for i := range vals {
		// Log-uniform latencies from 100ns to 10ms.
		v := int64(100 * (1 << uint(r.Intn(17))))
		v += r.Int63n(v)
		vals[i] = v
		h.Record(time.Duration(v))
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		exact := float64(vals[int(q*float64(len(vals)))-1])
		got := float64(h.Quantile(q))
		// Log-bucketed histograms are accurate to one sub-bucket
		// (1/16 of a power of two ~ 6.25%, allow 10%).
		if got < exact*0.9 || got > exact*1.1 {
			t.Fatalf("q=%v: got %v exact %v", q, time.Duration(int64(got)), time.Duration(int64(exact)))
		}
	}
}

func TestQuantileMonotone(t *testing.T) {
	var h Histogram
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 10000; i++ {
		h.Record(time.Duration(r.Int63n(1e9) + 1))
	}
	prev := time.Duration(0)
	for _, q := range []float64{0.1, 0.5, 0.9, 0.99, 0.999, 1} {
		cur := h.Quantile(q)
		if cur < prev {
			t.Fatalf("quantile not monotone at %v: %v < %v", q, cur, prev)
		}
		prev = cur
	}
}

func TestConcurrentRecord(t *testing.T) {
	var h Histogram
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 10000; i++ {
				h.Record(time.Duration(100 + i%1000))
			}
		}(w)
	}
	wg.Wait()
	if h.Count() != 80000 {
		t.Fatalf("count %d", h.Count())
	}
}

func TestTinyAndHugeValues(t *testing.T) {
	var h Histogram
	h.Record(0)
	h.Record(time.Hour)
	if h.Count() != 2 {
		t.Fatal("count")
	}
	if h.Quantile(1) <= 0 {
		t.Fatal("huge value lost")
	}
}
