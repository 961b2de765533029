package main

import (
	"fmt"
	"time"

	"altindex"
	"altindex/internal/dataset"
	"altindex/internal/xrand"
)

// mem-read: 8 M osm keys in one core.ALT (about 0.9 GB, far beyond the
// caches), 95 % Get / 5 % Update on Zipf 0.99 keys. Warm-up is 1 M ops.
var memReadSizing = sizing{keys: 8_000_000, warmOps: 1_000_000, windows: 20, rate: 1_900_000, sampleEvery: pointSampleEvery}

const (
	opGet uint8 = iota
	opUpdate
	opInsert
	opRemove
)

// pointOp is one generated point operation. For reads val is the value the
// shadow model expects back; for writes it is the value to store.
type pointOp struct {
	key, val uint64
	kind     uint8
}

// zipfPicker draws dataset positions with Zipf-distributed popularity. The
// rank-to-position map is a multiplicative permutation, so hot keys are
// spread over the key space without an n-entry shuffle table.
type zipfPicker struct {
	z      *xrand.Zipf
	n, off uint64
}

const zipfTheta = 0.99

func newZipfPicker(n int, r *xrand.Rng) zipfPicker {
	return zipfPicker{z: xrand.NewZipf(uint64(n), zipfTheta), n: uint64(n), off: r.Uint64n(uint64(n))}
}

// scramble is a prime above every dataset size used here, so
// rank*scramble mod n is a permutation of [0,n).
const scramble = 2654435761

func (p zipfPicker) pick(r *xrand.Rng) int {
	return int((p.z.Rank(r)*scramble + p.off) % p.n)
}

type memRead struct {
	cfg  sliceConfig
	rng  *xrand.Rng
	keys []uint64
	vals []uint64 // shadow model: value of the last acknowledged write
	pick zipfPicker
	ix   altindex.Index
	ops  []pointOp
}

func newMemRead(cfg sliceConfig) *memRead {
	return &memRead{cfg: cfg, rng: cfg.rng()}
}

func (w *memRead) build() ([]time.Duration, error) {
	n, _, _ := memReadSizing.scaled(w.cfg)
	t0 := time.Now()
	w.keys = dataset.Generate(dataset.OSM, n, w.cfg.Seed)
	pairs := dataset.Pairs(w.keys)
	t1 := time.Now()
	w.ix = altindex.New(altindex.Options{})
	if err := w.ix.Bulkload(pairs); err != nil {
		return nil, err
	}
	d := []time.Duration{t1.Sub(t0), time.Since(t1)}
	w.vals = make([]uint64, n)
	for i := range pairs {
		w.vals[i] = pairs[i].Value
	}
	w.pick = newZipfPicker(n, w.rng)
	return d, nil
}

func (w *memRead) prepare(n int) {
	if cap(w.ops) < n {
		w.ops = make([]pointOp, n)
	}
	w.ops = w.ops[:n]
	for i := range w.ops {
		j := w.pick.pick(w.rng)
		o := pointOp{key: w.keys[j], kind: opGet, val: w.vals[j]}
		if w.rng.Uint64n(100) < 5 {
			o.kind, o.val = opUpdate, w.rng.Next()
			w.vals[j] = o.val
		}
		w.ops[i] = o
	}
}

func (w *memRead) run(r *recorder) int64 {
	ix := w.ix
	for i := range w.ops {
		o := &w.ops[i]
		sampled := i%pointSampleEvery == 0
		var t0 int64
		if sampled {
			t0 = r.now()
		}
		if o.kind == opGet {
			v, ok := ix.Get(o.key)
			if sampled {
				r.sample(classRead, spGet, i, t0, r.now())
			}
			if !ok || v != o.val {
				r.fail(classRead, spGet)
			}
		} else {
			ok := ix.Update(o.key, o.val)
			if sampled {
				r.sample(classWrite, spUpdate, i, t0, r.now())
			}
			if !ok {
				r.fail(classWrite, spUpdate)
			}
		}
	}
	r.attempted += int64(len(w.ops))
	return int64(len(w.ops))
}

func (w *memRead) finish(r *recorder) (int, float64, error) {
	return finishIndex(w.ix, len(w.keys), r)
}

// finishIndex is the end-of-slice check shared by the mem-* workloads:
// drain retraining, compare Len with the shadow model's live count and
// report bytes per key.
func finishIndex(ix altindex.Index, want int, r *recorder) (int, float64, error) {
	ix.Quiesce()
	n := ix.Len()
	r.attempted++
	if n != want {
		r.failed++
		logf("FAIL Len() = %d, shadow model holds %d", n, want)
	}
	if n == 0 {
		return 0, 0, fmt.Errorf("index is empty")
	}
	return n, float64(ix.MemoryUsage()) / float64(n), nil
}

func (w *memRead) describe() (int, map[string]string) { return len(w.keys), nil }
func (w *memRead) stats() map[string]int64            { return w.ix.StatsMap() }
func (w *memRead) close()                             { w.ix.Close() }
