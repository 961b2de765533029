package main

import (
	"slices"
	"time"

	"altindex"
	"altindex/internal/dataset"
	wlgen "altindex/internal/workload"
	"altindex/internal/xrand"
)

// mem-churn: 3 M libio keys split 2 M stable + 1 M pool, of which a
// sliding half is live. 50 % Get on stable keys, 25 % Insert at the pool
// head, 25 % Remove at the pool tail; writes alternate so the live count
// stays constant and every window is stationary. Warm-up is one full pass
// of the pool (4 M ops), which puts retraining, tombstones and reclamation
// into steady state.
var memChurnSizing = sizing{keys: 3_000_000, warmOps: 4_000_000, windows: 20, rate: 3_000_000, sampleEvery: pointSampleEvery}

type memChurn struct {
	cfg    sliceConfig
	rng    *xrand.Rng
	stable []uint64
	pool   []uint64
	pvals  []uint64 // shadow model: value of each live pool key
	head   int      // pool keys inserted so far, modulo len(pool)
	tail   int      // pool keys removed so far, modulo len(pool)
	insert bool     // kind of the next write
	pick   zipfPicker
	ix     altindex.Index
	ops    []pointOp
}

func newMemChurn(cfg sliceConfig) *memChurn {
	return &memChurn{cfg: cfg, insert: true, rng: cfg.rng()}
}

func (w *memChurn) live() int { return w.head - w.tail }

func (w *memChurn) build() ([]time.Duration, error) {
	n, _, _ := memChurnSizing.scaled(w.cfg)
	t0 := time.Now()
	keys := dataset.Generate(dataset.Libio, n, w.cfg.Seed)
	w.stable, w.pool = wlgen.SplitLoad(keys, 2.0/3.0, w.cfg.Seed)
	w.head = len(w.pool) / 2
	loaded := make([]uint64, 0, len(w.stable)+w.head)
	loaded = append(append(loaded, w.stable...), w.pool[:w.head]...)
	slices.Sort(loaded)
	t1 := time.Now()
	w.ix = altindex.New(altindex.Options{})
	if err := w.ix.Bulkload(dataset.Pairs(loaded)); err != nil {
		return nil, err
	}
	d := []time.Duration{t1.Sub(t0), time.Since(t1)}
	w.pvals = make([]uint64, len(w.pool))
	for i := 0; i < w.head; i++ {
		w.pvals[i] = dataset.ValueFor(w.pool[i])
	}
	w.pick = newZipfPicker(len(w.stable), w.rng)
	return d, nil
}

func (w *memChurn) prepare(n int) {
	if cap(w.ops) < n {
		w.ops = make([]pointOp, n)
	}
	w.ops = w.ops[:n]
	for i := range w.ops {
		switch {
		case w.rng.Next()&1 == 0:
			k := w.stable[w.pick.pick(w.rng)]
			w.ops[i] = pointOp{key: k, val: dataset.ValueFor(k), kind: opGet}
		case w.insert:
			j := w.head % len(w.pool)
			w.pvals[j] = w.rng.Next()
			w.ops[i] = pointOp{key: w.pool[j], val: w.pvals[j], kind: opInsert}
			w.head++
			w.insert = false
		default:
			w.ops[i] = pointOp{key: w.pool[w.tail%len(w.pool)], kind: opRemove}
			w.tail++
			w.insert = true
		}
	}
}

func (w *memChurn) run(r *recorder) int64 {
	ix := w.ix
	for i := range w.ops {
		o := &w.ops[i]
		sampled := i%pointSampleEvery == 0
		var t0 int64
		if sampled {
			t0 = r.now()
		}
		switch o.kind {
		case opGet:
			v, ok := ix.Get(o.key)
			if sampled {
				r.sample(classRead, spGet, i, t0, r.now())
			}
			if !ok || v != o.val {
				r.fail(classRead, spGet)
			}
		case opInsert:
			err := ix.Insert(o.key, o.val)
			if sampled {
				r.sample(classWrite, spInsert, i, t0, r.now())
			}
			if err != nil {
				r.fail(classWrite, spInsert)
			}
		default:
			ok := ix.Remove(o.key)
			if sampled {
				r.sample(classWrite, spRemove, i, t0, r.now())
			}
			if !ok {
				r.fail(classWrite, spRemove)
			}
		}
	}
	r.attempted += int64(len(w.ops))
	return int64(len(w.ops))
}

// finish reads back every pool key: live ones must hold the value of
// their last insert, removed ones must be absent. Remove replies carry no
// value, so this is where inserted values are verified.
func (w *memChurn) finish(r *recorder) (int, float64, error) {
	lo, hi := w.tail, w.head
	for j, k := range w.pool {
		// Position j is live when some pass p has tail <= j+p*len < head.
		pos := j
		for pos < lo {
			pos += len(w.pool)
		}
		live := pos < hi
		v, ok := w.ix.Get(k)
		r.attempted++
		if ok != live || (live && v != w.pvals[j]) {
			r.failed++
		}
	}
	return finishIndex(w.ix, len(w.stable)+w.live(), r)
}

func (w *memChurn) describe() (int, map[string]string) { return len(w.stable) + len(w.pool), nil }
func (w *memChurn) stats() map[string]int64            { return w.ix.StatsMap() }
func (w *memChurn) close()                             { w.ix.Close() }
