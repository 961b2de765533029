package indextest

import (
	"math/rand"
	"strings"
	"sync"
	"testing"

	"altindex/internal/art"
	"altindex/internal/core"
	"altindex/internal/dataset"
	"altindex/internal/index"
)

// TestCheckHistorySelfTest pins the checker on hand-built histories: real
// time, overlap and batch submission order each decide one case.
func TestCheckHistorySelfTest(t *testing.T) {
	ins := func(g int, v uint64, call, ret int64) Op {
		return Op{Kind: OpInsert, Key: 1, Value: v, Goroutine: g, Call: call, Return: ret}
	}
	get := func(g int, v uint64, ok bool, call, ret int64) Op {
		return Op{Kind: OpGet, Key: 1, Value: v, OK: ok, Goroutine: g, Call: call, Return: ret}
	}
	lane := func(op Op, l int) Op { op.Lane = l; return op }
	cases := []struct {
		name string
		ops  []Op
		ok   bool
	}{
		{"sequential", []Op{ins(0, 5, 1, 2), get(1, 5, true, 3, 4)}, true},
		{"stale read after the write returned", []Op{ins(0, 5, 1, 2), get(1, 0, false, 3, 4)}, false},
		{"read overlapping the write sees either", []Op{ins(0, 5, 1, 4), get(1, 0, false, 2, 3), get(2, 5, true, 2, 5)}, true},
		{"reads disagree on the order of two writes", []Op{
			ins(0, 5, 1, 10), ins(1, 6, 2, 10),
			get(2, 5, true, 3, 4), get(2, 6, true, 5, 6), get(3, 6, true, 3, 4), get(3, 5, true, 5, 6)}, false},
		{"remove result must match presence", []Op{
			{Kind: OpRemove, Key: 1, OK: true, Call: 1, Return: 2}}, false},
		{"batch lanes apply in submission order", []Op{
			lane(ins(0, 5, 1, 4), 1), lane(ins(0, 6, 1, 4), 2), get(1, 6, true, 5, 6)}, true},
		{"batch lanes out of submission order", []Op{
			lane(ins(0, 5, 1, 4), 1), lane(ins(0, 6, 1, 4), 2), get(1, 5, true, 5, 6)}, false},
	}
	for _, c := range cases {
		bad := CheckHistory(c.ops, nil)
		if (len(bad) == 0) != c.ok {
			t.Errorf("%s: linearizable = %v, want %v; report: %v", c.name, len(bad) == 0, c.ok, bad)
		}
	}
	// The report keeps the reads the violation needs and no others.
	bad := CheckHistory([]Op{ins(0, 5, 1, 2), get(1, 5, true, 3, 4), get(1, 0, false, 5, 6)}, nil)
	if len(bad) != 1 || strings.Count(bad[0], "Get") != 1 || !strings.Contains(bad[0], "Get -> absent") {
		t.Fatalf("minimized report = %q", bad)
	}
}

// historyKeys are the keys a history works on: half of them loaded, and a
// key just above each loaded one, which predicts to the same slot in ALT
// and so lives in ART whenever its neighbour holds the slot.
func historyKeys(loaded []uint64, n int) []uint64 {
	var hot []uint64
	step := len(loaded) / n
	for i := 0; i < n; i++ {
		k := loaded[i*step]
		hot = append(hot, k, k+1)
	}
	return hot
}

// runHistory drives goroutines × ops random operations on hot keys through
// a Recorder and checks the history. Every written value is unique.
func runHistory(t *testing.T, ix index.Concurrent, initial map[uint64]uint64, hot []uint64, goroutines, ops int) {
	t.Helper()
	var rec Recorder
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		s := rec.Session(ix)
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(g) + 1))
			next := uint64(g+1) << 40
			val := func() uint64 { next++; return next }
			pick := func() uint64 { return hot[r.Intn(len(hot))] }
			for i := 0; i < ops; i++ {
				switch p := r.Intn(100); {
				case p < 30:
					s.Get(pick())
				case p < 55:
					if err := s.Insert(pick(), val()); err != nil {
						errs <- err
						return
					}
				case p < 65:
					s.Update(pick(), val())
				case p < 80:
					s.Remove(pick())
				case p < 90:
					keys := make([]uint64, 8+r.Intn(9))
					for j := range keys {
						keys[j] = pick()
					}
					s.GetBatch(keys)
				default:
					pairs := make([]index.KV, 8+r.Intn(9))
					for j := range pairs {
						pairs[j] = index.KV{Key: pick(), Value: val()}
					}
					if err := s.InsertBatch(pairs); err != nil {
						errs <- err
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if bad := CheckHistory(rec.History(), initial); len(bad) > 0 {
		t.Fatalf("%d of %d keys not linearizable; first:\n%s", len(bad), len(hot), bad[0])
	}
}

// TestHistoryLinearizable checks recorded concurrent histories of point
// ops and batches against a per-key register, on ALT in the states it
// serves and on bare ART, the substrate its conflict keys live in.
func TestHistoryLinearizable(t *testing.T) {
	const goroutines, hotKeys, ops = 4, 48, 1000
	keys := dataset.Generate(dataset.OSM, 20000, 3)
	pairsOf := func(keys []uint64) map[uint64]uint64 {
		m := make(map[uint64]uint64, len(keys))
		for _, k := range keys {
			m[k] = dataset.ValueFor(k)
		}
		return m
	}
	bulk := func(t *testing.T, ix index.Concurrent, keys []uint64) {
		if err := ix.Bulkload(dataset.Pairs(keys)); err != nil {
			t.Fatal(err)
		}
	}

	t.Run("ALT-bulkloaded", func(t *testing.T) {
		ix := core.New(core.Options{})
		defer ix.Close()
		bulk(t, ix, keys)
		runHistory(t, ix, pairsOf(keys), historyKeys(keys, hotKeys), goroutines, ops)
	})

	t.Run("ALT-grown", func(t *testing.T) {
		// Never bulkloaded: every model comes from a retraining rebuild.
		// A model retrains past 1,024 inserts, so growing past several
		// trainings takes more keys than the other cases load. Draining
		// the pipeline after every insert runs each training before the
		// next key, so the count does not hinge on the workers' timing.
		grown := dataset.Generate(dataset.OSM, 100000, 3)
		ix := core.New(core.Options{})
		defer ix.Close()
		for _, k := range shuffledCopy(grown, 4) {
			if err := ix.Insert(k, dataset.ValueFor(k)); err != nil {
				t.Fatal(err)
			}
			ix.Quiesce()
		}
		if n := ix.StatsMap()["retrains"]; n < 3 {
			t.Fatalf("grown index ran %d trainings, want several: %v", n, ix.StatsMap())
		}
		runHistory(t, ix, pairsOf(grown), historyKeys(grown, hotKeys), goroutines, ops)
	})

	t.Run("ALT-retrain-storm", func(t *testing.T) {
		// A writer cycles fresh keys next to every hot key, inserting
		// 64 per hot key and then removing them again, so the models that
		// hold the hot keys keep crossing their retraining trigger and
		// rebuilds splice them out, draining their ART residents, for the
		// whole run.
		ix := core.New(core.Options{RetrainMinInserts: 16})
		defer ix.Close()
		bulk(t, ix, keys)
		hot := historyKeys(keys, hotKeys)
		isHot := make(map[uint64]bool, len(hot))
		for _, k := range hot {
			isHot[k] = true
		}
		stop := make(chan struct{})
		stormDone := make(chan struct{})
		go func() {
			defer close(stormDone)
			for r := 0; ; r++ {
				select {
				case <-stop:
					return
				default:
				}
				for i := 0; i < len(hot); i += 2 {
					k := hot[i] + 2 + uint64(r%64)
					if isHot[k] {
						continue
					}
					if r/64%2 == 0 {
						_ = ix.Insert(k, k) // ALT.Insert always returns nil
					} else {
						ix.Remove(k)
					}
				}
			}
		}()
		defer func() { close(stop); <-stormDone }()
		before := ix.StatsMap()["retrains"]
		runHistory(t, ix, pairsOf(keys), hot, goroutines, ops)
		if n := ix.StatsMap()["retrains"] - before; n < 10 {
			t.Fatalf("%d rebuilds ran during the history; the storm did not storm", n)
		}
	})

	t.Run("ART", func(t *testing.T) {
		ix := art.New(nil)
		bulk(t, ix, keys)
		runHistory(t, ix, pairsOf(keys), historyKeys(keys, hotKeys), goroutines, ops)
	})
}
