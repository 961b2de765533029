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

// TestCheckScansSelfTest pins the scan rules on hand-built histories: key 1
// is inserted over [1, 2] and removed over [10, 11], key 2 is loaded, key 3
// is never written.
func TestCheckScansSelfTest(t *testing.T) {
	ops := []Op{
		{Kind: OpInsert, Key: 1, Value: 5, Call: 1, Return: 2},
		{Kind: OpRemove, Key: 1, OK: true, Call: 10, Return: 11},
	}
	initial := map[uint64]uint64{2: 7}
	scan := func(call, ret int64, max int, out ...index.KV) Scan {
		return Scan{Start: 0, End: 100, Max: max, Out: out, Call: call, Return: ret}
	}
	one, two := index.KV{Key: 1, Value: 5}, index.KV{Key: 2, Value: 7}
	cases := []struct {
		name string
		sc   Scan
		ok   bool
	}{
		{"both present", scan(3, 4, 8, one, two), true},
		{"a key present throughout is missing", scan(3, 4, 8, two), false},
		{"a key outside the returned prefix is not owed", scan(3, 4, 1, one), true},
		{"a key removed during the scan may be missing", scan(9, 12, 8, two), true},
		{"a key removed during the scan may be returned", scan(9, 12, 8, one, two), true},
		{"a key inserted during the scan may be missing", scan(0, 2, 8, two), true},
		{"a key removed before the scan is a ghost", scan(12, 13, 8, one, two), false},
		{"a value nothing wrote", scan(3, 4, 8, index.KV{Key: 1, Value: 6}, two), false},
		{"a key never written", scan(3, 4, 8, one, two, index.KV{Key: 3, Value: 1}), false},
		{"not ascending", scan(3, 4, 8, two, one), false},
		{"outside the window", Scan{Start: 2, End: 3, Max: 8, Out: []index.KV{one, two}, Call: 3, Return: 4}, false},
		{"more than max", scan(3, 4, 1, one, two), false},
	}
	for _, c := range cases {
		bad := CheckScans(ops, []Scan{c.sc}, initial, nil)
		if (len(bad) == 0) != c.ok {
			t.Errorf("%s: ok = %v, want %v; report: %v", c.name, len(bad) == 0, c.ok, bad)
		}
	}
	// An untracked key is owed nothing and may carry any value.
	if bad := CheckScans(ops, []Scan{scan(3, 4, 8, one, index.KV{Key: 3, Value: 1})}, nil,
		func(k uint64) bool { return k != 3 }); len(bad) > 0 {
		t.Errorf("untracked key: %v", bad)
	}
	// The report names the key and shows its writes.
	bad := CheckScans(ops, []Scan{scan(3, 4, 8, two)}, initial, nil)
	if len(bad) != 1 || !strings.Contains(bad[0], "key 0x1 missing") || !strings.Contains(bad[0], "Insert(0x5)") {
		t.Fatalf("report = %q", bad)
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
// a Recorder and checks the history: point ops and batches per key, scans
// and each pull of a walk by CheckScans' rules over the keys tracked
// reports true for (nil: all). Every written value is unique.
func runHistory(t *testing.T, ix index.Concurrent, initial map[uint64]uint64, hot []uint64, tracked func(uint64) bool, goroutines, ops int) {
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
			// A scan window starts at or just below a hot key and ends
			// past another one, or runs to the end of the keyspace.
			window := func() (uint64, uint64) {
				start := pick() - uint64(r.Intn(4))
				if r.Intn(4) == 0 {
					return start, ^uint64(0)
				}
				return start, max(start, pick()) + 2
			}
			for i := 0; i < ops; i++ {
				switch p := r.Intn(100); {
				case p < 20:
					s.Get(pick())
				case p < 27:
					start, end := window()
					s.ScanAppend(start, end, 1+r.Intn(16))
				case p < 30:
					start, end := window()
					s.Walk(start, end, 1+r.Intn(2*index.WalkBatch))
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
	scans := rec.Scans()
	if bad := CheckScans(rec.History(), scans, initial, tracked); len(bad) > 0 {
		t.Fatalf("%d of %d scans break a scan rule; first:\n%s", len(bad), len(scans), bad[0])
	}
}

// TestHistoryLinearizable checks recorded concurrent histories of point
// ops, batches and scans — against a per-key register and the scan rules —
// on ALT in the states it serves and on bare ART, the substrate its
// conflict keys live in.
func TestHistoryLinearizable(t *testing.T) {
	historyMatrix(t, nil)
}

// historyMatrix runs one recorded history on each index of the matrix.
// arm, when set, runs between an index's setup and its history.
func historyMatrix(t *testing.T, arm func(*testing.T, index.Concurrent)) {
	const goroutines, hotKeys, ops = 4, 48, 1000
	run := func(t *testing.T, ix index.Concurrent, initial map[uint64]uint64, hot []uint64, tracked func(uint64) bool) {
		if arm != nil {
			arm(t, ix)
		}
		runHistory(t, ix, initial, hot, tracked, goroutines, ops)
	}
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
		run(t, ix, pairsOf(keys), historyKeys(keys, hotKeys), nil)
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
		run(t, ix, pairsOf(grown), historyKeys(grown, hotKeys), nil)
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
		// The storm's writes are not recorded, so the scan rules skip the
		// keys it touches.
		storm := map[uint64]bool{}
		for i := 0; i < len(hot); i += 2 {
			for j := uint64(0); j < 64; j++ {
				if k := hot[i] + 2 + j; !isHot[k] {
					storm[k] = true
				}
			}
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
		run(t, ix, pairsOf(keys), hot, func(k uint64) bool { return !storm[k] })
		n := ix.StatsMap()["retrains"] - before
		t.Logf("%d rebuilds ran during the history (at least 10 required)", n)
		if n < 10 {
			t.Fatalf("%d rebuilds ran during the history, want at least 10; the storm did not storm", n)
		}
	})

	t.Run("ART", func(t *testing.T) {
		ix := art.New(nil)
		bulk(t, ix, keys)
		run(t, ix, pairsOf(keys), historyKeys(keys, hotKeys), nil)
	})
}
