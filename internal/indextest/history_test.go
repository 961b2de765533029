package indextest

import (
	"sort"
	"strings"
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
		run(t, ix, pairsOf(keys), historyKeys(keys, hotKeys, 1), nil)
	})

	t.Run("ALT-grown", func(t *testing.T) {
		// Never bulkloaded: every model comes from a retraining rebuild.
		// Draining the pipeline after every insert runs each training
		// before the next key, so the count does not hinge on the
		// workers' timing.
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
		run(t, ix, pairsOf(grown), historyKeys(grown, hotKeys, 1), nil)
	})

	t.Run("ALT-retrain-storm", func(t *testing.T) {
		// A writer slides a window of 64 fresh keys up from every other
		// hot key, inserting the next key and removing the one 64 below,
		// so the models that hold the hot keys keep spilling new keys to
		// ART, cross their retraining trigger, and rebuilds splice them
		// out, draining their ART residents, for the whole run.
		ix := core.New(core.Options{})
		defer ix.Close()
		bulk(t, ix, keys)
		hot := historyKeys(keys, hotKeys, 1)
		const window, span = 64, 1 << 16 // loaded keys lie further apart
		var bases []uint64
		for i := 0; i < len(hot); i += 2 {
			bases = append(bases, hot[i])
		}
		// The storm's writes are not recorded, so the scan rules skip the
		// keys it touches.
		storm := func(k uint64) bool {
			i := sort.Search(len(bases), func(i int) bool { return bases[i] > k }) - 1
			return i >= 0 && k-bases[i] >= 2 && k-bases[i] < 2+span
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
				for _, b := range bases {
					_ = ix.Insert(b+2+uint64(r%span), 1) // ALT.Insert always returns nil
					if r >= window {
						ix.Remove(b + 2 + uint64((r-window)%span))
					}
				}
			}
		}()
		defer func() { close(stop); <-stormDone }()
		before := ix.StatsMap()["retrains"]
		run(t, ix, pairsOf(keys), hot, func(k uint64) bool { return !storm(k) })
		n := ix.StatsMap()["retrains"] - before
		t.Logf("%d rebuilds ran during the history (at least 10 required)", n)
		if n < 10 {
			t.Fatalf("%d rebuilds ran during the history, want at least 10; the storm did not storm", n)
		}
	})

	t.Run("ART", func(t *testing.T) {
		ix := art.New(nil)
		bulk(t, ix, keys)
		run(t, ix, pairsOf(keys), historyKeys(keys, hotKeys, 1), nil)
	})
}
