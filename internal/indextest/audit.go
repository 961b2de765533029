package indextest

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"altindex/internal/dataset"
	"altindex/internal/index"
)

// Audit checks a quiescent index against the state want it should hold and
// returns every violation found (nil means the index is consistent). It
// records the quiescent tail of a history that starts at want — a Get of
// every key of want, then a Walk of the whole index — and judges it with
// CheckHistory and CheckScans, plus one count rule: Len equals the number
// of keys the walk returned. A lost or stale key fails its Get, a ghost
// fails the walk.
//
// It is exported so engine-specific suites (core and shard chaos) audit
// with the rules the conformance suite's History subtest applies.
func Audit(ix index.Concurrent, want map[uint64]uint64) []string {
	keys := make([]uint64, 0, len(want))
	for k := range want {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	var rec Recorder
	return checkTail(&rec, ix, want, keys)
}

// testHistory is the conformance suite's linearizability test: four
// goroutines drive the recorded mix of point ops, batches, scans and walks
// on hot keys of a bulkloaded index, and the history ends with Audit's
// quiescent tail over the hot keys. Each hot loaded key has several fresh
// keys just above it, so they share its ALT slot (and live in ART) and
// grow the level bin behind it in FINEdex.
func testHistory(t *testing.T, factory Factory) {
	const goroutines, loadedHot, adjacent, ops = 4, 16, 32, 1000
	ix := factory()
	defer closeIfCloser(ix)
	keys := dataset.Generate(dataset.OSM, 20000, 3)
	if err := ix.Bulkload(dataset.Pairs(keys)); err != nil {
		t.Fatal(err)
	}
	initial := make(map[uint64]uint64, len(keys))
	for _, k := range keys {
		initial[k] = dataset.ValueFor(k)
	}
	hot := historyKeys(keys, loadedHot, adjacent)
	var rec Recorder
	if err := recordMix(&rec, ix, hot, goroutines, ops); err != nil {
		t.Fatal(err)
	}
	for _, v := range checkTail(&rec, ix, initial, hot) {
		t.Error(v)
	}
}

// historyKeys are the keys a history works on: n keys spread over loaded,
// each followed by the adjacent keys just above it, which predict to the
// same ALT slot and so live in ART whenever the loaded key holds it.
func historyKeys(loaded []uint64, n, adjacent int) []uint64 {
	var hot []uint64
	step := len(loaded) / n
	for i := 0; i < n; i++ {
		k := loaded[i*step]
		for j := 0; j <= adjacent; j++ {
			hot = append(hot, k+uint64(j))
		}
	}
	return hot
}

// runHistory drives goroutines × ops random operations on hot keys through
// a Recorder and checks the history, scans by the rules of CheckScans over
// the keys tracked reports true for (nil: all).
func runHistory(t *testing.T, ix index.Concurrent, initial map[uint64]uint64, hot []uint64, tracked func(uint64) bool, goroutines, ops int) {
	t.Helper()
	var rec Recorder
	if err := recordMix(&rec, ix, hot, goroutines, ops); err != nil {
		t.Fatal(err)
	}
	bad := checkRecorded(&rec, initial, tracked)
	for _, v := range bad {
		t.Error(v)
	}
	if len(bad) > 0 {
		t.FailNow()
	}
}

// recordMix drives goroutines × ops random operations on hot keys through
// sessions of rec: point ops, batches through index.BatchOf, scans and
// walks. Every written value is unique. It returns the first write error.
func recordMix(rec *Recorder, ix index.Concurrent, hot []uint64, goroutines, ops int) error {
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
	return <-errs
}

// checkTail records the quiescent tail of rec's history — once ix's
// asynchronous maintenance (an index with Quiesce, e.g. ALT's retraining)
// has drained, one session Gets every key of keys, then walks the whole
// index — and checks the history from initial. Len must equal the walk's
// count.
func checkTail(rec *Recorder, ix index.Concurrent, initial map[uint64]uint64, keys []uint64) []string {
	if q, ok := ix.(interface{ Quiesce() }); ok {
		q.Quiesce()
	}
	s := rec.Session(ix)
	for _, k := range keys {
		s.Get(k)
	}
	n := s.Walk(0, ^uint64(0), math.MaxInt)
	bad := checkRecorded(rec, initial, nil)
	if l := ix.Len(); l != n {
		bad = append(bad, fmt.Sprintf("Len = %d, but the quiescent walk returned %d keys", l, n))
	}
	return bad
}

// checkRecorded checks rec's point ops and batches with CheckHistory and
// its scans with CheckScans, and returns the first 25 violations with a
// count of the rest.
func checkRecorded(rec *Recorder, initial map[uint64]uint64, tracked func(uint64) bool) []string {
	const maxViolations = 25
	ops := rec.History()
	bad := append(CheckHistory(ops, initial), CheckScans(ops, rec.Scans(), initial, tracked)...)
	if len(bad) > maxViolations {
		bad = append(bad[:maxViolations], fmt.Sprintf("... and %d more", len(bad)-maxViolations))
	}
	return bad
}
