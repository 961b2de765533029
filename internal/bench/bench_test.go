package bench

import (
	"bytes"
	"flag"
	"os"
	"regexp"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"altindex/internal/dataset"
	"altindex/internal/index"
	"altindex/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/shapes.golden from this build's Experiments()")

func TestRunProducesSaneResult(t *testing.T) {
	for _, f := range All() {
		r := Run(f.New, Config{Dataset: dataset.OSM, Keys: 20000,
			Mix: workload.Balanced, Threads: 4, Ops: 20000, Seed: 1})
		if r.Mops <= 0 {
			t.Fatalf("%s: Mops=%v", f.Name, r.Mops)
		}
		if r.P999 < r.P50 {
			t.Fatalf("%s: P999 %v < P50 %v", f.Name, r.P999, r.P50)
		}
		if r.Mem == 0 {
			t.Fatalf("%s: no memory reported", f.Name)
		}
		if r.Len == 0 {
			t.Fatalf("%s: empty index after run", f.Name)
		}
		if r.Index != f.Name {
			t.Fatalf("name mismatch: %q vs %q", r.Index, f.Name)
		}
	}
}

func TestRunReadOnlyKeepsLen(t *testing.T) {
	r := Run(ALT().New, Config{Dataset: dataset.Libio, Keys: 10000,
		Mix: workload.ReadOnly, Threads: 2, Ops: 5000, Seed: 2})
	if r.Len != 5000 { // InitRatio 0.5 of 10000
		t.Fatalf("Len=%d want 5000", r.Len)
	}
}

// countingIndex counts the point writes that reach the wrapped index.
type countingIndex struct {
	index.Concurrent
	inserts atomic.Int64
}

func (c *countingIndex) Insert(k, v uint64) error {
	c.inserts.Add(1)
	return c.Concurrent.Insert(k, v)
}

// TestRunOpDistribution is the regression test for the per-thread op
// division: Ops that don't divide Threads — in particular Ops < Threads,
// which used to run zero operations — must still execute every configured
// operation, and the reported Ops/Mops must reflect the configuration.
// Prepared.Exec, which every root testing.B benchmark's b.N goes through,
// shares the split and is held to the same count.
func TestRunOpDistribution(t *testing.T) {
	for _, tc := range []struct{ ops, threads int }{
		{3, 8},   // fewer ops than threads: the old division ran nothing
		{10, 4},  // remainder 2
		{17, 16}, // remainder 1
	} {
		cfg := Config{Dataset: dataset.Libio, Keys: 10000,
			Mix: workload.WriteOnly, Threads: tc.threads, Ops: tc.ops, Seed: 3,
			SampleEvery: 1}
		r := Run(ALT().New, cfg)
		if r.Ops != tc.ops {
			t.Fatalf("ops=%d threads=%d: Result.Ops = %d", tc.ops, tc.threads, r.Ops)
		}
		// Write-only against a half-loaded dataset: every op inserts a
		// fresh pending key, so the executed count is visible in Len.
		if got := r.Len - 5000; got != tc.ops {
			t.Fatalf("ops=%d threads=%d: %d ops executed", tc.ops, tc.threads, got)
		}
		if r.Mops <= 0 {
			t.Fatalf("ops=%d threads=%d: Mops = %v", tc.ops, tc.threads, r.Mops)
		}

		var counted *countingIndex
		p := Prepare(func() index.Concurrent {
			counted = &countingIndex{Concurrent: ALT().New()}
			return counted
		}, cfg)
		p.Exec(tc.ops)
		p.Close()
		if got := counted.inserts.Load(); got != int64(tc.ops) {
			t.Fatalf("Exec(%d) on %d streams ran %d ops", tc.ops, tc.threads, got)
		}
	}
}

// TestRunDurationMode checks the time-bounded mode: the run must stop
// near the wall-clock budget regardless of Ops, and Result.Ops must
// report what was achieved, not the configured count.
func TestRunDurationMode(t *testing.T) {
	for _, batch := range []int{0, 8} {
		t0 := time.Now()
		r := Run(ALT().New, Config{Dataset: dataset.Libio, Keys: 10000,
			Mix: workload.ReadOnly, Threads: 2, Ops: 1, Seed: 4,
			Duration: 50 * time.Millisecond, BatchSize: batch})
		elapsed := time.Since(t0)
		// Ops:1 would finish instantly; a duration run must keep going for
		// the budget and do far more than one op on a 10k-key read loop.
		if r.Ops <= 2 {
			t.Fatalf("batch=%d: achieved only %d ops in duration mode", batch, r.Ops)
		}
		if r.Elapsed < 40*time.Millisecond {
			t.Fatalf("batch=%d: run lasted %v, budget 50ms", batch, r.Elapsed)
		}
		// Generous upper bound: the deadline check runs every 64 ops, so
		// overshoot is bounded by 64 ops of work, not seconds.
		if elapsed > 5*time.Second {
			t.Fatalf("batch=%d: duration mode ran %v", batch, elapsed)
		}
		if r.Mops <= 0 {
			t.Fatalf("batch=%d: Mops = %v", batch, r.Mops)
		}
	}
}

func TestRunRejectsNegativeOps(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative Ops did not panic")
		}
	}()
	Run(ALT().New, Config{Dataset: dataset.Libio, Keys: 1000, Threads: 2, Ops: -1})
}

func TestByName(t *testing.T) {
	for _, want := range []string{"ALT-index", "ALEX+", "LIPP+", "FINEdex", "XIndex", "ART"} {
		f, ok := ByName(want)
		if !ok || f.Name != want {
			t.Fatalf("ByName(%q) failed", want)
		}
		ix := f.New()
		if ix.Name() != want {
			t.Fatalf("factory %q built %q", want, ix.Name())
		}
		CloseIndex(ix)
	}
	if _, ok := ByName("nope"); ok {
		t.Fatal("unknown name resolved")
	}
}

var (
	digitRuns = regexp.MustCompile(`[0-9]+`)
	colGaps   = regexp.MustCompile(` {2,}`)
)

// shapeOf reduces an experiment's output to what must not drift: titles,
// column headers, row labels and the row count. Digit runs become "#" and
// tabwriter padding becomes " | ", so measured values drop out.
func shapeOf(out string) string {
	lines := strings.Split(strings.TrimSpace(out), "\n")
	for i, l := range lines {
		l = digitRuns.ReplaceAllString(strings.TrimRight(l, " "), "#")
		lines[i] = colGaps.ReplaceAllString(l, " | ")
	}
	return strings.Join(lines, "\n")
}

const shapesGolden = "testdata/shapes.golden"

// TestExperimentShapesMatchGolden runs every experiment at the smallest
// scale that still emits every row (rows depend on Threads and the sweep
// lists, never on Keys/Ops, and the 2ms Duration bounds each cell) and
// compares its shape with testdata/shapes.golden. Every section of that
// file but sosd's was generated by the pre-grid hand-rolled tables (commit
// b0b992d) under the same Params and normaliser, which is what proves the
// spec table lost no row or column. It also checks each experiment records
// at least one Result.
func TestExperimentShapesMatchGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are slow; skipped in -short")
	}
	raw, err := os.ReadFile(shapesGolden)
	if err != nil && !*update {
		t.Fatal(err)
	}
	golden := map[string]string{}
	for _, sec := range strings.Split(string(raw), "### ")[1:] {
		id, body, _ := strings.Cut(sec, "\n")
		golden[id] = strings.TrimSpace(body)
	}
	var regen strings.Builder
	for _, e := range Experiments() {
		t.Run(e.ID, func(t *testing.T) {
			got := experimentShape(t, e)
			regen.WriteString("### " + e.ID + "\n" + got + "\n")
			if want := golden[e.ID]; got != want && !*update {
				t.Fatalf("experiment %s drifted from %s\n--- got\n%s\n--- want\n%s", e.ID, shapesGolden, got, want)
			}
		})
	}
	for _, f := range folded {
		t.Run(f.id, func(t *testing.T) {
			if _, ok := ByID(f.id); ok {
				t.Fatalf("%s still resolves; it is folded into %s", f.id, f.into)
			}
			e, ok := ByID(f.into)
			if !ok {
				t.Fatalf("%s, which %s was folded into, is missing", f.into, f.id)
			}
			got := strings.Split(experimentShape(t, e), "\n")
			for _, want := range f.lines {
				found := false
				for _, l := range got {
					found = found || strings.HasPrefix(l, want)
				}
				if !found {
					t.Errorf("%s lost %s's line %q\n--- got\n%s", f.into, f.id, want, strings.Join(got, "\n"))
				}
			}
		})
	}
	if *update {
		if err := os.WriteFile(shapesGolden, []byte(regen.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestEveryExperimentRuns is the name, with its per-id subtests, that the
// tier-1 floor list knows the check above by. It is the same test, and
// shapesSeen keeps the second entry from running the grid again.
func TestEveryExperimentRuns(t *testing.T) { TestExperimentShapesMatchGolden(t) }

var shapesSeen = map[string]string{}

// experimentShape runs e once at the golden scale and returns the shape of
// its output; later calls for the same id reuse the first run.
func experimentShape(t *testing.T, e Experiment) string {
	if got, ran := shapesSeen[e.ID]; ran {
		return got
	}
	var buf bytes.Buffer
	recorded := 0
	e.Run(Params{Keys: 4000, Threads: 2, Ops: 2000, Seed: 1, Duration: 2 * time.Millisecond,
		Out: &buf, Record: func(Result) { recorded++ }})
	if recorded == 0 {
		t.Errorf("experiment %s recorded no Result", e.ID)
	}
	got := shapeOf(buf.String())
	shapesSeen[e.ID] = got
	return got
}

// folded lists experiments merged into another one. Each keeps a subtest
// under its old id, which checks that the old id no longer resolves and
// that every line of its last golden table still begins a line of the
// experiment it went into: the rows survive, and the surviving columns
// extend the old ones.
var folded = []struct {
	id, into string
	lines    []string
}{
	// The retraining ablation ran the same two variants on the same hot-write
	// workload as retrain-tail; its columns are retrain-tail's first six.
	{id: "ablation-retrain", into: "retrain-tail", lines: []string{
		"Variant | Dataset | Mops | P#us | P#us | P#.#us",
		"ALT-index | fb | #.# | #.# | #.# | #.#",
		"ALT-index | libio | #.# | #.# | #.# | #.#",
		"ALT-index | osm | #.# | #.# | #.# | #.#",
		"ALT-index | longlat | #.# | #.# | #.# | #.#",
		"ALT-noretrain | fb | #.# | #.# | #.# | #.#",
		"ALT-noretrain | libio | #.# | #.# | #.# | #.#",
		"ALT-noretrain | osm | #.# | #.# | #.# | #.#",
		"ALT-noretrain | longlat | #.# | #.# | #.# | #.#",
	}},
}

func TestByID(t *testing.T) {
	if _, ok := ByID("fig9"); !ok {
		t.Fatal("fig9 missing")
	}
	if _, ok := ByID("fig99"); ok {
		t.Fatal("bogus id resolved")
	}
}

// TestNetPathSmoke drives one tiny grid cell of the net-path experiment:
// the closed-loop TCP client must complete its op target, the STATS scrape
// must carry the net counters the tables are built from, and depth-8
// bursts must show amortized flushes.
func TestNetPathSmoke(t *testing.T) {
	r := runNet(Config{Dataset: dataset.OSM, Keys: 5000, Ops: 2000, Threads: 2, BatchSize: 8, Seed: 1})
	if r.Ops < 2000 {
		t.Fatalf("ran %d ops, want >= 2000", r.Ops)
	}
	if r.Stats["net_cmds"] < int64(r.Ops) {
		t.Fatalf("net_cmds=%d < ops=%d", r.Stats["net_cmds"], r.Ops)
	}
	if flushes, cmds := r.Stats["net_flushes"], r.Stats["net_cmds"]; flushes*2 > cmds {
		t.Fatalf("pipelined loop flushed %d times for %d commands, want amortized", flushes, cmds)
	}
}
