package main

import (
	"bytes"
	"regexp"
	"strings"
	"testing"
	"time"

	"altindex"
)

// TestSmoke runs every workload and one traced run in-process at 1/200
// scale, so the benchmark cannot rot unnoticed: every metric BENCHMARK.json
// names must be printed exactly once per workload, under a well-formed
// name, with no failed operation. Run it with go test in this directory;
// the module is separate from the repository's, so the root's go test ./...
// does not reach it.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the four workloads; skipped under -short")
	}
	cat, err := loadCatalog()
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	r := &runner{
		cat:    cat,
		cfg:    sliceConfig{Seed: 1, Seconds: cat.RunSeconds, Scale: 1.0 / 200, OutDir: t.TempDir()},
		w:      &out,
		slice:  runSlice,
		ladder: runLadder,
	}
	reports, err := r.measure(allWorkloads)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range allWorkloads {
		r.print(name, reports[name], cat.EndToEnd)
		if f := reports[name].failed; f != 0 {
			t.Errorf("%s: %d failed operations", name, f)
		}
	}
	traced, err := r.traced(wlMemRange)
	if err != nil {
		t.Fatal(err)
	}
	if traced.failed != 0 {
		t.Errorf("traced %s: %d failed operations", wlMemRange, traced.failed)
	}

	// printed[workload][metric] counts the table lines naming the pair.
	printed := map[string]map[string]int{}
	for _, line := range strings.Split(out.String(), "\n") {
		if f := strings.Fields(line); len(f) >= 4 && strings.HasPrefix(line, "  ") {
			if printed[f[0]] == nil {
				printed[f[0]] = map[string]int{}
			}
			printed[f[0]][f[1]]++
		}
	}
	wellFormed := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	check := func(workload string, specs []metricSpec, want int) {
		for _, s := range specs {
			if !wellFormed.MatchString(s.Name) {
				t.Errorf("metric name %q is malformed", s.Name)
			}
			if got := printed[workload][s.Name]; got != want {
				t.Errorf("%s: metric %s printed %d times, want %d", workload, s.Name, got, want)
			}
		}
	}
	for _, name := range allWorkloads {
		check(name, cat.EndToEnd, 1)
	}
	check(wlMemRange, cat.PerLayer, 1)
	for _, w := range cat.Workloads {
		if _, ok := reports[w.Name]; !ok {
			t.Errorf("BENCHMARK.json names workload %q, which the benchmark does not have", w.Name)
		}
	}
	if t.Failed() {
		t.Log(out.String())
	}
}

// stallingIndex makes every tenth Get take stall longer: a cost that comes
// and goes, like a collector pause or a frozen slot, but often enough that
// every window holds it.
type stallingIndex struct {
	altindex.Index
	stall time.Duration
	gets  int
}

func (s *stallingIndex) Get(key uint64) (uint64, bool) {
	if s.gets++; s.gets%10 == 0 {
		for t0 := time.Now(); time.Since(t0) < s.stall; {
		}
	}
	return s.Index.Get(key)
}

// stalledMemRead is mem-read on an index that stalls.
type stalledMemRead struct {
	*memRead
	stall time.Duration
}

func (w stalledMemRead) build() ([]time.Duration, error) {
	d, err := w.memRead.build()
	w.memRead.ix = &stallingIndex{Index: w.memRead.ix, stall: w.stall}
	return d, err
}

// TestIntermittentStallIsSeen pins what the clean-quarter estimators see:
// a stall on one operation in ten is in every window, so throughput falls
// by the stall's share of the time and the tail rises to the stall, while
// the median latency, rightly, does not move. (What they cannot see is a
// cost that misses a quarter of the windows; README.md says where that is
// recorded.)
func TestIntermittentStallIsSeen(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two slices; skipped under -short")
	}
	cat, err := loadCatalog()
	if err != nil {
		t.Fatal(err)
	}
	const stall = 20 * time.Microsecond
	cfg := sliceConfig{Workload: wlMemRead, Seed: 1, Seconds: cat.RunSeconds, Scale: 1.0 / 200, OutDir: t.TempDir()}
	plain, err := runSlice(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stalled, err := measureSlice(cfg, stalledMemRead{newMemRead(cfg), stall}, memReadSizing)
	if err != nil {
		t.Fatal(err)
	}
	p, s := summarize([]*sliceResult{plain}), summarize([]*sliceResult{stalled})
	var bound float64
	for _, spec := range cat.EndToEnd {
		if spec.Name == "throughput_ops_s" {
			bound = spec.Bound
		}
	}
	// 2 µs more per operation on average, against well under 1 µs without.
	if s.throughput > p.throughput*(1-bound) {
		t.Errorf("throughput %.0f with the stall, %.0f without: the fall is within the bound %.2f", s.throughput, p.throughput, bound)
	}
	if s.p99[classRead] < us(stall) {
		t.Errorf("read p99 %.3f us with a %.0f us stall on a tenth of the reads", s.p99[classRead], us(stall))
	}
	if s.p50[classRead] > us(stall) {
		t.Errorf("read p50 %.3f us: a stall on a tenth of the reads moved the median", s.p50[classRead])
	}
}

func us(d time.Duration) float64 { return d.Seconds() * 1e6 }

// TestFailuresStayInEveryWindow: a failed operation ranks above every
// sample of its class in every window of the slice, so an estimator that
// reports some of the windows cannot leave it out.
func TestFailuresStayInEveryWindow(t *testing.T) {
	r := &recorder{}
	for w := 0; w < 2; w++ {
		for i := 1; i <= 100; i++ {
			r.sample(classRead, spGet, i, 0, int64(i)*1000)
		}
		r.endWindow(100, time.Second, 0, refReading{})
	}
	r.fail(classRead, spGet) // both in the second window
	r.fail(classRead, spGet)
	for i, w := range r.windows() {
		if w.P50[classRead] != 51 {
			t.Errorf("window %d: p50 %v us, want 51 (rank 51 of 100 samples and 2 failures)", i, w.P50[classRead])
		}
		if w.P99[classRead] < 1e12 {
			t.Errorf("window %d: p99 %v us, want a failed operation's", i, w.P99[classRead])
		}
	}
}
