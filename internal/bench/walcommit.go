package bench

import (
	"fmt"
	"os"
	"strings"
	"sync"
	"time"

	"altindex/internal/dataset"
	"altindex/internal/histogram"
	"altindex/internal/wal"
)

// walCommit is the durability-cost experiment: what group commit buys and
// what each sync policy costs. For every sync policy × writer count cell,
// concurrent writers Commit fixed-size records as fast as they can and
// the table reports commits/s against fsyncs/s — under SyncAlways with
// multiple writers, fsyncs/s must sit well below commits/s (many commits
// amortized per group fsync), which is the group-commit claim. The final
// section measures recovery: a log of p.Ops records is written, the
// process state discarded, and Open+Replay timed — the recovery-time
// budget that bounds how rarely an embedder may checkpoint.
var walCommit = Experiment{ID: "wal-commit",
	Title: "WAL group commit: commits/s vs fsyncs/s per sync policy x writers, plus replay speed",
	head:  "WAL group commit: commits/s vs fsyncs/s per sync policy and writer count",
	grids: []grid{
		{rows: []variant{walWriters(wal.SyncAlways), walWriters(wal.SyncInterval), walWriters(wal.SyncNone)},
			datasets: []dataset.Name{"wal"},
			axis:     &axis{name: "writers", format: "%.0f", values: fixed(1, 2, 4, 8, 16), set: setThreads},
			tune:     func(p Params, c *Config) { c.Ops = max(p.Ops/20, 2_000) },
			cols:     "Policy\tWriters\tCommits\tCommits/s\tFsyncs\tFsyncs/s\tCommits/Fsync\tP50us\tP99us",
			row: func(c cell) string {
				fsyncs, sec := c.Stats["fsyncs"], c.Elapsed.Seconds()
				return fmt.Sprintf("%s\t%s\t%d\t%.0f\t%d\t%.0f\t%.1f\t%s\t%s", strings.TrimPrefix(c.Index, "wal-"), c.Axis,
					c.Ops, float64(c.Ops)/sec, fsyncs, float64(fsyncs)/sec, float64(c.Ops)/float64(max(fsyncs, 1)), us(c.P50), us(c.P99))
			}},
		// Recovery-time target: fill a log with p.Ops records, then time a
		// cold Open (scan + CRC validation) and Replay of every record.
		{sub: func(p Params) string { return fmt.Sprintf("recovery: replaying a %d-record log", p.Ops) },
			rows:     []variant{{NamedFactory: NamedFactory{Name: "wal-replay"}, cell: walReplay}},
			datasets: []dataset.Name{"wal"},
			after: func(p Params, cells []cell) {
				r := cells[0]
				fmt.Fprintf(p.Out, "replayed %d records in %.3fs (%.2f Mrec/s)\n", r.Ops, r.Elapsed.Seconds(), r.Mops)
			}},
	}}

var walPayload = make([]byte, 64)

// walWriters is one sync policy's row: c.Threads writers Commit c.Ops
// records between them, stopping early at c.Duration (2s when unset).
func walWriters(pol wal.SyncPolicy) variant {
	return variant{NamedFactory: NamedFactory{Name: fmt.Sprintf("wal-%s", pol)}, cell: func(c Config) Result {
		dir, err := os.MkdirTemp("", "walbench")
		if err != nil {
			panic(err)
		}
		defer os.RemoveAll(dir)
		l, err := wal.Open(dir, wal.Options{Sync: pol, Interval: 2 * time.Millisecond})
		if err != nil {
			panic(err)
		}
		budget := 2 * time.Second
		if c.Duration > 0 {
			budget = c.Duration
		}
		perWriter := c.Ops / c.Threads
		var hist histogram.Histogram
		var wg sync.WaitGroup
		deadline := time.Now().Add(budget)
		t0 := time.Now()
		for w := 0; w < c.Threads; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < perWriter; i++ {
					if i&63 == 0 && time.Now().After(deadline) {
						break
					}
					s := time.Now()
					if _, err := l.Commit(walPayload); err != nil {
						panic(err)
					}
					hist.Record(time.Since(s))
				}
			}()
		}
		wg.Wait()
		elapsed := time.Since(t0)
		st := l.Stats()
		l.Close()
		return Result{Dataset: c.Dataset, Mix: "commit", Threads: c.Threads,
			Stats: map[string]int64{"fsyncs": st.Fsyncs, "batches": st.Batches, "bytes": st.Bytes},
		}.measured(int(hist.Count()), elapsed, &hist)
	}}
}

// walReplay writes a c.Ops-record log, closes it, and times a cold Open
// plus Replay of every record.
func walReplay(c Config) Result {
	dir, err := os.MkdirTemp("", "walreplay")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	l, err := wal.Open(dir, wal.Options{Sync: wal.SyncNone})
	if err != nil {
		panic(err)
	}
	for i := 0; i < c.Ops; i++ {
		if _, err := l.Append(walPayload); err != nil {
			panic(err)
		}
	}
	if err := l.Close(); err != nil {
		panic(err)
	}
	t0 := time.Now()
	l2, err := wal.Open(dir, wal.Options{})
	if err != nil {
		panic(err)
	}
	n, err := l2.Replay(0, func(uint64, []byte) error { return nil })
	if err != nil {
		panic(err)
	}
	dt := time.Since(t0)
	l2.Close()
	return Result{Dataset: c.Dataset, Mix: "recovery", Threads: 1}.measured(n, dt, nil)
}
