// Command altbench regenerates the tables and figures of the ALT-index
// paper's evaluation (§IV) at a configurable scale.
//
// Usage:
//
//	altbench -list
//	altbench -exp table1
//	altbench -exp fig7c -keys 5000000 -threads 32 -ops 4000000
//	altbench -exp all
//	altbench -exp fig7           # expands to fig7a..fig7e
//
// The paper runs 200M keys on 36 physical cores; the defaults here are
// laptop-scale (2M keys). Absolute numbers differ, the comparative shape is
// what the experiments reproduce (see EXPERIMENTS.md).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strconv"
	"strings"

	"altindex/internal/bench"
)

// largeTierKeys is the -tier large default dataset size; ≥50M stays an
// explicit -keys opt-in so nobody triggers an hour-long run by accident.
const largeTierKeys = 20_000_000

func main() {
	var (
		exp     = flag.String("exp", "", "experiment id (see -list), 'fig7', or 'all'")
		list    = flag.Bool("list", false, "list experiment ids and exit")
		keys    = flag.Int("keys", 2_000_000, "dataset size")
		threads = flag.Int("threads", 0, "worker goroutines (default min(GOMAXPROCS,32))")
		ops     = flag.Int("ops", 1_000_000, "operations per run")
		dur     = flag.Duration("duration", 0, "time-bound each run instead of -ops (e.g. 2s); achieved ops are reported")
		seed    = flag.Uint64("seed", 1, "dataset/workload seed")
		batch   = flag.String("batch", "", "comma-separated batch sizes for the 'batch' experiment (default 1,8,64,256)")
		tier    = flag.String("tier", "", "scale tier: 'large' defaults -keys to 20M and -exp to large-scale (pass -keys 50000000 or more to opt higher)")

		cpuprofile   = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile   = flag.String("memprofile", "", "write a heap profile to this file on exit")
		mutexprofile = flag.String("mutexprofile", "", "write a mutex-contention profile to this file on exit")
		jsonOut      = flag.String("json", "", "write every run's Result as JSON to this file (durations in ns)")
	)
	flag.Parse()

	batchSizes, err := parseBatchSizes(*batch)
	if err != nil {
		fmt.Fprintf(os.Stderr, "altbench: -batch: %v\n", err)
		os.Exit(2)
	}

	switch *tier {
	case "":
	case "large":
		keysSet := false
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "keys" {
				keysSet = true
			}
		})
		if !keysSet {
			*keys = largeTierKeys
		}
		if *exp == "" {
			*exp = "large-scale"
		}
	default:
		fmt.Fprintf(os.Stderr, "altbench: unknown -tier %q (only 'large')\n", *tier)
		os.Exit(2)
	}

	if *list {
		for _, e := range bench.Experiments() {
			fmt.Printf("%-20s %s\n", e.ID, e.Title)
		}
		return
	}
	if *exp == "" {
		fmt.Fprintln(os.Stderr, "altbench: -exp required (or -list)")
		flag.Usage()
		os.Exit(2)
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "altbench: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "altbench: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *mutexprofile != "" {
		// 1-in-5 sampling keeps the overhead away from the measured tails.
		runtime.SetMutexProfileFraction(5)
		defer writeProfile("mutex", *mutexprofile)
	}
	if *memprofile != "" {
		defer func() {
			runtime.GC()
			writeProfile("heap", *memprofile)
		}()
	}

	p := bench.Params{Keys: *keys, Threads: *threads, Ops: *ops, Seed: *seed,
		BatchSizes: batchSizes, Duration: *dur, Out: os.Stdout}
	exps := expand(*exp)
	if len(exps) == 0 {
		fmt.Fprintf(os.Stderr, "altbench: unknown experiment %q (try -list)\n", *exp)
		os.Exit(2)
	}

	// Every cell of every experiment is recorded under its experiment id
	// (a swept value rides in Mix, e.g. "balanced threads=4"); -json dumps
	// the lot machine-readably, with the scale parameters alongside, and
	// each row's counters (an index's StatsMap) in Result.Stats.
	type jsonRow struct {
		Experiment string
		bench.Result
	}
	var rows []jsonRow
	curID := ""
	if *jsonOut != "" {
		p.Record = func(r bench.Result) {
			rows = append(rows, jsonRow{Experiment: curID, Result: r})
		}
	}

	for _, e := range exps {
		curID = e.ID
		e.Run(p)
	}

	if *jsonOut != "" {
		// Reproducibility metadata: the GC configuration and host shape a
		// perf-trajectory artifact ran under. The GOGC/GOMEMLIMIT values
		// are the effective runtime settings (environment or default),
		// read back from the runtime itself.
		curGC := debug.SetGCPercent(100)
		debug.SetGCPercent(curGC)
		doc := struct {
			Keys, Threads, Ops int
			Seed               uint64
			Tier               string
			GOGC               int
			GOMEMLIMIT         int64
			NumCPU             int
			GOMAXPROCS         int
			GoVersion          string
			Runs               []jsonRow
		}{*keys, *threads, *ops, *seed, *tier,
			curGC, debug.SetMemoryLimit(-1), runtime.NumCPU(),
			runtime.GOMAXPROCS(0), runtime.Version(), rows}
		data, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "altbench: -json: %v\n", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*jsonOut, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "altbench: -json: %v\n", err)
			os.Exit(1)
		}
	}
}

// writeProfile dumps a named runtime profile, warning instead of failing —
// a missing profile must not discard an hour of benchmark output.
func writeProfile(name, path string) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "altbench: profile %s: %v\n", name, err)
		return
	}
	defer f.Close()
	if err := pprof.Lookup(name).WriteTo(f, 0); err != nil {
		fmt.Fprintf(os.Stderr, "altbench: profile %s: %v\n", name, err)
	}
}

// parseBatchSizes parses the -batch flag ("1,8,64,256"); empty means the
// experiment default.
func parseBatchSizes(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var sizes []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad batch size %q", part)
		}
		sizes = append(sizes, n)
	}
	return sizes, nil
}

// expand resolves an -exp value: an exact id, "all" for everything, or
// "fig7"/"fig8" for their sub-figures.
func expand(id string) []bench.Experiment {
	var exps []bench.Experiment
	for _, e := range bench.Experiments() {
		group := (id == "fig7" || id == "fig8") && strings.HasPrefix(e.ID, id)
		if id == "all" || e.ID == id || group {
			exps = append(exps, e)
		}
	}
	return exps
}
