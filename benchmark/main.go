// Command benchmark is the repository's fixed benchmark suite: four
// workloads over the ALT-index stack, each reply checked against a shadow
// model, measured so that two sets of runs of one commit agree within the
// bounds BENCHMARK.json declares. See README.md for the method.
//
//	benchmark --workload W --seed N --seconds S --trace 0|1   one contract run
//	benchmark [--seed N] [--trace 1]                          all four workloads
//	benchmark --selfcheck                                     the noise self-check
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"syscall"
)

type options struct {
	workload  string
	seed      uint64
	seconds   int
	trace     int
	selfcheck bool
	child     string
	round     int
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run one workload and end with the contract's JSON line (default: all four)")
	flag.Uint64Var(&o.seed, "seed", 1, "seed of the dataset and operation generators")
	flag.IntVar(&o.seconds, "seconds", 0, "seconds the timed windows are sized for (default: run_seconds of BENCHMARK.json)")
	flag.IntVar(&o.trace, "trace", 0, "1 = the traced run: spans, the layer ladder and the per-layer metrics")
	flag.BoolVar(&o.selfcheck, "selfcheck", false, "run the suite as two sets of five and print the noise table")
	flag.StringVar(&o.child, "child", "", "internal: run one slice or ladder in this process and print its result")
	flag.IntVar(&o.round, "round", 0, "internal: round of the child slice")
	flag.Parse()
	if err := run(o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(o options, w io.Writer) error {
	cat, err := loadCatalog()
	if err != nil {
		return err
	}
	if o.seconds == 0 {
		o.seconds = cat.RunSeconds
	}
	if o.seconds < 1 || flag.NArg() > 0 {
		return fmt.Errorf("bad arguments (seconds %d, extra %v)", o.seconds, flag.Args())
	}
	outDir := filepath.Join(cat.Paths[0], "out")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	cfg := sliceConfig{Workload: o.workload, Seed: o.seed, Round: o.round, Seconds: o.seconds, Scale: 1, Trace: o.trace == 1, OutDir: outDir}

	switch o.child {
	case "slice":
		res, err := runSlice(cfg)
		if err != nil {
			return err
		}
		return json.NewEncoder(w).Encode(res)
	case "ladder":
		res, err := runLadder(cfg)
		if err != nil {
			return err
		}
		return json.NewEncoder(w).Encode(res)
	case "":
	default:
		return fmt.Errorf("unknown --child %q", o.child)
	}

	r := &runner{cat: cat, cfg: cfg, w: w, slice: childSlice, ladder: childLadder}
	workloads := allWorkloads
	if o.workload != "" {
		if !slices.Contains(allWorkloads, o.workload) {
			return fmt.Errorf("unknown workload %q (have %s)", o.workload, strings.Join(allWorkloads, ", "))
		}
		workloads = []string{o.workload}
	}
	if o.selfcheck {
		return r.selfcheck(workloads)
	}
	r.header()
	var last *report
	if cfg.Trace {
		for _, name := range workloads {
			if last, err = r.traced(name); err != nil {
				return err
			}
		}
	} else {
		reports, err := r.measure(workloads)
		if err != nil {
			return err
		}
		for _, name := range workloads {
			last = reports[name]
			r.print(name, last, cat.EndToEnd)
		}
	}
	if o.workload == "" {
		return nil
	}
	// The contract's result: the last line of standard output.
	line, err := json.Marshal(last.contract())
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// child re-executes this binary for one slice or ladder, so each gets a
// fresh heap: no workload's collector scans another's index.
func child(kind string, cfg sliceConfig, into any) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	trace := "0"
	if cfg.Trace {
		trace = "1"
	}
	cmd := exec.Command(exe, "--child", kind, "--workload", cfg.Workload,
		"--seed", fmt.Sprint(cfg.Seed), "--seconds", fmt.Sprint(cfg.Seconds),
		"--round", fmt.Sprint(cfg.Round), "--trace", trace)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output() // Output waits for the child to exit
	if err != nil {
		return fmt.Errorf("%s %s round %d: %w", kind, cfg.Workload, cfg.Round, err)
	}
	return json.Unmarshal(out, into)
}

func childSlice(cfg sliceConfig) (*sliceResult, error) {
	var res sliceResult
	return &res, child("slice", cfg, &res)
}

func childLadder(cfg sliceConfig) (map[string]float64, error) {
	var res map[string]float64
	return res, child("ladder", cfg, &res)
}

// header echoes everything a reader needs to tell two runs apart.
func (r *runner) header() {
	var u syscall.Utsname
	kernel := "unknown"
	if syscall.Uname(&u) == nil {
		var b []byte
		for _, c := range u.Release {
			if c == 0 {
				break
			}
			b = append(b, byte(c))
		}
		kernel = string(b)
	}
	fmt.Fprintf(r.w, "benchmark: seed=%d seconds=%d nproc=%d GOMAXPROCS=%d drivers=1 %s kernel=%s wal_fs=%s rounds=%d\n",
		r.cfg.Seed, r.cfg.Seconds, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), kernel,
		fsName(r.cfg.OutDir), roundsPerRun)
}
