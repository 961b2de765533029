package bench

import (
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"text/tabwriter"
	"time"

	"altindex/internal/dataset"
)

// Params scale an experiment. The defaults regenerate the paper's shape at
// laptop scale (the paper uses 200M keys and 32 physical cores).
type Params struct {
	Keys    int // dataset size (default 2,000,000)
	Threads int // worker goroutines (default min(GOMAXPROCS, 32))
	Ops     int // operations per run (default 1,000,000)
	Seed    uint64
	Out     io.Writer
	// BatchSizes is the batch-size sweep of the batched-throughput
	// experiment (default {1, 8, 64, 256}).
	BatchSizes []int
	// Record, when set, receives the Result behind every cell an
	// experiment's tables are printed from (cmd/altbench -json feeds on it).
	Record func(Result)
	// Duration, when positive, makes every cell time-bounded (see
	// Config.Duration): each run executes until the wall-clock budget
	// expires instead of a fixed op count, and reports the ops it achieved.
	// This keeps rows comparable across host speeds (cmd/altbench -duration).
	Duration time.Duration
}

func (p Params) withDefaults() Params {
	if p.Keys == 0 {
		p.Keys = 2_000_000
	}
	if p.Threads == 0 {
		p.Threads = defaultThreads()
	}
	if p.Ops == 0 {
		p.Ops = 1_000_000
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	if p.Out == nil {
		p.Out = os.Stdout
	}
	if len(p.BatchSizes) == 0 {
		p.BatchSizes = []int{1, 8, 64, 256}
	}
	return p
}

// Experiment is one reproducible table/figure of the paper: a declarative
// slice of the evaluation grid — indexes x datasets x at most one swept
// axis per table — that runGrid executes.
type Experiment struct {
	ID    string
	Title string
	head  string              // title printed above the tables; default Title
	note  func(Params) string // optional line under the header
	grids []grid
}

// Run executes the experiment at the given scale, printing its tables to
// p.Out and handing every cell's Result to p.Record.
func (e Experiment) Run(p Params) { runGrid(p, e) }

// grid is one printed table.
type grid struct {
	sub      func(Params) string                    // "-- ... --" line above a follow-up table
	rows     []variant                              // default: All()
	rowsAt   func(p Params, axis float64) []variant // rows that depend on the scale or the swept value
	datasets []dataset.Name                         // default: dataset.Names()
	axis     *axis
	cfg      Config                // template; the executor fills scale, seed and duration
	tune     func(Params, *Config) // Params-derived template fields (an op budget, a thread count)
	build    bool                  // cells bulkload the whole dataset and report the build, not a Run
	reps     int                   // >1: each cell is the median-by-Mops of reps runs, seeds Seed..Seed+reps-1
	// order is the loop nest, outermost first, over (i)ndex, (d)ataset and
	// (a)xis; default "ida".
	order string
	// cols is the header line and row formats one cell as a table row, both
	// tab-separated. With pivot set, the innermost loop of order becomes
	// columns instead of rows: cols and row label a row and pivot formats
	// one value per member, under heads or — by default — the member's own
	// name (the index, or "axis=value").
	cols, heads string
	row, pivot  func(cell) string
}

// variant is one row source of a grid: a named index plus what makes the
// row differ from its neighbours.
type variant struct {
	NamedFactory
	tune func(Params, *Config) // per-row Config overrides (mix, batch size, loop batching)
	// cell replaces the default measurement where the measured thing is not
	// a Run of the factory (a segmenter, an absent-key probe loop, a WAL, a
	// TCP client); it still receives the fully resolved Config.
	cell func(Config) Result
}

func asRows(fs ...NamedFactory) []variant {
	vs := make([]variant, len(fs))
	for i, f := range fs {
		vs[i].NamedFactory = f
	}
	return vs
}

// axis is a grid's swept parameter.
type axis struct {
	name   string // Result.Mix suffix key and pivot column prefix
	format string // verb the value is printed with
	values func(Params) []float64
	set    func(*Config, float64) // nil when the value only parameterises rows
}

func fixed(vals ...float64) func(Params) []float64 {
	return func(Params) []float64 { return vals }
}

// cell is one measured grid point as the tables see it.
type cell struct {
	Result
	Axis string // the swept value as printed; empty without an axis
}

// runGrid is the one executor behind every experiment: it applies the
// Params defaults, prints the header, and for each grid resolves every
// cell's Config from the template, measures it (honouring p.Duration),
// records it and prints the table.
func runGrid(p Params, e Experiment) {
	p = p.withDefaults()
	if e.head == "" {
		e.head = e.Title
	}
	fmt.Fprintf(p.Out, "\n== %s ==\n(keys=%d threads=%d ops=%d seed=%d)\n",
		e.head, p.Keys, p.Threads, p.Ops, p.Seed)
	if e.note != nil {
		fmt.Fprintln(p.Out, e.note(p))
	}
	for _, g := range e.grids {
		if g.sub != nil {
			fmt.Fprintf(p.Out, "\n-- %s --\n", g.sub(p))
		}
		g.run(p)
	}
}

func (g grid) run(p Params) {
	if g.rows == nil {
		g.rows = asRows(All()...)
	}
	if g.datasets == nil {
		g.datasets = dataset.Names()
	}
	if g.order == "" {
		g.order = "ida"
	}
	vals := []float64{0}
	if g.axis != nil {
		vals = g.axis.values(p)
	}
	rows := make([][]variant, len(vals))
	for i, v := range vals {
		rows[i] = g.rows
		if g.rowsAt != nil {
			rows[i] = g.rowsAt(p, v)
		}
	}
	const index, data, swept = 0, 1, 2
	n := [3]int{index: len(rows[0]), data: len(g.datasets), swept: len(vals)}
	var nest [3]int
	for i := range nest {
		nest[i] = strings.IndexByte("ida", g.order[i])
	}
	inner := nest[2]

	tw := tabwriter.NewWriter(p.Out, 2, 4, 2, ' ', 0)
	heads := g.cols + g.heads
	for i := 0; g.pivot != nil && g.heads == "" && i < n[inner]; i++ {
		if inner == index {
			heads += "\t" + rows[0][i].Name
		} else {
			heads += "\t" + g.axis.name + "=" + fmt.Sprintf(g.axis.format, vals[i])
		}
	}
	if heads != "" {
		fmt.Fprintln(tw, heads)
	}

	var at [3]int
	for at[nest[0]] = 0; at[nest[0]] < n[nest[0]]; at[nest[0]]++ {
		for at[nest[1]] = 0; at[nest[1]] < n[nest[1]]; at[nest[1]]++ {
			line := ""
			for at[inner] = 0; at[inner] < n[inner]; at[inner]++ {
				c := g.measure(p, rows[at[swept]][at[index]], g.datasets[at[data]], vals[at[swept]])
				if g.pivot == nil {
					if g.row != nil {
						fmt.Fprintln(tw, g.row(c))
					}
					continue
				}
				if at[inner] == 0 {
					line = g.row(c)
				}
				line += "\t" + g.pivot(c)
			}
			if g.pivot != nil {
				fmt.Fprintln(tw, line)
			}
		}
	}
	tw.Flush()
}

// measure resolves one cell's Config, runs it and records the Result under
// the row's name, with the swept value appended to Mix so every cell of an
// experiment keeps a distinct (Index, Dataset, Mix, Threads) key.
func (g grid) measure(p Params, v variant, ds dataset.Name, x float64) cell {
	c := g.cfg
	c.Dataset, c.Keys, c.Ops, c.Duration = ds, p.Keys, p.Ops, p.Duration
	if c.Threads == 0 {
		c.Threads = p.Threads
	}
	for _, tune := range []func(Params, *Config){g.tune, v.tune} {
		if tune != nil {
			tune(p, &c)
		}
	}
	label := ""
	if g.axis != nil {
		label = fmt.Sprintf(g.axis.format, x)
		if g.axis.set != nil {
			g.axis.set(&c, x)
		}
	}
	run := v.cell
	if run == nil {
		run = func(c Config) Result { return Run(v.New, c) }
	}
	if g.build {
		// Bulkload the full dataset and report the index undriven: build
		// time, memory, length and internal stats.
		run = func(c Config) Result {
			c.InitRatio = 1
			p := Prepare(v.New, c)
			defer p.Close()
			r := p.result()
			r.Mix = "build"
			return r
		}
	}
	// Retrain scheduling and closed-loop TCP make single runs noisy (the
	// same config can retrain 5x or 150x); grids that set reps report the
	// median run so a row reflects the configuration, not one schedule.
	runs := make([]Result, max(g.reps, 1))
	for rep := range runs {
		c.Seed = p.Seed + uint64(rep)
		runs[rep] = run(c)
	}
	sort.Slice(runs, func(i, j int) bool { return runs[i].Mops < runs[j].Mops })
	r := runs[len(runs)/2]
	r.Index = v.Name // variant factories share an engine Name; keep the row label
	if label != "" {
		r.Mix += " " + g.axis.name + "=" + label
	}
	if p.Record != nil {
		p.Record(r)
	}
	return cell{r, label}
}

func us(d time.Duration) string {
	return fmt.Sprintf("%.2f", float64(d.Nanoseconds())/1e3)
}
