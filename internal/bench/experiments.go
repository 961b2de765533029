package bench

import (
	"fmt"
	"io"
	"os"
	"sort"
	"text/tabwriter"
	"time"

	"altindex/internal/core"
	"altindex/internal/dataset"
	"altindex/internal/gpl"
	"altindex/internal/index"
	"altindex/internal/workload"
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
	// Record, when set, receives every per-run Result an experiment's
	// table rows are printed from (cmd/altbench -json feeds on it).
	Record func(Result)
	// Shards extends the shard-scaling experiment's shard-count sweep with
	// this value when it is not already covered (cmd/altbench -shards).
	Shards int
	// Duration, when positive, makes every table row time-bounded (see
	// Config.Duration): each run executes until the wall-clock budget
	// expires instead of a fixed op count, and reports the ops it achieved.
	// This keeps rows comparable across host speeds (cmd/altbench -duration).
	Duration time.Duration
	// NetConns and NetDepth anchor the net-path experiment's sweeps: the
	// depth sweep runs at NetConns connections (default 8, where the
	// coalescing gate engages) and the connection sweep at NetDepth
	// pipelined commands per burst (default 16).
	NetConns int
	NetDepth int
}

func (p Params) record(r Result) {
	if p.Record != nil {
		p.Record(r)
	}
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
	if p.NetConns == 0 {
		p.NetConns = 8
	}
	if p.NetDepth == 0 {
		p.NetDepth = 16
	}
	return p
}

// Experiment is one reproducible table/figure of the paper.
type Experiment struct {
	ID    string
	Title string
	Run   func(Params)
}

// Experiments returns every experiment in paper order.
func Experiments() []Experiment {
	return []Experiment{
		{"table1", "Table I: baseline throughput & P99.9, balanced, libio+osm", Table1},
		{"fig3a", "Fig 3(a): model counts of XIndex/FINEdex vs ALT", Fig3a},
		{"fig3b", "Fig 3(b): FINEdex/XIndex read-only throughput vs error bound", Fig3b},
		{"fig4", "Fig 4: GPL vs ShrinkingCone vs LPA segmentation", Fig4},
		{"fig6a", "Fig 6(a): ALT model count vs error bound", Fig6a},
		{"fig6b", "Fig 6(b): ALT read-only throughput vs error bound", Fig6b},
		{"fig7a", "Fig 7(a): read-only workload, all indexes", figMix(workload.ReadOnly)},
		{"fig7b", "Fig 7(b): read-heavy workload, all indexes", figMix(workload.ReadHeavy)},
		{"fig7c", "Fig 7(c): balanced workload, all indexes", figMix(workload.Balanced)},
		{"fig7d", "Fig 7(d): write-heavy workload, all indexes", figMix(workload.WriteHeavy)},
		{"fig7e", "Fig 7(e): write-only workload, all indexes", figMix(workload.WriteOnly)},
		{"fig8a", "Fig 8(a): memory overhead after inserting the remainder", Fig8a},
		{"fig8b", "Fig 8(b): hot-write throughput (retraining trigger)", Fig8b},
		{"fig8c", "Fig 8(c): short-scan throughput (100-key scans)", Fig8c},
		{"fig8d", "Fig 8(d): read throughput vs init ratio (osm)", Fig8d},
		{"fig8e", "Fig 8(e): throughput vs zipf theta (osm)", Fig8e},
		{"fig9", "Fig 9: scalability 1..T threads, balanced", Fig9},
		{"fig10a", "Fig 10(a): ART lookup length with/without fast pointers", Fig10a},
		{"fig10b", "Fig 10(b): fast pointer count with/without merge", Fig10b},
		{"fig10c", "Fig 10(c): data split between layers", Fig10c},
		{"fig10d", "Fig 10(d): bulkload time ALT vs ALEX+ vs LIPP+", Fig10d},
		{"batch", "Batched throughput: model-grouped batch path vs per-key loop, all indexes", BatchSweep},
		{"cacheline", "Cacheline: single-thread probe cost of the block layout (B=1, B=64, absent-key misses)", Cacheline},
		{"retrain-tail", "Retrain tail: hot-write writer latency with background retraining on and off", RetrainTail},
		{"shard-scaling", "Shard scaling: CDF-partitioned front-end vs unsharded, threads x shards x datasets", ShardScaling},
		{"large-scale", "Large tier: paper-scale per-dataset runs (read/balanced/hot-write) with GC telemetry", LargeScale},
		{"ablation-retrain", "Ablation: ALT hot-write with retraining on/off", AblationRetrain},
		{"ablation-gap", "Ablation: ALT gap factor sweep, balanced", AblationGap},
		{"ablation-writeback", "Ablation: ALT write-back scheme on/off", AblationWriteback},
		{"wal-commit", "WAL group commit: commits/s vs fsyncs/s per sync policy x writers, plus replay speed", WALCommit},
		{"net-path", "Net path: pipelined protocol loop + cross-connection coalescing over TCP, depth and connection sweeps", NetPath},
	}
}

// ByID resolves an experiment id ("fig7" expands to fig7a..e via the
// caller; here ids are exact).
func ByID(id string) (Experiment, bool) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// --- helpers --------------------------------------------------------------

func newTable(out io.Writer) *tabwriter.Writer {
	return tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
}

func us(d time.Duration) string {
	return fmt.Sprintf("%.2f", float64(d.Nanoseconds())/1e3)
}

func header(p Params, title string) {
	fmt.Fprintf(p.Out, "\n== %s ==\n(keys=%d threads=%d ops=%d seed=%d)\n",
		title, p.Keys, p.Threads, p.Ops, p.Seed)
}

func runRow(p Params, tw *tabwriter.Writer, f NamedFactory, cfg Config) Result {
	if cfg.Duration == 0 {
		cfg.Duration = p.Duration
	}
	r := Run(f.New, cfg)
	r.Index = f.Name // variant factories share an engine Name; keep the row label
	p.record(r)
	fmt.Fprintf(tw, "%s\t%s\t%.2f\t%s\t%s\t%s\n",
		f.Name, cfg.Dataset, r.Mops, us(r.P50), us(r.P99), us(r.P999))
	return r
}

// --- Table I ----------------------------------------------------------------

// Table1 reproduces the motivation table: the five baselines under the
// read-write-balanced workload on libio and osm.
func Table1(p Params) {
	p = p.withDefaults()
	header(p, "Table I: throughput (Mops/s) and tail latency (us), balanced workload")
	tw := newTable(p.Out)
	fmt.Fprintln(tw, "Index\tDataset\tMops\tP50us\tP99us\tP99.9us")
	for _, f := range Competitors() {
		for _, ds := range []dataset.Name{dataset.Libio, dataset.OSM} {
			runRow(p, tw, f, Config{Dataset: ds, Keys: p.Keys, Mix: workload.Balanced,
				Threads: p.Threads, Ops: p.Ops, Seed: p.Seed})
		}
	}
	tw.Flush()
}

// --- Fig 3 ------------------------------------------------------------------

// Fig3a prints the number of models each learned index builds per dataset.
func Fig3a(p Params) {
	p = p.withDefaults()
	header(p, "Fig 3(a): model counts after bulkloading the full dataset")
	tw := newTable(p.Out)
	fmt.Fprintln(tw, "Dataset\tXIndex groups\tFINEdex models\tALT models")
	for _, ds := range dataset.Names() {
		counts := map[string]int64{}
		for _, f := range []NamedFactory{XIndexWith(0), FINEdexWith(0), ALT()} {
			ix, _ := BuildOnly(f.New, ds, p.Keys, 1, p.Seed)
			if st, ok := ix.(index.Stats); ok {
				m := st.StatsMap()
				if v, ok := m["models"]; ok {
					counts[f.Name] = v
				} else {
					counts[f.Name] = m["groups"]
				}
			}
			CloseIndex(ix)
		}
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\n", ds,
			counts["XIndex"], counts["FINEdex"], counts["ALT-index"])
	}
	tw.Flush()
}

// Fig3b sweeps the error bound of FINEdex and XIndex under the read-only
// workload (their throughput peaks near 32-64 and collapses past it).
func Fig3b(p Params) {
	p = p.withDefaults()
	header(p, "Fig 3(b): read-only throughput vs error bound (osm)")
	tw := newTable(p.Out)
	fmt.Fprintln(tw, "ErrBound\tFINEdex Mops\tXIndex Mops")
	for _, eb := range []int{8, 16, 32, 64, 128, 256, 512} {
		cfg := Config{Dataset: dataset.OSM, Keys: p.Keys, Mix: workload.ReadOnly,
			Threads: p.Threads, Ops: p.Ops, Seed: p.Seed}
		fr := Run(FINEdexWith(eb).New, cfg)
		xr := Run(XIndexWith(eb).New, cfg)
		fmt.Fprintf(tw, "%d\t%.2f\t%.2f\n", eb, fr.Mops, xr.Mops)
	}
	tw.Flush()
}

// --- Fig 4 ------------------------------------------------------------------

// Fig4 compares the three segmentation algorithms: segments produced and
// single-thread segmentation time on identical data with the same ε.
func Fig4(p Params) {
	p = p.withDefaults()
	header(p, "Fig 4: segmentation algorithms at eps = keys/1000")
	tw := newTable(p.Out)
	fmt.Fprintln(tw, "Dataset\tAlgo\tSegments\tTime(ms)\tMaxErr<=2eps")
	for _, ds := range dataset.Names() {
		keys := dataset.Generate(ds, p.Keys, p.Seed)
		eps := float64(p.Keys) / 1000
		for _, algo := range []struct {
			name string
			run  func([]uint64, float64) []gpl.Segment
		}{
			{"GPL", gpl.Partition},
			{"ShrinkingCone", gpl.ShrinkingCone},
			{"LPA", gpl.LPA},
		} {
			t0 := time.Now()
			segs := algo.run(keys, eps)
			dt := time.Since(t0)
			within := true
			off := 0
			for _, s := range segs {
				if gpl.MaxError(keys[off:off+s.N], s) > 2*eps {
					within = false
				}
				off += s.N
			}
			fmt.Fprintf(tw, "%s\t%s\t%d\t%.1f\t%v\n",
				ds, algo.name, len(segs), float64(dt.Microseconds())/1e3, within)
		}
	}
	tw.Flush()
}

// --- Fig 6 ------------------------------------------------------------------

func epsSweep(keys int) []int {
	base := keys / 1000
	if base < 16 {
		base = 16
	}
	return []int{base / 16, base / 4, base, base * 4, base * 16}
}

// Fig6a prints ALT's GPL model count against the error bound, showing the
// inverse relation of Eq. (1).
func Fig6a(p Params) {
	p = p.withDefaults()
	header(p, "Fig 6(a): ALT model count vs error bound")
	tw := newTable(p.Out)
	fmt.Fprintln(tw, "Dataset\tErrBound\tModels\tART keys")
	for _, ds := range dataset.Names() {
		for _, eb := range epsSweep(p.Keys) {
			f := ALTWith("ALT-index", core.Options{ErrorBound: eb})
			ix, _ := BuildOnly(f.New, ds, p.Keys, 1, p.Seed)
			st := ix.(index.Stats).StatsMap()
			fmt.Fprintf(tw, "%s\t%d\t%d\t%d\n", ds, eb, st["models"], st["art_keys"])
		}
	}
	tw.Flush()
}

// Fig6b sweeps ALT's error bound under the read-only workload — the
// "stable area" around the recommended keys/1000 (Eq. 4).
func Fig6b(p Params) {
	p = p.withDefaults()
	header(p, "Fig 6(b): ALT read-only throughput vs error bound")
	tw := newTable(p.Out)
	fmt.Fprintln(tw, "Dataset\tErrBound\tMops")
	for _, ds := range dataset.Names() {
		for _, eb := range epsSweep(p.Keys) {
			f := ALTWith("ALT-index", core.Options{ErrorBound: eb})
			r := Run(f.New, Config{Dataset: ds, Keys: p.Keys, Mix: workload.ReadOnly,
				Threads: p.Threads, Ops: p.Ops, Seed: p.Seed})
			fmt.Fprintf(tw, "%s\t%d\t%.2f\n", ds, eb, r.Mops)
		}
	}
	tw.Flush()
}

// --- Fig 7 ------------------------------------------------------------------

// figMix builds the Fig 7 experiment for one workload mix: all six indexes
// across the four datasets.
func figMix(mix workload.Mix) func(Params) {
	return func(p Params) {
		p = p.withDefaults()
		header(p, fmt.Sprintf("Fig 7: %s workload, throughput and tail latency", mix.Name))
		tw := newTable(p.Out)
		fmt.Fprintln(tw, "Index\tDataset\tMops\tP50us\tP99us\tP99.9us")
		for _, f := range All() {
			for _, ds := range dataset.Names() {
				runRow(p, tw, f, Config{Dataset: ds, Keys: p.Keys, Mix: mix,
					Threads: p.Threads, Ops: p.Ops, Seed: p.Seed})
			}
		}
		tw.Flush()
	}
}

// --- Fig 8 ------------------------------------------------------------------

// Fig8a bulkloads half of each dataset, inserts the rest, and reports the
// retained memory of every index.
func Fig8a(p Params) {
	p = p.withDefaults()
	header(p, "Fig 8(a): memory overhead (MB) after inserting the remainder")
	tw := newTable(p.Out)
	fmt.Fprintln(tw, "Index\tDataset\tMB\tBytes/key")
	for _, f := range All() {
		for _, ds := range dataset.Names() {
			r := Run(f.New, Config{Dataset: ds, Keys: p.Keys, Mix: workload.WriteOnly,
				Threads: p.Threads, Ops: p.Keys / 2, Seed: p.Seed})
			fmt.Fprintf(tw, "%s\t%s\t%.1f\t%.1f\n", f.Name, ds,
				float64(r.Mem)/1e6, float64(r.Mem)/float64(r.Len))
		}
	}
	tw.Flush()
}

// Fig8b runs the hot-write workload: a consecutive key range is reserved
// and inserted after init, repeatedly triggering retraining.
func Fig8b(p Params) {
	p = p.withDefaults()
	header(p, "Fig 8(b): hot-write throughput (consecutive reserved range)")
	tw := newTable(p.Out)
	fmt.Fprintln(tw, "Index\tDataset\tMops\tP50us\tP99us\tP99.9us")
	for _, f := range All() {
		for _, ds := range dataset.Names() {
			runRow(p, tw, f, Config{Dataset: ds, Keys: p.Keys, Mix: workload.WriteOnly,
				Hot: true, Threads: p.Threads, Ops: p.Keys / 10, Seed: p.Seed})
		}
	}
	tw.Flush()
}

// Fig8c runs the 100-key short-scan workload.
func Fig8c(p Params) {
	p = p.withDefaults()
	header(p, "Fig 8(c): scan throughput (100-key scans, Mscans/s x10^-1)")
	tw := newTable(p.Out)
	fmt.Fprintln(tw, "Index\tDataset\tMops\tP50us\tP99us\tP99.9us")
	scanOps := p.Ops / 20
	if scanOps < 10_000 {
		scanOps = 10_000
	}
	for _, f := range All() {
		for _, ds := range dataset.Names() {
			runRow(p, tw, f, Config{Dataset: ds, Keys: p.Keys, Mix: workload.ScanOnly,
				Threads: p.Threads, Ops: scanOps, Seed: p.Seed})
		}
	}
	tw.Flush()
}

// Fig8d sweeps the bulkload (init) ratio on osm under read-only load.
func Fig8d(p Params) {
	p = p.withDefaults()
	header(p, "Fig 8(d): read throughput vs init ratio (osm)")
	tw := newTable(p.Out)
	fmt.Fprintln(tw, "InitRatio\t"+joinNames("\t"))
	for _, ratio := range []float64{0.2, 0.4, 0.6, 0.8, 1.0} {
		fmt.Fprintf(tw, "%.1f", ratio)
		for _, f := range All() {
			r := Run(f.New, Config{Dataset: dataset.OSM, Keys: p.Keys,
				InitRatio: ratio, Mix: workload.ReadOnly,
				Threads: p.Threads, Ops: p.Ops, Seed: p.Seed})
			fmt.Fprintf(tw, "\t%.2f", r.Mops)
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
}

// Fig8e sweeps the zipfian theta on osm under read-only load.
func Fig8e(p Params) {
	p = p.withDefaults()
	header(p, "Fig 8(e): throughput vs zipf theta (osm, read-only)")
	tw := newTable(p.Out)
	fmt.Fprintln(tw, "Theta\t"+joinNames("\t"))
	for _, theta := range []float64{0.5, 0.7, 0.9, 0.99, 1.1, 1.3} {
		fmt.Fprintf(tw, "%.2f", theta)
		for _, f := range All() {
			r := Run(f.New, Config{Dataset: dataset.OSM, Keys: p.Keys,
				Mix: workload.ReadOnly, Theta: theta,
				Threads: p.Threads, Ops: p.Ops, Seed: p.Seed})
			fmt.Fprintf(tw, "\t%.2f", r.Mops)
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
}

func joinNames(sep string) string {
	s := ""
	for i, f := range All() {
		if i > 0 {
			s += sep
		}
		s += f.Name
	}
	return s
}

// --- Fig 9 ------------------------------------------------------------------

// Fig9 sweeps the thread count under the balanced workload.
func Fig9(p Params) {
	p = p.withDefaults()
	header(p, "Fig 9: scalability under the balanced workload")
	tw := newTable(p.Out)
	fmt.Fprintln(tw, "Dataset\tThreads\t"+joinNames("\t"))
	threads := []int{1, 2, 4, 8, 16, 32}
	for _, ds := range dataset.Names() {
		for _, th := range threads {
			if th > p.Threads {
				break
			}
			fmt.Fprintf(tw, "%s\t%d", ds, th)
			for _, f := range All() {
				r := Run(f.New, Config{Dataset: ds, Keys: p.Keys, Mix: workload.Balanced,
					Threads: th, Ops: p.Ops, Seed: p.Seed})
				fmt.Fprintf(tw, "\t%.2f", r.Mops)
			}
			fmt.Fprintln(tw)
		}
	}
	tw.Flush()
}

// --- Fig 10 -----------------------------------------------------------------

// altBuild builds a concrete *core.ALT over the full dataset.
func altBuild(ds dataset.Name, keys int, seed uint64, opts core.Options) *core.ALT {
	all := dataset.Generate(ds, keys, seed)
	alt := core.New(opts)
	if err := alt.Bulkload(dataset.Pairs(all)); err != nil {
		panic(err)
	}
	return alt
}

// Fig10a measures the average ART lookup length for conflict keys, with
// and without the fast pointer buffer.
func Fig10a(p Params) {
	p = p.withDefaults()
	header(p, "Fig 10(a): average ART lookup length (nodes traversed)")
	tw := newTable(p.Out)
	fmt.Fprintln(tw, "Dataset\tConflict keys\tWith FP\tWithout FP")
	for _, ds := range dataset.Names() {
		alt := altBuild(ds, p.Keys, p.Seed, core.Options{})
		keys := dataset.Generate(ds, p.Keys, p.Seed)
		var withFP, withoutFP, conflicts int
		for i := 0; i < len(keys); i += 7 {
			if l, in := alt.ARTLookupLength(keys[i], true); in {
				withFP += l
				l2, _ := alt.ARTLookupLength(keys[i], false)
				withoutFP += l2
				conflicts++
			}
		}
		if conflicts == 0 {
			fmt.Fprintf(tw, "%s\t0\t-\t-\n", ds)
			continue
		}
		fmt.Fprintf(tw, "%s\t%d\t%.2f\t%.2f\n", ds, conflicts,
			float64(withFP)/float64(conflicts), float64(withoutFP)/float64(conflicts))
	}
	tw.Flush()
}

// Fig10b counts fast pointers with and without the merge scheme.
func Fig10b(p Params) {
	p = p.withDefaults()
	header(p, "Fig 10(b): fast pointer count, merged vs unmerged")
	tw := newTable(p.Out)
	fmt.Fprintln(tw, "Dataset\tRegistered (no merge)\tStored (merged)\tSaving")
	for _, ds := range dataset.Names() {
		alt := altBuild(ds, p.Keys, p.Seed, core.Options{})
		st := alt.StatsMap()
		req, ent := st["fp_requested"], st["fp_entries"]
		saving := 0.0
		if req > 0 {
			saving = 100 * float64(req-ent) / float64(req)
		}
		fmt.Fprintf(tw, "%s\t%d\t%d\t%.1f%%\n", ds, req, ent, saving)
	}
	tw.Flush()
}

// Fig10c reports the data split between the learned layer and ART-OPT.
func Fig10c(p Params) {
	p = p.withDefaults()
	header(p, "Fig 10(c): data distribution across layers")
	tw := newTable(p.Out)
	fmt.Fprintln(tw, "Dataset\tLearned keys\tART keys\tLearned %")
	for _, ds := range dataset.Names() {
		alt := altBuild(ds, p.Keys, p.Seed, core.Options{})
		st := alt.StatsMap()
		l, a := st["learned_keys"], st["art_keys"]
		fmt.Fprintf(tw, "%s\t%d\t%d\t%.1f%%\n", ds, l, a, 100*float64(l)/float64(l+a))
	}
	tw.Flush()
}

// Fig10d compares bulkload times.
func Fig10d(p Params) {
	p = p.withDefaults()
	header(p, "Fig 10(d): bulkload time (full dataset)")
	tw := newTable(p.Out)
	fmt.Fprintln(tw, "Dataset\tALT(ms)\tALEX+(ms)\tLIPP+(ms)")
	facts := []NamedFactory{ALT()}
	for _, f := range Competitors() {
		if f.Name == "ALEX+" || f.Name == "LIPP+" {
			facts = append(facts, f)
		}
	}
	for _, ds := range dataset.Names() {
		fmt.Fprintf(tw, "%s", ds)
		for _, f := range facts {
			ix, dt := BuildOnly(f.New, ds, p.Keys, 1, p.Seed)
			CloseIndex(ix)
			fmt.Fprintf(tw, "\t%.1f", float64(dt.Microseconds())/1e3)
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
}

// --- batched operations ------------------------------------------------------

// BatchSweep measures what batching buys: every index driven through the
// batched API (index.BatchOf — native for ALT, the per-key loop for the
// baselines) across the batch-size sweep, on fb and osm, for a zipfian
// read-only stream and the balanced mix. The "ALT-loop" row forces ALT
// through the loop fallback, so native-vs-fallback is read directly off
// adjacent rows.
func BatchSweep(p Params) {
	p = p.withDefaults()
	header(p, "Batched throughput (Mops/s) vs batch size")
	fmt.Fprintf(p.Out, "(batch sizes %v; ALT-loop = ALT forced through the per-key fallback)\n", p.BatchSizes)
	for _, mix := range []workload.Mix{workload.ReadOnly, workload.Balanced} {
		fmt.Fprintf(p.Out, "\n-- %s --\n", mix.Name)
		tw := newTable(p.Out)
		fmt.Fprint(tw, "Index\tDataset")
		for _, bs := range p.BatchSizes {
			fmt.Fprintf(tw, "\tB=%d", bs)
		}
		fmt.Fprintln(tw)
		rows := []struct {
			f    NamedFactory
			loop bool
		}{{ALTWith("ALT-index", core.Options{}), false}, {ALTWith("ALT-loop", core.Options{}), true}}
		for _, f := range Competitors() {
			rows = append(rows, struct {
				f    NamedFactory
				loop bool
			}{f, true})
		}
		for _, row := range rows {
			for _, ds := range []dataset.Name{dataset.FB, dataset.OSM} {
				fmt.Fprintf(tw, "%s\t%s", row.f.Name, ds)
				for _, bs := range p.BatchSizes {
					r := Run(row.f.New, Config{Dataset: ds, Keys: p.Keys, Mix: mix,
						Threads: p.Threads, Ops: p.Ops, Seed: p.Seed,
						BatchSize: bs, LoopBatch: row.loop})
					fmt.Fprintf(tw, "\t%.2f", r.Mops)
				}
				fmt.Fprintln(tw)
			}
		}
		tw.Flush()
	}
}

// Cacheline is the memory-layout proof: single-thread point-probe cost
// across fit-easy (libio) and fit-hard (osm, longlat) datasets, where the
// dominant cost is cache lines touched per probe, not model arithmetic.
// Three rows per dataset:
//
//   - ALT-B1: per-key Get, zipfian read-only, one thread — the layout's
//     raw line count per probe (key+meta in one block, value line on hit).
//   - ALT-B64: GetBatch with B=64 — adds the post-router block prefetch,
//     which only pays off when there is independent work to overlap.
//   - ALT-miss: hand-rolled probes of provably-absent keys (midpoints
//     between consecutive loaded keys, full dataset loaded) in pseudorandom
//     order — the path the overflow fingerprint sidecar shortcuts: a
//     conflict slot whose ART probe would miss.
//
// Single-threaded on purpose: ns/op here is a cache-line proxy that
// multi-thread scheduling noise would bury.
func Cacheline(p Params) {
	p = p.withDefaults()
	header(p, "Cacheline: single-thread point-probe cost (ns/op is the layout proxy)")
	tw := newTable(p.Out)
	fmt.Fprintln(tw, "Row\tDataset\tMops\tns/op\tP50us\tP99us")
	emit := func(r Result) {
		p.record(r)
		nsop := 0.0
		if r.Ops > 0 {
			nsop = float64(r.Elapsed.Nanoseconds()) / float64(r.Ops)
		}
		fmt.Fprintf(tw, "%s\t%s\t%.2f\t%.1f\t%s\t%s\n",
			r.Index, r.Dataset, r.Mops, nsop, us(r.P50), us(r.P99))
	}
	for _, ds := range []dataset.Name{dataset.Libio, dataset.OSM, dataset.LongLat} {
		for _, row := range []struct {
			name  string
			batch int
		}{{"ALT-B1", 1}, {"ALT-B64", 64}} {
			r := Run(ALTWith(row.name, core.Options{}).New, Config{
				Dataset: ds, Keys: p.Keys, Mix: workload.ReadOnly,
				Threads: 1, Ops: p.Ops, Seed: p.Seed,
				BatchSize: row.batch, Duration: p.Duration})
			r.Index = row.name
			emit(r)
		}
		emit(cachelineMiss(p, ds))
	}
	tw.Flush()
}

// cachelineMiss times lookups of keys that are provably absent: the full
// dataset is bulkloaded, so any strict midpoint between two consecutive
// loaded keys cannot be present. Probing them in pseudorandom order makes
// every probe a cold predicted slot plus — without the sidecar — a full
// ART traversal ending in a miss.
func cachelineMiss(p Params, ds dataset.Name) Result {
	keys := dataset.Generate(ds, p.Keys, p.Seed)
	alt := core.New(core.Options{})
	if err := alt.Bulkload(dataset.Pairs(keys)); err != nil {
		panic(fmt.Sprintf("bench: cacheline bulkload: %v", err))
	}
	defer alt.Close()
	probes := make([]uint64, 0, len(keys)-1)
	for i := 0; i+1 < len(keys); i++ {
		if keys[i+1]-keys[i] > 1 {
			probes = append(probes, keys[i]+(keys[i+1]-keys[i])/2)
		}
	}
	// Fisher-Yates with a seeded xorshift so the probe order is
	// pseudorandom but reproducible.
	x := p.Seed*0x9E3779B97F4A7C15 + 1
	for i := len(probes) - 1; i > 0; i-- {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := int(x % uint64(i+1))
		probes[i], probes[j] = probes[j], probes[i]
	}
	var dl time.Time
	if p.Duration > 0 {
		dl = time.Now().Add(p.Duration)
	}
	done := 0
	t0 := time.Now()
	for i := 0; p.Duration > 0 || i < p.Ops; i++ {
		if !dl.IsZero() && i&63 == 0 && time.Now().After(dl) {
			break
		}
		if _, ok := alt.Get(probes[i%len(probes)]); ok {
			panic("bench: cacheline miss probe found an absent key")
		}
		done++
	}
	elapsed := time.Since(t0)
	return Result{
		Index:   "ALT-miss",
		Dataset: ds,
		Mix:     "absent",
		Threads: 1,
		Ops:     done,
		Elapsed: elapsed,
		Mops:    float64(done) / elapsed.Seconds() / 1e6,
		Mem:     alt.MemoryUsage(),
		Len:     alt.Len(),
	}
}

// RetrainTail tracks the writer tail of the asynchronous retraining
// pipeline: the Fig 8(b) hot-write workload (a reserved consecutive range
// inserted after init, repeatedly tripping §III-F) run against ALT with the
// background worker pool (the default) and with retraining disabled (the
// no-rebuild lower bound). The P99/P99.9 columns are the point: with the
// rebuild off the writer's critical path the two tails should be
// indistinguishable. FreezeMax is the longest single freeze window; Spins
// counts writer backoff iterations (writers parked on frozen slots).
func RetrainTail(p Params) {
	p = p.withDefaults()
	header(p, "Retrain tail: hot-write writer latency with background retraining on and off")
	tw := newTable(p.Out)
	fmt.Fprintln(tw, "Variant\tDataset\tMops\tP50us\tP99us\tP99.9us\tRetrains\tDrops\tFreezeMax(us)\tSpins")
	variants := []NamedFactory{
		ALTWith("ALT-async", core.Options{}),
		ALTWith("ALT-noretrain", core.Options{DisableRetraining: true}),
	}
	for _, f := range variants {
		for _, ds := range []dataset.Name{dataset.Libio, dataset.OSM} {
			r := Run(f.New, Config{Dataset: ds, Keys: p.Keys, Mix: workload.WriteOnly,
				Hot: true, Threads: p.Threads, Ops: p.Keys / 10, Seed: p.Seed})
			r.Index = f.Name
			p.record(r)
			fmt.Fprintf(tw, "%s\t%s\t%.2f\t%s\t%s\t%s\t%d\t%d\t%.1f\t%d\n",
				f.Name, ds, r.Mops, us(r.P50), us(r.P99), us(r.P999),
				r.Stats["retrains"], r.Stats["retrain_drops"],
				float64(r.Stats["retrain_freeze_max_ns"])/1e3, r.Stats["writer_spins"])
		}
	}
	tw.Flush()
}

// --- shard scaling -----------------------------------------------------------

// shardSweepCounts is the shard-count axis of ShardScaling: 0 is the
// unsharded baseline, the rest are sharded variants, extended with
// p.Shards when the caller asks for a count the default sweep misses.
func shardSweepCounts(p Params) []int {
	counts := []int{0, 2, 4, 8}
	if p.Shards > 1 {
		seen := false
		for _, s := range counts {
			if s == p.Shards {
				seen = true
			}
		}
		if !seen {
			counts = append(counts, p.Shards)
		}
	}
	return counts
}

// shardSweepThreads is the thread axis: powers of two up to and always
// including p.Threads.
func shardSweepThreads(p Params) []int {
	var ts []int
	for _, th := range []int{1, 2, 4, 8, 16, 32} {
		if th < p.Threads {
			ts = append(ts, th)
		}
	}
	return append(ts, p.Threads)
}

// ShardScaling measures what range-partitioning buys under a read-write
// workload with hot inserts (the Fig 8(b) reserved range, which keeps the
// retraining pipeline busy): the unsharded baseline against the sharded
// front-end across shard counts, thread counts and datasets. Sharding's
// wins are structural, not just parallel — each shard retrains models a
// factor S smaller (eps is per-shard, so freezes are shorter and hit a
// fraction of the keyspace) — so the sharded rows can lead even at low
// thread counts. The final table reports per-shard-count speedup over the
// unsharded baseline at the maximum thread count, plus the skew monitor's
// imbalance ratio (100 = perfectly balanced shards).
func ShardScaling(p Params) {
	p = p.withDefaults()
	header(p, "Shard scaling: CDF-partitioned front-end vs unsharded baseline")
	counts := shardSweepCounts(p)
	threads := shardSweepThreads(p)
	datasets := []dataset.Name{dataset.Libio, dataset.OSM}

	tw := newTable(p.Out)
	fmt.Fprintln(tw, "Variant\tDataset\tThreads\tMops\tP50us\tP99us\tP99.9us\tRetrains\tFreezeMax(us)\tSpins\tImbal")
	// best[dataset][shardCount] = Mops at the max thread count.
	best := map[dataset.Name]map[int]float64{}
	for _, ds := range datasets {
		best[ds] = map[int]float64{}
		for _, s := range counts {
			f := ALT()
			if s > 0 {
				f = ALTSharded(fmt.Sprintf("ALT-S%d", s), s, core.Options{})
			} else {
				f.Name = "ALT-S0"
			}
			for _, th := range threads {
				// Retrain scheduling makes single runs noisy (the same
				// config can retrain 5x or 150x); take the median of three
				// runs so the table reflects the configuration, not one
				// lucky rebuild schedule.
				const reps = 3
				runs := make([]Result, 0, reps)
				for rep := 0; rep < reps; rep++ {
					runs = append(runs, Run(f.New, Config{Dataset: ds, Keys: p.Keys,
						Mix: workload.Balanced, Threads: th, Ops: p.Ops,
						Seed: p.Seed + uint64(rep)}))
				}
				sort.Slice(runs, func(i, j int) bool { return runs[i].Mops < runs[j].Mops })
				r := runs[reps/2]
				r.Index = f.Name
				p.record(r)
				imbal := "-"
				if v, ok := r.Stats["shard_imbalance_x100"]; ok {
					imbal = fmt.Sprintf("%.2f", float64(v)/100)
				}
				fmt.Fprintf(tw, "%s\t%s\t%d\t%.2f\t%s\t%s\t%s\t%d\t%.1f\t%d\t%s\n",
					f.Name, ds, th, r.Mops, us(r.P50), us(r.P99), us(r.P999),
					r.Stats["retrains"], float64(r.Stats["retrain_freeze_max_ns"])/1e3,
					r.Stats["writer_spins"], imbal)
				if th == p.Threads {
					best[ds][s] = r.Mops
				}
			}
		}
	}
	tw.Flush()

	fmt.Fprintf(p.Out, "\n-- speedup vs unsharded at %d threads --\n", p.Threads)
	tw = newTable(p.Out)
	fmt.Fprintln(tw, "Dataset\tShards\tMops\tSpeedup")
	for _, ds := range datasets {
		base := best[ds][0]
		for _, s := range counts {
			if s == 0 {
				fmt.Fprintf(tw, "%s\t%d\t%.2f\t1.00x\n", ds, 1, base)
				continue
			}
			fmt.Fprintf(tw, "%s\t%d\t%.2f\t%.2fx\n", ds, s, best[ds][s], best[ds][s]/base)
		}
	}
	tw.Flush()

	// Skew monitor under adversarial traffic: the hot-write reserved range
	// lands entirely inside one shard, the worst case for a fixed-boundary
	// partition. The table shows the monitor flagging it (imbalance = the
	// hottest shard's share over the mean, 1.00 = perfectly even) — the
	// operator signal that a re-bulkload is due.
	fmt.Fprintf(p.Out, "\n-- skew monitor, hot-range writes at %d threads (osm) --\n", p.Threads)
	tw = newTable(p.Out)
	fmt.Fprintln(tw, "Variant\tMops\tImbalance\tHotShardOps")
	for _, s := range counts {
		if s == 0 {
			continue
		}
		// The -hot suffix keeps these adversarial rows out of the uniform
		// scaling grid when results/summarize.py parses the JSON.
		f := ALTSharded(fmt.Sprintf("ALT-S%d-hot", s), s, core.Options{})
		r := Run(f.New, Config{Dataset: dataset.OSM, Keys: p.Keys, Mix: workload.Balanced,
			Hot: true, Threads: p.Threads, Ops: p.Ops, Seed: p.Seed})
		r.Index = f.Name
		p.record(r)
		var hot int64
		for i := 0; i < s; i++ {
			if v := r.Stats[fmt.Sprintf("shard_ops_%02d", i)]; v > hot {
				hot = v
			}
		}
		fmt.Fprintf(tw, "%s\t%.2f\t%.2f\t%d\n",
			f.Name, r.Mops, float64(r.Stats["shard_imbalance_x100"])/100, hot)
	}
	tw.Flush()
}

// --- large tier --------------------------------------------------------------

// LargeScale is the paper-scale bench tier: SOSD-style per-dataset rows
// (one table row per dataset x access pattern) at whatever -keys the
// caller set — cmd/altbench's -tier large defaults it to 20M, and ≥50M
// is an explicit -keys opt-in. Three rows per dataset:
//
//   - ALT-read: zipfian read-only — the GC-quiet floor; pauses here are
//     pure heap-size cost (marking the resident index), so they expose
//     the pointer-scan footprint of the slot storage.
//   - ALT-balanced: the §IV balanced mix — steady allocation from both
//     layers plus occasional retraining.
//   - ALT-hotwrite: the Fig 8(b) reserved consecutive range, inserted
//     hot — retraining churns whole model tables, which is precisely the
//     allocation stream epoch-reclaimed arenas exist to recycle. This is
//     the row where pre/post GC pause-per-second is compared.
//
// Every row prints the collector columns next to the throughput ones, so
// the trade is read off one line; the JSON artifact (cmd/altbench -json)
// carries the full GCTelemetry per row.
func LargeScale(p Params) {
	p = p.withDefaults()
	header(p, "Large tier: paper-scale per-dataset runs with GC telemetry")
	tw := newTable(p.Out)
	fmt.Fprintln(tw, "Row\tDataset\tMops\tP50us\tP99us\tGCs\tGCp50us\tGCp99us\tGCmaxus\tPause/s us\tHeapMB\tAllocMB/s\tScanMB")
	emit := func(name string, r Result) {
		r.Index = name
		p.record(r)
		g := r.GC
		if g == nil {
			g = &GCTelemetry{}
		}
		allocRate := 0.0
		if s := r.Elapsed.Seconds(); s > 0 {
			allocRate = float64(g.AllocBytes) / s / 1e6
		}
		fmt.Fprintf(tw, "%s\t%s\t%.2f\t%s\t%s\t%d\t%.1f\t%.1f\t%.1f\t%.1f\t%.0f\t%.0f\t%.0f\n",
			name, r.Dataset, r.Mops, us(r.P50), us(r.P99),
			g.Cycles, float64(g.PauseP50Ns)/1e3, float64(g.PauseP99Ns)/1e3,
			float64(g.PauseMaxNs)/1e3, g.PausePerSecNs/1e3,
			float64(g.HeapInuseBytes)/1e6, allocRate, float64(g.ScanBytes)/1e6)
	}
	for _, ds := range []dataset.Name{dataset.Libio, dataset.OSM} {
		rows := []struct {
			name string
			cfg  Config
		}{
			{"ALT-read", Config{Dataset: ds, Keys: p.Keys, Mix: workload.ReadOnly,
				Threads: p.Threads, Ops: p.Ops, Seed: p.Seed, Duration: p.Duration}},
			{"ALT-balanced", Config{Dataset: ds, Keys: p.Keys, Mix: workload.Balanced,
				Threads: p.Threads, Ops: p.Ops, Seed: p.Seed, Duration: p.Duration}},
			{"ALT-hotwrite", Config{Dataset: ds, Keys: p.Keys, Mix: workload.WriteOnly,
				Hot: true, Threads: p.Threads, Ops: p.Keys / 10, Seed: p.Seed,
				Duration: p.Duration}},
		}
		for _, row := range rows {
			emit(row.name, Run(ALT().New, row.cfg))
		}
	}
	tw.Flush()
}

// --- ablations ---------------------------------------------------------------

// AblationRetrain contrasts ALT with retraining enabled vs disabled under
// the hot-write workload (the design choice §III-F motivates).
func AblationRetrain(p Params) {
	p = p.withDefaults()
	header(p, "Ablation: dynamic retraining under hot writes")
	tw := newTable(p.Out)
	fmt.Fprintln(tw, "Variant\tDataset\tMops\tP50us\tP99us\tP99.9us")
	variants := []NamedFactory{
		ALTWith("ALT-index", core.Options{}),
		ALTWith("ALT-noretrain", core.Options{DisableRetraining: true}),
	}
	for _, f := range variants {
		for _, ds := range dataset.Names() {
			runRow(p, tw, f, Config{Dataset: ds, Keys: p.Keys, Mix: workload.WriteOnly,
				Hot: true, Threads: p.Threads, Ops: p.Keys / 10, Seed: p.Seed})
		}
	}
	tw.Flush()
}

// AblationGap sweeps the learned layer's gap factor under the balanced
// workload: more gaps absorb more inserts in place but cost memory.
func AblationGap(p Params) {
	p = p.withDefaults()
	header(p, "Ablation: gap factor, balanced workload (osm)")
	tw := newTable(p.Out)
	fmt.Fprintln(tw, "GapFactor\tMops\tMem MB\tLearned %")
	for _, g := range []float64{1.0, 1.25, 1.5, 2.0, 3.0} {
		f := ALTWith("ALT-index", core.Options{GapFactor: g})
		r := Run(f.New, Config{Dataset: dataset.OSM, Keys: p.Keys, Mix: workload.Balanced,
			Threads: p.Threads, Ops: p.Ops, Seed: p.Seed})
		l, a := r.Stats["learned_keys"], r.Stats["art_keys"]
		fmt.Fprintf(tw, "%.2f\t%.2f\t%.1f\t%.1f%%\n", g, r.Mops,
			float64(r.Mem)/1e6, 100*float64(l)/float64(l+a))
	}
	tw.Flush()
}

// AblationWriteback contrasts the Algorithm-2 write-back scheme on/off
// under a read-heavy workload with removals re-exposing ART residents.
func AblationWriteback(p Params) {
	p = p.withDefaults()
	header(p, "Ablation: write-back scheme, read-heavy (osm)")
	tw := newTable(p.Out)
	fmt.Fprintln(tw, "Variant\tMops\tP99us")
	variants := []NamedFactory{
		ALTWith("ALT-index", core.Options{ErrorBound: p.Keys / 4000}),
		ALTWith("ALT-nowriteback", core.Options{ErrorBound: p.Keys / 4000, DisableWriteBack: true}),
	}
	for _, f := range variants {
		r := Run(f.New, Config{Dataset: dataset.OSM, Keys: p.Keys, Mix: workload.ReadHeavy,
			Threads: p.Threads, Ops: p.Ops, Seed: p.Seed})
		fmt.Fprintf(tw, "%s\t%.2f\t%s\n", f.Name, r.Mops, us(r.P99))
	}
	tw.Flush()
}
