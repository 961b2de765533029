package bench

import (
	"fmt"
	"text/tabwriter"
	"time"

	"altindex/internal/core"
	"altindex/internal/dataset"
	"altindex/internal/gpl"
	"altindex/internal/workload"
	"altindex/internal/xrand"
)

// latency follows the row-name header of the tables latencyRow prints.
const latency = "Dataset\tMops\tP50us\tP99us\tP99.9us"

var (
	libioOSM = []dataset.Name{dataset.Libio, dataset.OSM}
	osmOnly  = []dataset.Name{dataset.OSM}

	altNoRetrain = ALTWith("ALT-noretrain", core.Options{DisableRetraining: true})

	// threadsAxis is 1, 2, 4, ... up to p.Threads.
	threadsAxis = &axis{name: "threads", format: "%.0f", set: setThreads, values: func(p Params) []float64 {
		var ts []float64
		for th := 1; th <= min(p.Threads, 32); th *= 2 {
			ts = append(ts, float64(th))
		}
		return ts
	}}
	// epsAxis sweeps ALT's error bound around the recommended keys/1000 (Eq. 4).
	epsAxis = &axis{name: "eps", format: "%.0f", values: func(p Params) []float64 {
		base := float64(max(p.Keys/1000, 16))
		return []float64{base / 16, base / 4, base, base * 4, base * 16}
	}}
)

func setThreads(c *Config, v float64) { c.Threads = int(v) }

// hotWrite is the Fig 8(b) workload: a consecutive key range (a tenth of
// the dataset) is reserved and inserted after init, repeatedly triggering
// retraining.
func hotWrite(p Params, c *Config) {
	c.Mix, c.Hot, c.Ops = workload.WriteOnly, true, p.Keys/10
}

func altAtEps(_ Params, eb float64) []variant {
	return asRows(ALTWith("ALT-index", core.Options{ErrorBound: int(eb)}))
}

// Experiments returns every experiment in paper order.
func Experiments() []Experiment {
	return []Experiment{
		{ID: "table1", Title: "Table I: baseline throughput & P99.9, balanced, libio+osm",
			head: "Table I: throughput (Mops/s) and tail latency (us), balanced workload",
			grids: []grid{{rows: asRows(Competitors()...), datasets: libioOSM,
				cfg: Config{Mix: workload.Balanced}, cols: "Index\t" + latency, row: latencyRow}}},

		{ID: "fig3a", Title: "Fig 3(a): model counts of XIndex/FINEdex vs ALT",
			head: "Fig 3(a): model counts after bulkloading the full dataset",
			grids: []grid{{rows: asRows(XIndexWith(0), FINEdexWith(0), ALT()), build: true, order: "dai",
				cols: "Dataset", row: datasetLabel, heads: "\tXIndex groups\tFINEdex models\tALT models",
				// XIndex counts groups where the others count models.
				pivot: func(c cell) string { return fmt.Sprint(c.Stats["models"] + c.Stats["groups"]) }}}},

		// The error bound of FINEdex and XIndex under the read-only workload
		// (their throughput peaks near 32-64 and collapses past it).
		{ID: "fig3b", Title: "Fig 3(b): FINEdex/XIndex read-only throughput vs error bound",
			head: "Fig 3(b): read-only throughput vs error bound (osm)",
			grids: []grid{{datasets: osmOnly, cfg: Config{Mix: workload.ReadOnly}, order: "dai",
				axis: &axis{name: "eps", format: "%.0f", values: fixed(8, 16, 32, 64, 128, 256, 512)},
				rowsAt: func(_ Params, eb float64) []variant {
					return asRows(FINEdexWith(int(eb)), XIndexWith(int(eb)))
				},
				cols: "ErrBound", row: axisLabel, heads: "\tFINEdex Mops\tXIndex Mops", pivot: mops}}},

		{ID: "fig4", Title: "Fig 4: GPL vs ShrinkingCone vs LPA segmentation",
			head: "Fig 4: segmentation algorithms at eps = keys/1000",
			grids: []grid{{order: "dia", cols: "Dataset\tAlgo\tSegments\tTime(ms)\tMaxErr<=2eps",
				row: func(c cell) string {
					return fmt.Sprintf("%s\t%s\t%d\t%.1f\t%v", c.Dataset, c.Index, c.Stats["segments"],
						float64(c.Elapsed.Microseconds())/1e3, c.Stats["within_2eps"] == 1)
				},
				rows: []variant{segmenter("GPL", gpl.Partition),
					segmenter("ShrinkingCone", gpl.ShrinkingCone), segmenter("LPA", gpl.LPA)}}}},

		// ALT's GPL model count against the error bound, showing the inverse
		// relation of Eq. (1).
		{ID: "fig6a", Title: "Fig 6(a): ALT model count vs error bound",
			grids: []grid{{rowsAt: altAtEps, axis: epsAxis, build: true, order: "dai",
				cols: "Dataset\tErrBound\tModels\tART keys",
				row: func(c cell) string {
					return fmt.Sprintf("%s\t%s\t%d\t%d", c.Dataset, c.Axis, c.Stats["models"], c.Stats["art_keys"])
				}}}},

		// ALT's error bound under the read-only workload — the "stable area"
		// around the recommended keys/1000.
		{ID: "fig6b", Title: "Fig 6(b): ALT read-only throughput vs error bound",
			grids: []grid{{rowsAt: altAtEps, axis: epsAxis, cfg: Config{Mix: workload.ReadOnly}, order: "dai",
				cols: "Dataset\tErrBound\tMops",
				row:  func(c cell) string { return fmt.Sprintf("%s\t%s\t%.2f", c.Dataset, c.Axis, c.Mops) }}}},

		fig7("fig7a", "Fig 7(a): read-only workload, all indexes", workload.ReadOnly),
		fig7("fig7b", "Fig 7(b): read-heavy workload, all indexes", workload.ReadHeavy),
		fig7("fig7c", "Fig 7(c): balanced workload, all indexes", workload.Balanced),
		fig7("fig7d", "Fig 7(d): write-heavy workload, all indexes", workload.WriteHeavy),
		fig7("fig7e", "Fig 7(e): write-only workload, all indexes", workload.WriteOnly),

		// Bulkloads half of each dataset, inserts the rest, and reports the
		// retained memory of every index.
		{ID: "fig8a", Title: "Fig 8(a): memory overhead after inserting the remainder",
			head: "Fig 8(a): memory overhead (MB) after inserting the remainder",
			grids: []grid{{cfg: Config{Mix: workload.WriteOnly}, cols: "Index\tDataset\tMB\tBytes/key",
				tune: func(p Params, c *Config) { c.Ops = p.Keys / 2 },
				row: func(c cell) string {
					return fmt.Sprintf("%s\t%s\t%.1f\t%.1f", c.Index, c.Dataset, float64(c.Mem)/1e6, bytesPerKey(c))
				}}}},

		{ID: "fig8b", Title: "Fig 8(b): hot-write throughput (retraining trigger)",
			head:  "Fig 8(b): hot-write throughput (consecutive reserved range)",
			grids: []grid{{tune: hotWrite, cols: "Index\t" + latency, row: latencyRow}}},

		{ID: "fig8c", Title: "Fig 8(c): short-scan throughput (100-key scans)",
			head: "Fig 8(c): scan throughput (100-key scans, Mscans/s x10^-1)",
			grids: []grid{{cfg: Config{Mix: workload.ScanOnly}, cols: "Index\t" + latency, row: latencyRow,
				tune: func(p Params, c *Config) { c.Ops = max(p.Ops/20, 10_000) }}}},

		{ID: "fig8d", Title: "Fig 8(d): read throughput vs init ratio (osm)",
			grids: []grid{{datasets: osmOnly, cfg: Config{Mix: workload.ReadOnly}, order: "dai",
				axis: &axis{name: "init", format: "%.1f", values: fixed(0.2, 0.4, 0.6, 0.8, 1.0),
					set: func(c *Config, v float64) { c.InitRatio = v }},
				cols: "InitRatio", row: axisLabel, pivot: mops}}},

		{ID: "fig8e", Title: "Fig 8(e): throughput vs zipf theta (osm)",
			head: "Fig 8(e): throughput vs zipf theta (osm, read-only)",
			grids: []grid{{datasets: osmOnly, cfg: Config{Mix: workload.ReadOnly}, order: "dai",
				axis: &axis{name: "theta", format: "%.2f", values: fixed(0.5, 0.7, 0.9, 0.99, 1.1, 1.3),
					set: func(c *Config, v float64) { c.Theta = v }},
				cols: "Theta", row: axisLabel, pivot: mops}}},

		{ID: "fig9", Title: "Fig 9: scalability 1..T threads, balanced",
			head: "Fig 9: scalability under the balanced workload",
			grids: []grid{{cfg: Config{Mix: workload.Balanced}, axis: threadsAxis, order: "dai",
				cols: "Dataset\tThreads", pivot: mops,
				row: func(c cell) string { return string(c.Dataset) + "\t" + c.Axis }}}},

		{ID: "fig10a", Title: "Fig 10(a): ART lookup length with/without fast pointers",
			head: "Fig 10(a): average ART lookup length (nodes traversed)",
			grids: []grid{{rows: []variant{{NamedFactory: ALT(), cell: artWalk}},
				cols: "Dataset\tConflict keys\tWith FP\tWithout FP",
				row: func(c cell) string {
					n := float64(c.Stats["conflicts"])
					if n == 0 {
						return fmt.Sprintf("%s\t0\t-\t-", c.Dataset)
					}
					return fmt.Sprintf("%s\t%.0f\t%.2f\t%.2f", c.Dataset, n,
						float64(c.Stats["nodes_with_fp"])/n, float64(c.Stats["nodes_without_fp"])/n)
				}}}},

		{ID: "fig10b", Title: "Fig 10(b): fast pointer count with/without merge",
			head: "Fig 10(b): fast pointer count, merged vs unmerged",
			grids: []grid{{rows: asRows(ALT()), build: true,
				cols: "Dataset\tRegistered (no merge)\tStored (merged)\tSaving",
				row: func(c cell) string {
					req, ent := c.Stats["fp_requested"], c.Stats["fp_entries"]
					return fmt.Sprintf("%s\t%d\t%d\t%.1f%%", c.Dataset, req, ent, 100*float64(req-ent)/float64(max(req, 1)))
				}}}},

		{ID: "fig10c", Title: "Fig 10(c): data split between layers",
			head: "Fig 10(c): data distribution across layers",
			grids: []grid{{rows: asRows(ALT()), build: true,
				cols: "Dataset\tLearned keys\tART keys\tLearned %",
				row: func(c cell) string {
					return fmt.Sprintf("%s\t%d\t%d\t%.1f%%", c.Dataset, c.Stats["learned_keys"], c.Stats["art_keys"], learnedPct(c))
				}}}},

		{ID: "fig10d", Title: "Fig 10(d): bulkload time ALT vs ALEX+ vs LIPP+",
			head: "Fig 10(d): bulkload time (full dataset)",
			grids: []grid{{rows: pick("ALT-index", "ALEX+", "LIPP+"), build: true, order: "dai",
				cols: "Dataset", row: datasetLabel, heads: "\tALT(ms)\tALEX+(ms)\tLIPP+(ms)", pivot: buildMs}}},

		// What batching buys: every index driven through the batched API
		// (index.BatchOf — native for ALT, the per-key loop for the baselines)
		// across the batch-size sweep, on fb and osm, for a zipfian read-only
		// stream and the balanced mix. The "ALT-loop" row forces ALT through the
		// loop fallback, so native-vs-fallback is read directly off adjacent rows.
		{ID: "batch", Title: "Batched throughput: model-grouped batch path vs per-key loop, all indexes",
			head: "Batched throughput (Mops/s) vs batch size",
			note: func(p Params) string {
				return fmt.Sprintf("(batch sizes %v; ALT-loop = ALT forced through the per-key fallback)", p.BatchSizes)
			},
			grids: []grid{batchGrid(workload.ReadOnly), batchGrid(workload.Balanced)}},

		// The memory-layout proof: single-thread point-probe cost across
		// fit-easy (libio) and fit-hard (osm, longlat) datasets, where the
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
		{ID: "cacheline", Title: "Cacheline: single-thread probe cost of the block layout (B=1, B=64, absent-key misses)",
			head: "Cacheline: single-thread point-probe cost (ns/op is the layout proxy)",
			grids: []grid{{datasets: []dataset.Name{dataset.Libio, dataset.OSM, dataset.LongLat}, order: "dia",
				cfg: Config{Mix: workload.ReadOnly, Threads: 1}, cols: "Row\tDataset\tMops\tns/op\tP50us\tP99us",
				row: func(c cell) string {
					return fmt.Sprintf("%s\t%s\t%.2f\t%.1f\t%s\t%s", c.Index, c.Dataset, c.Mops,
						float64(c.Elapsed.Nanoseconds())/float64(max(c.Ops, 1)), us(c.P50), us(c.P99))
				},
				rows: []variant{
					{NamedFactory: ALTWith("ALT-B1", core.Options{}), tune: func(_ Params, c *Config) { c.BatchSize = 1 }},
					{NamedFactory: ALTWith("ALT-B64", core.Options{}), tune: func(_ Params, c *Config) { c.BatchSize = 64 }},
					{NamedFactory: ALTWith("ALT-miss", core.Options{}), cell: cachelineMiss}}}}},

		// The writer tail of the asynchronous retraining pipeline: the Fig 8(b)
		// hot-write workload run against ALT with its background retraining
		// worker (the default) and with retraining disabled (the no-rebuild lower
		// bound). The P99/P99.9 columns are the point: with the rebuild off the
		// writer's critical path the two tails should be indistinguishable.
		// FreezeMax is the longest single freeze window; Spins counts writer
		// backoff iterations (writers parked on frozen slots).
		{ID: "retrain-tail", Title: "Retrain tail: hot-write writer latency with background retraining on and off",
			grids: []grid{{rows: asRows(ALTWith("ALT-async", core.Options{}), altNoRetrain), datasets: libioOSM,
				tune: hotWrite, cols: "Variant\t" + latency + "\tRetrains\tDrops\tFreezeMax(us)\tSpins",
				row: func(c cell) string {
					return latencyRow(c) + fmt.Sprintf("\t%d\t%d\t%.1f\t%d", c.Stats["retrains"], c.Stats["retrain_drops"],
						freezeMaxUs(c), c.Stats["writer_spins"])
				}}}},

		// What range-partitioning buys under the balanced read-write workload:
		// the unsharded baseline against the sharded front-end across shard
		// counts, thread counts (powers of two up to and always including
		// p.Threads) and datasets. Sharding's wins are structural, not just
		// parallel — each shard retrains models a factor S smaller (eps is
		// per-shard, so freezes are shorter and hit a fraction of the
		// keyspace) — so the sharded rows can lead even at low thread counts.
		// The second table reports per-shard-count speedup over the unsharded
		// baseline at the maximum thread count; the third drives the skew
		// monitor with adversarial traffic: the hot-write reserved range lands
		// entirely inside one shard, the worst case for a fixed-boundary
		// partition, and the monitor flags it — the operator signal that a
		// re-bulkload is due. Its -hot suffix keeps those rows apart from the
		// uniform scaling grid in the JSON artifact.
		{ID: "shard-scaling", Title: "Shard scaling: CDF-partitioned front-end vs unsharded, threads x shards x datasets",
			head: "Shard scaling: CDF-partitioned front-end vs unsharded baseline",
			grids: []grid{
				{rowsAt: shardRows(""), datasets: libioOSM, order: "dia", cfg: Config{Mix: workload.Balanced}, reps: 3,
					axis: &axis{name: "threads", format: "%.0f", set: setThreads, values: func(p Params) []float64 {
						return append(threadsAxis.values(Params{Threads: p.Threads - 1}), float64(p.Threads))
					}},
					cols: "Variant\tDataset\tThreads\tMops\tP50us\tP99us\tP99.9us\tRetrains\tFreezeMax(us)\tSpins\tImbal",
					row: func(c cell) string {
						imbal := "-" // unsharded rows have no skew monitor
						if _, ok := c.Stats["shard_imbalance_x100"]; ok {
							imbal = imbalance(c)
						}
						return fmt.Sprintf("%s\t%s\t%s\t%.2f\t%s\t%s\t%s\t%d\t%.1f\t%d\t%s", c.Index, c.Dataset, c.Axis, c.Mops,
							us(c.P50), us(c.P99), us(c.P999), c.Stats["retrains"], freezeMaxUs(c), c.Stats["writer_spins"], imbal)
					},
					after: shardSpeedup},
				{sub: func(p Params) string {
					return fmt.Sprintf("skew monitor, hot-range writes at %d threads (osm)", p.Threads)
				},
					rowsAt: shardRows("-hot"), datasets: osmOnly, cfg: Config{Mix: workload.Balanced, Hot: true},
					cols: "Variant\tMops\tImbalance\tHotShardKeys",
					row: func(c cell) string {
						return fmt.Sprintf("%s\t%.2f\t%s\t%d", c.Index, c.Mops, imbalance(c), c.Stats["shard_keys_max"])
					}},
			}},

		// The paper-scale bench tier: SOSD-style per-dataset rows (one table
		// row per dataset x access pattern) at whatever -keys the caller set —
		// cmd/altbench's -tier large defaults it to 20M, and ≥50M is an explicit
		// -keys opt-in. Three rows per dataset:
		//
		//   - ALT-read: zipfian read-only — the GC-quiet floor; pauses here are
		//     pure heap-size cost (marking the resident index), so they expose
		//     the pointer-scan footprint of the slot storage.
		//   - ALT-balanced: the §IV balanced mix — steady allocation from both
		//     layers plus occasional retraining.
		//   - ALT-hotwrite: the Fig 8(b) reserved consecutive range, inserted
		//     hot — retraining churns whole model tables, the heaviest
		//     allocation stream the index hands the collector. This is the row
		//     where GC pause-per-second is compared between builds.
		//
		// Every row prints the collector columns next to the throughput ones, so
		// the trade is read off one line; the JSON artifact (cmd/altbench -json)
		// carries the full GCTelemetry per row.
		{ID: "large-scale", Title: "Large tier: paper-scale per-dataset runs (read/balanced/hot-write) with GC telemetry",
			head: "Large tier: paper-scale per-dataset runs with GC telemetry",
			grids: []grid{{datasets: libioOSM, order: "dia",
				cols: "Row\tDataset\tMops\tP50us\tP99us\tGCs\tGCp50us\tGCp99us\tGCmaxus\tPause/s us\tHeapMB\tAllocMB/s\tScanMB",
				row: func(c cell) string {
					g := c.GC
					if g == nil {
						g = &GCTelemetry{}
					}
					return fmt.Sprintf("%s\t%s\t%.2f\t%s\t%s\t%d\t%.1f\t%.1f\t%.1f\t%.1f\t%.0f\t%.0f\t%.0f",
						c.Index, c.Dataset, c.Mops, us(c.P50), us(c.P99),
						g.Cycles, float64(g.PauseP50Ns)/1e3, float64(g.PauseP99Ns)/1e3,
						float64(g.PauseMaxNs)/1e3, g.PausePerSecNs/1e3, float64(g.HeapInuseBytes)/1e6,
						float64(g.AllocBytes)/max(c.Elapsed.Seconds(), 1e-9)/1e6, float64(g.ScanBytes)/1e6)
				},
				rows: []variant{
					{NamedFactory: ALTWith("ALT-read", core.Options{}), tune: func(_ Params, c *Config) { c.Mix = workload.ReadOnly }},
					{NamedFactory: ALTWith("ALT-balanced", core.Options{}), tune: func(_ Params, c *Config) { c.Mix = workload.Balanced }},
					{NamedFactory: ALTWith("ALT-hotwrite", core.Options{}), tune: hotWrite}}}}},

		// ALT with retraining enabled vs disabled under the hot-write workload
		// (the design choice §III-F motivates).
		{ID: "ablation-retrain", Title: "Ablation: ALT hot-write with retraining on/off",
			head:  "Ablation: dynamic retraining under hot writes",
			grids: []grid{{rows: asRows(ALT(), altNoRetrain), tune: hotWrite, cols: "Variant\t" + latency, row: latencyRow}}},

		// The learned layer's gap factor under the balanced workload: more gaps
		// absorb more inserts in place but cost memory.
		{ID: "ablation-gap", Title: "Ablation: ALT gap factor sweep, balanced",
			head: "Ablation: gap factor, balanced workload (osm)",
			grids: []grid{{datasets: osmOnly, cfg: Config{Mix: workload.Balanced},
				axis: &axis{name: "gap", format: "%.2f", values: fixed(1.0, 1.25, 1.5, 2.0, 3.0)},
				rowsAt: func(_ Params, g float64) []variant {
					return asRows(ALTWith("ALT-index", core.Options{GapFactor: g}))
				},
				cols: "GapFactor\tMops\tMem MB\tLearned %",
				row: func(c cell) string {
					return fmt.Sprintf("%s\t%.2f\t%.1f\t%.1f%%", c.Axis, c.Mops, float64(c.Mem)/1e6, learnedPct(c))
				}}}},

		walCommit,
		netPath,

		// SOSD's triple (build time, index size, lookup latency) per dataset
		// for ALT and every baseline, from the same grid as the figures: the
		// whole dataset is bulkloaded, then read with the zipfian stream.
		{ID: "sosd", Title: "SOSD triple: build time, index size and read-only lookup latency per dataset, all indexes",
			head: "SOSD triple: build time, index size, lookup latency (read-only)",
			grids: []grid{{cfg: Config{Mix: workload.ReadOnly, InitRatio: 1}, cols: "Index\tDataset\tBuild ms\tBytes/key\tP50us",
				row: func(c cell) string {
					return fmt.Sprintf("%s\t%s\t%s\t%.1f\t%s", c.Index, c.Dataset, buildMs(c), bytesPerKey(c), us(c.P50))
				}}}},
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

// fig7 builds the Fig 7 experiment for one workload mix: all six indexes
// across the four datasets.
func fig7(id, title string, mix workload.Mix) Experiment {
	return Experiment{ID: id, Title: title,
		head:  fmt.Sprintf("Fig 7: %s workload, throughput and tail latency", mix.Name),
		grids: []grid{{cfg: Config{Mix: mix}, cols: "Index\t" + latency, row: latencyRow}}}
}

// batchGrid is one mix of the batch experiment: batch sizes become columns.
func batchGrid(mix workload.Mix) grid {
	loop := func(_ Params, c *Config) { c.LoopBatch = true }
	rows := []variant{{NamedFactory: ALT()}, {NamedFactory: ALTWith("ALT-loop", core.Options{}), tune: loop}}
	for _, f := range Competitors() {
		rows = append(rows, variant{NamedFactory: f, tune: loop})
	}
	return grid{sub: func(Params) string { return mix.Name },
		rows: rows, datasets: []dataset.Name{dataset.FB, dataset.OSM}, cfg: Config{Mix: mix},
		axis: &axis{name: "B", format: "%.0f", set: func(c *Config, v float64) { c.BatchSize = int(v) },
			values: func(p Params) []float64 {
				var sizes []float64
				for _, b := range p.BatchSizes {
					sizes = append(sizes, float64(b))
				}
				return sizes
			}},
		cols: "Index\tDataset", pivot: mops,
		row: func(c cell) string { return c.Index + "\t" + string(c.Dataset) }}
}

// --- cell formatters shared by more than one table ----------------------------

func latencyRow(c cell) string {
	return fmt.Sprintf("%s\t%s\t%.2f\t%s\t%s\t%s", c.Index, c.Dataset, c.Mops, us(c.P50), us(c.P99), us(c.P999))
}

func datasetLabel(c cell) string { return string(c.Dataset) }
func axisLabel(c cell) string    { return c.Axis }
func mops(c cell) string         { return fmt.Sprintf("%.2f", c.Mops) }
func buildMs(c cell) string      { return fmt.Sprintf("%.1f", float64(c.BuildTime.Microseconds())/1e3) }
func bytesPerKey(c cell) float64 { return float64(c.Mem) / float64(c.Len) }
func freezeMaxUs(c cell) float64 { return float64(c.Stats["retrain_freeze_max_ns"]) / 1e3 }

// learnedPct is the share of keys resident in the learned layer.
func learnedPct(c cell) float64 {
	l, a := c.Stats["learned_keys"], c.Stats["art_keys"]
	return 100 * float64(l) / float64(l+a)
}

// imbalance is the skew monitor's largest shard key count over the mean
// (1.00 = perfectly even).
func imbalance(c cell) string {
	return fmt.Sprintf("%.2f", float64(c.Stats["shard_imbalance_x100"])/100)
}

// pick returns the rows for the named members of All().
func pick(names ...string) []variant {
	var vs []variant
	for _, n := range names {
		f, ok := ByName(n)
		if !ok {
			panic("bench: no index named " + n)
		}
		vs = append(vs, variant{NamedFactory: f})
	}
	return vs
}

// --- cells that measure something other than a Run ---------------------------

// segmenter times one segmentation algorithm over the whole dataset at
// eps = keys/1000 and checks every segment stays within 2*eps.
func segmenter(name string, run func([]uint64, float64) []gpl.Segment) variant {
	return variant{NamedFactory: NamedFactory{Name: name}, cell: func(c Config) Result {
		keys := dataset.Generate(c.Dataset, c.Keys, c.Seed)
		eps := float64(c.Keys) / 1000
		t0 := time.Now()
		segs := run(keys, eps)
		dt := time.Since(t0)
		within, off := int64(1), 0
		for _, s := range segs {
			if gpl.MaxError(keys[off:off+s.N], s) > 2*eps {
				within = 0
			}
			off += s.N
		}
		return Result{Dataset: c.Dataset, Mix: "segment", Threads: 1,
			Stats: map[string]int64{"segments": int64(len(segs)), "within_2eps": within},
		}.measured(len(keys), dt, nil)
	}}
}

// artWalk bulkloads the full dataset into ALT and sums, over a 1-in-7
// sample of the keys that live in ART, the nodes a lookup traverses with
// and without the fast pointer buffer.
func artWalk(c Config) Result {
	c.InitRatio = 1
	p := Prepare(ALT().New, c)
	defer p.Close()
	alt := p.Ix.(*core.ALT)
	var withFP, withoutFP, conflicts int64
	for i := 0; i < len(p.loaded); i += 7 {
		if l, in := alt.ARTLookupLength(p.loaded[i], true); in {
			withFP += int64(l)
			l2, _ := alt.ARTLookupLength(p.loaded[i], false)
			withoutFP += int64(l2)
			conflicts++
		}
	}
	r := p.result()
	r.Mix = "art-walk"
	r.Stats = map[string]int64{"conflicts": conflicts, "nodes_with_fp": withFP, "nodes_without_fp": withoutFP}
	return r
}

// cachelineMiss times lookups of keys that are provably absent: the full
// dataset is bulkloaded, so any strict midpoint between two consecutive
// loaded keys cannot be present. Probing them in pseudorandom order makes
// every probe a cold predicted slot plus — without the sidecar — a full
// ART traversal ending in a miss.
func cachelineMiss(c Config) Result {
	c.InitRatio = 1
	p := Prepare(ALT().New, c)
	defer p.Close()
	alt, keys := p.Ix.(*core.ALT), p.loaded
	probes := make([]uint64, 0, len(keys)-1)
	for i := 0; i+1 < len(keys); i++ {
		if keys[i+1]-keys[i] > 1 {
			probes = append(probes, keys[i]+(keys[i+1]-keys[i])/2)
		}
	}
	// Seeded Fisher-Yates: the probe order is pseudorandom but reproducible.
	r := xrand.New(c.Seed)
	for i := len(probes) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		probes[i], probes[j] = probes[j], probes[i]
	}
	var dl time.Time
	if c.Duration > 0 {
		dl = time.Now().Add(c.Duration)
	}
	done := 0
	t0 := time.Now()
	for i := 0; c.Duration > 0 || i < c.Ops; i++ {
		if !dl.IsZero() && i&63 == 0 && time.Now().After(dl) {
			break
		}
		if _, ok := alt.Get(probes[i%len(probes)]); ok {
			panic("bench: cacheline miss probe found an absent key")
		}
		done++
	}
	elapsed := time.Since(t0)
	res := p.result().measured(done, elapsed, nil)
	res.Mix = "absent"
	return res
}

// --- shard scaling -----------------------------------------------------------

// shardRows is the shard-count axis of the shard-scaling experiment as
// rows: ALT-S0 is the unsharded baseline, the rest are sharded variants at
// 2, 4 and 8 shards. A non-empty suffix names the adversarial-traffic rows,
// which have no unsharded member.
func shardRows(suffix string) func(Params, float64) []variant {
	return func(Params, float64) []variant {
		var rows []variant
		if suffix == "" {
			rows = append(rows, variant{NamedFactory: ALTWith("ALT-S0", core.Options{})})
		}
		for _, s := range []int{2, 4, 8} {
			rows = append(rows, variant{NamedFactory: ALTSharded(fmt.Sprintf("ALT-S%d%s", s, suffix), s, core.Options{})})
		}
		return rows
	}
}

// shardSpeedup prints, per dataset, each shard count's throughput at the
// maximum thread count against the unsharded row's.
func shardSpeedup(p Params, cells []cell) {
	fmt.Fprintf(p.Out, "\n-- speedup vs unsharded at %d threads --\n", p.Threads)
	tw := tabwriter.NewWriter(p.Out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Dataset\tShards\tMops\tSpeedup")
	base := 0.0
	for _, c := range cells {
		if c.Threads != p.Threads {
			continue
		}
		shards, ok := c.Stats["shards"]
		if !ok { // the unsharded baseline leads each dataset's rows
			base, shards = c.Mops, 1
		}
		fmt.Fprintf(tw, "%s\t%d\t%.2f\t%.2fx\n", c.Dataset, shards, c.Mops, c.Mops/base)
	}
	tw.Flush()
}
