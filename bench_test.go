// Benchmarks regenerating every table and figure of the ALT-index paper's
// evaluation, one Benchmark per table/figure. Each benchmark drives b.N
// operations (or b.N builds, for the construction-time figures) against a
// scenario prepared outside the timed region; throughput figures add a
// "Mops" metric. The full parameter sweeps with printed tables live in
// cmd/altbench (e.g. `go run ./cmd/altbench -exp fig7c`).
//
// Run with:
//
//	go test -bench=. -benchmem -benchtime=100000x
//
// A fixed iteration count is recommended: it keeps each throughput bench
// inside its prepared fresh-key pool. With large time-based budgets b.N can
// exceed the pool, after which streams synthesise keys beyond the loaded
// range — a hostile append-beyond-range regime (interesting, and exactly
// where ALEX+-style shifting collapses, but not what the paper's figures
// measure).
package altindex_test

import (
	"testing"

	"altindex/internal/bench"
	"altindex/internal/core"
	"altindex/internal/dataset"
	"altindex/internal/gpl"
	"altindex/internal/index"
	"altindex/internal/workload"
)

const benchKeys = 200_000

// benchMix drives b.N mixed operations for every index on one dataset.
func benchMix(b *testing.B, ds dataset.Name, mix workload.Mix, factories []bench.NamedFactory) {
	for _, f := range factories {
		f := f
		b.Run(f.Name, func(b *testing.B) {
			p := bench.Prepare(f.New, bench.Config{Dataset: ds, Keys: benchKeys, Mix: mix})
			defer p.Close()
			b.ResetTimer()
			p.Exec(b.N)
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds()/1e6, "Mops")
		})
	}
}

// benchBuild measures one full bulkload per iteration.
func benchBuild(b *testing.B, f bench.NamedFactory, ds dataset.Name, keys int) {
	all := dataset.Generate(ds, keys, 1)
	pairs := dataset.Pairs(all)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix := f.New()
		if err := ix.Bulkload(pairs); err != nil {
			b.Fatal(err)
		}
		bench.CloseIndex(ix)
	}
	b.ReportMetric(float64(keys)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mkeys/s")
}

// --- Table I ---------------------------------------------------------------

// BenchmarkTable1 reproduces Table I's measurement: the five baselines
// under the balanced workload on osm.
func BenchmarkTable1(b *testing.B) {
	benchMix(b, dataset.OSM, workload.Balanced, bench.Competitors())
}

// --- Fig 3 -----------------------------------------------------------------

// BenchmarkFig3a measures the bulkload that produces each learned index's
// model population (the model counts themselves print via altbench).
func BenchmarkFig3a(b *testing.B) {
	for _, f := range []bench.NamedFactory{bench.XIndexWith(0), bench.FINEdexWith(0), bench.ALT()} {
		f := f
		b.Run(f.Name, func(b *testing.B) { benchBuild(b, f, dataset.OSM, benchKeys) })
	}
}

// BenchmarkFig3b sweeps the error bound of FINEdex and XIndex, read-only.
func BenchmarkFig3b(b *testing.B) {
	for _, eb := range []int{32, 256} {
		for _, f := range []bench.NamedFactory{bench.FINEdexWith(eb), bench.XIndexWith(eb)} {
			f := f
			b.Run(f.Name+"/eb="+itoa(eb), func(b *testing.B) {
				p := bench.Prepare(f.New, bench.Config{Dataset: dataset.OSM, Keys: benchKeys, Mix: workload.ReadOnly})
				defer p.Close()
				b.ResetTimer()
				p.Exec(b.N)
				b.StopTimer()
				b.ReportMetric(float64(b.N)/b.Elapsed().Seconds()/1e6, "Mops")
			})
		}
	}
}

// --- Fig 4 -----------------------------------------------------------------

// BenchmarkFig4 times the three segmentation algorithms over the same data.
func BenchmarkFig4(b *testing.B) {
	keys := dataset.Generate(dataset.OSM, benchKeys, 1)
	eps := float64(benchKeys) / 1000
	for _, algo := range []struct {
		name string
		run  func([]uint64, float64) []gpl.Segment
	}{
		{"GPL", gpl.Partition},
		{"ShrinkingCone", gpl.ShrinkingCone},
		{"LPA", gpl.LPA},
	} {
		algo := algo
		b.Run(algo.name, func(b *testing.B) {
			var segs int
			for i := 0; i < b.N; i++ {
				segs = len(algo.run(keys, eps))
			}
			b.ReportMetric(float64(segs), "segments")
		})
	}
}

// --- Fig 6 -----------------------------------------------------------------

// BenchmarkFig6a measures GPL partitioning across the error-bound sweep.
func BenchmarkFig6a(b *testing.B) {
	keys := dataset.Generate(dataset.OSM, benchKeys, 1)
	for _, eb := range []int{16, 64, 200, 800, 3200} {
		eb := eb
		b.Run("eps="+itoa(eb), func(b *testing.B) {
			var segs int
			for i := 0; i < b.N; i++ {
				segs = len(gpl.Partition(keys, float64(eb)))
			}
			b.ReportMetric(float64(segs), "models")
		})
	}
}

// BenchmarkFig6b sweeps ALT's error bound under read-only load.
func BenchmarkFig6b(b *testing.B) {
	for _, eb := range []int{16, 64, 200, 800, 3200} {
		eb := eb
		b.Run("eps="+itoa(eb), func(b *testing.B) {
			f := bench.ALTWith("ALT-index", core.Options{ErrorBound: eb})
			p := bench.Prepare(f.New, bench.Config{Dataset: dataset.OSM, Keys: benchKeys, Mix: workload.ReadOnly})
			defer p.Close()
			b.ResetTimer()
			p.Exec(b.N)
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds()/1e6, "Mops")
		})
	}
}

// --- Fig 7 -----------------------------------------------------------------

// BenchmarkFig7a..e: the five workload mixes over all six indexes (osm).
func BenchmarkFig7aReadOnly(b *testing.B) {
	benchMix(b, dataset.OSM, workload.ReadOnly, bench.All())
}
func BenchmarkFig7bReadHeavy(b *testing.B) {
	benchMix(b, dataset.OSM, workload.ReadHeavy, bench.All())
}
func BenchmarkFig7cBalanced(b *testing.B) {
	benchMix(b, dataset.OSM, workload.Balanced, bench.All())
}
func BenchmarkFig7dWriteHeavy(b *testing.B) {
	benchMix(b, dataset.OSM, workload.WriteHeavy, bench.All())
}
func BenchmarkFig7eWriteOnly(b *testing.B) {
	benchMix(b, dataset.OSM, workload.WriteOnly, bench.All())
}

// --- Fig 8 -----------------------------------------------------------------

// BenchmarkFig8aMemory inserts the dataset remainder and reports bytes/key.
func BenchmarkFig8aMemory(b *testing.B) {
	for _, f := range bench.All() {
		f := f
		b.Run(f.Name, func(b *testing.B) {
			p := bench.Prepare(f.New, bench.Config{Dataset: dataset.OSM, Keys: benchKeys, Mix: workload.WriteOnly})
			defer p.Close()
			b.ResetTimer()
			p.Exec(b.N)
			b.StopTimer()
			if n := p.Ix.Len(); n > 0 {
				b.ReportMetric(float64(p.Ix.MemoryUsage())/float64(n), "bytes/key")
			}
		})
	}
}

// BenchmarkFig8bHotWrite drives consecutive-range inserts (the retraining
// trigger) for every index.
func BenchmarkFig8bHotWrite(b *testing.B) {
	for _, f := range bench.All() {
		f := f
		b.Run(f.Name, func(b *testing.B) {
			p := bench.Prepare(f.New, bench.Config{Dataset: dataset.Libio, Keys: benchKeys,
				Mix: workload.WriteOnly, Hot: true})
			defer p.Close()
			b.ResetTimer()
			p.Exec(b.N)
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds()/1e6, "Mops")
		})
	}
}

// BenchmarkFig8cScan drives 100-key range scans for every index.
func BenchmarkFig8cScan(b *testing.B) {
	benchMix(b, dataset.OSM, workload.ScanOnly, bench.All())
}

// BenchmarkFig8dInitRatio sweeps the bulkload ratio (osm, read-only, ALT).
func BenchmarkFig8dInitRatio(b *testing.B) {
	for _, ratio := range []float64{0.2, 0.6, 1.0} {
		ratio := ratio
		b.Run("init="+ftoa(ratio), func(b *testing.B) {
			p := bench.Prepare(bench.ALT().New, bench.Config{Dataset: dataset.OSM,
				Keys: benchKeys, InitRatio: ratio, Mix: workload.ReadOnly})
			defer p.Close()
			b.ResetTimer()
			p.Exec(b.N)
		})
	}
}

// BenchmarkFig8eSkew sweeps the zipfian theta (osm, read-only, ALT).
func BenchmarkFig8eSkew(b *testing.B) {
	for _, theta := range []float64{0.5, 0.99, 1.3} {
		theta := theta
		b.Run("theta="+ftoa(theta), func(b *testing.B) {
			p := bench.Prepare(bench.ALT().New, bench.Config{Dataset: dataset.OSM,
				Keys: benchKeys, Mix: workload.ReadOnly, Theta: theta})
			defer p.Close()
			b.ResetTimer()
			p.Exec(b.N)
		})
	}
}

// --- Fig 9 -----------------------------------------------------------------

// BenchmarkFig9Scalability sweeps the thread count, balanced workload.
func BenchmarkFig9Scalability(b *testing.B) {
	for _, th := range []int{1, 2, 4, 8, 16, 32} {
		th := th
		b.Run("threads="+itoa(th), func(b *testing.B) {
			p := bench.Prepare(bench.ALT().New, bench.Config{Dataset: dataset.OSM,
				Keys: benchKeys, Mix: workload.Balanced, Threads: th})
			defer p.Close()
			b.ResetTimer()
			p.Exec(b.N)
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds()/1e6, "Mops")
		})
	}
}

// --- Fig 10 ----------------------------------------------------------------

// fig10ALT builds an ALT over the whole benchmark dataset and returns it
// with its conflict keys.
func fig10ALT(b *testing.B, opts core.Options) (*core.ALT, []uint64) {
	b.Helper()
	keys := dataset.Generate(dataset.OSM, benchKeys, 1)
	alt := core.New(opts)
	if err := alt.Bulkload(dataset.Pairs(keys)); err != nil {
		b.Fatal(err)
	}
	var conflicts []uint64
	for i := 0; i < len(keys); i += 3 {
		if _, in := alt.ARTLookupLength(keys[i], true); in {
			conflicts = append(conflicts, keys[i])
		}
	}
	if len(conflicts) == 0 {
		b.Skip("no ART residents in this configuration")
	}
	return alt, conflicts
}

// BenchmarkFig10aLookupLength measures secondary lookups into ART with and
// without fast pointers.
func BenchmarkFig10aLookupLength(b *testing.B) {
	for _, useFP := range []bool{true, false} {
		useFP := useFP
		name := "withFP"
		if !useFP {
			name = "withoutFP"
		}
		b.Run(name, func(b *testing.B) {
			alt, conflicts := fig10ALT(b, core.Options{})
			var nodes int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				l, _ := alt.ARTLookupLength(conflicts[i%len(conflicts)], useFP)
				nodes += l
			}
			b.ReportMetric(float64(nodes)/float64(b.N), "nodes/lookup")
		})
	}
}

// BenchmarkFig10bMerge builds ALT and reports the fast-pointer merge saving.
func BenchmarkFig10bMerge(b *testing.B) {
	var req, ent int64
	keys := dataset.Generate(dataset.OSM, benchKeys, 1)
	pairs := dataset.Pairs(keys)
	for i := 0; i < b.N; i++ {
		alt := core.New(core.Options{})
		if err := alt.Bulkload(pairs); err != nil {
			b.Fatal(err)
		}
		st := alt.StatsMap()
		req, ent = st["fp_requested"], st["fp_entries"]
	}
	b.ReportMetric(float64(req), "registered")
	b.ReportMetric(float64(ent), "stored")
}

// BenchmarkFig10cSplit builds ALT and reports the layer split.
func BenchmarkFig10cSplit(b *testing.B) {
	var learned, art int64
	keys := dataset.Generate(dataset.OSM, benchKeys, 1)
	pairs := dataset.Pairs(keys)
	for i := 0; i < b.N; i++ {
		alt := core.New(core.Options{})
		if err := alt.Bulkload(pairs); err != nil {
			b.Fatal(err)
		}
		st := alt.StatsMap()
		learned, art = st["learned_keys"], st["art_keys"]
	}
	b.ReportMetric(100*float64(learned)/float64(learned+art), "learned%")
}

// BenchmarkFig10dBulkload times full bulkloads of ALT, ALEX+ and LIPP+.
func BenchmarkFig10dBulkload(b *testing.B) {
	facts := []bench.NamedFactory{bench.ALT()}
	for _, f := range bench.Competitors() {
		if f.Name == "ALEX+" || f.Name == "LIPP+" {
			facts = append(facts, f)
		}
	}
	for _, f := range facts {
		f := f
		b.Run(f.Name, func(b *testing.B) { benchBuild(b, f, dataset.OSM, benchKeys) })
	}
}

// --- batched operations ------------------------------------------------------

// batchStream bulkloads ALT over the full osm dataset and pregenerates a
// zipfian read-key stream (the YCSB-style locality batching exploits).
func batchStream(b *testing.B) (*core.ALT, []uint64) {
	b.Helper()
	keys := dataset.Generate(dataset.OSM, benchKeys, 1)
	alt := core.New(core.Options{})
	if err := alt.Bulkload(dataset.Pairs(keys)); err != nil {
		b.Fatal(err)
	}
	w := workload.New(workload.Config{Mix: workload.ReadOnly, Threads: 1, Seed: 2}, keys, nil)
	s := w.Stream(0)
	stream := make([]uint64, 1<<20)
	for i := range stream {
		stream[i] = s.Next().Key
	}
	return alt, stream
}

// BenchmarkALTGetBatch compares ALT's native model-grouped GetBatch against
// the per-key loop fallback on the same zipfian stream, across batch sizes.
func BenchmarkALTGetBatch(b *testing.B) {
	alt, stream := batchStream(b)
	for _, bs := range []int{8, 64, 256} {
		bs := bs
		for _, variant := range []struct {
			name string
			bt   index.Batcher
		}{{"native", index.BatchOf(alt)}, {"loop", index.LoopBatcher(alt)}} {
			variant := variant
			b.Run(variant.name+"/B="+itoa(bs), func(b *testing.B) {
				vals := make([]uint64, bs)
				found := make([]bool, bs)
				b.ReportAllocs()
				b.ResetTimer()
				off := 0
				for done := 0; done < b.N; done += bs {
					if off+bs > len(stream) {
						off = 0
					}
					variant.bt.GetBatch(stream[off:off+bs], vals, found)
					off += bs
				}
				b.StopTimer()
				b.ReportMetric(float64(b.N)/b.Elapsed().Seconds()/1e6, "Mops")
			})
		}
	}
}

// BenchmarkALTInsertBatch compares native InsertBatch against the loop
// fallback: bulkload a quarter of the dataset, insert the rest in batches
// (wrapping into upserts once the fresh-key pool is exhausted).
func BenchmarkALTInsertBatch(b *testing.B) {
	keys := dataset.Generate(dataset.OSM, 4*benchKeys, 1)
	loaded, pending := workload.SplitLoad(keys, 0.25, 3)
	pairs := make([]index.KV, len(pending))
	for i, k := range pending {
		pairs[i] = index.KV{Key: k, Value: dataset.ValueFor(k)}
	}
	for _, bs := range []int{8, 64, 256} {
		bs := bs
		for _, loop := range []bool{false, true} {
			loop := loop
			name := "native"
			if loop {
				name = "loop"
			}
			b.Run(name+"/B="+itoa(bs), func(b *testing.B) {
				alt := core.New(core.Options{})
				if err := alt.Bulkload(dataset.Pairs(loaded)); err != nil {
					b.Fatal(err)
				}
				bt := index.Batcher(alt)
				if loop {
					bt = index.LoopBatcher(alt)
				}
				b.ReportAllocs()
				b.ResetTimer()
				off := 0
				for done := 0; done < b.N; done += bs {
					if off+bs > len(pairs) {
						off = 0
					}
					if err := bt.InsertBatch(pairs[off : off+bs]); err != nil {
						b.Fatal(err)
					}
					off += bs
				}
				b.StopTimer()
				b.ReportMetric(float64(b.N)/b.Elapsed().Seconds()/1e6, "Mops")
			})
		}
	}
}

// BenchmarkALTScan measures repeated 100-key scans; with a reused
// destination and the pooled scan buffers these run at ~0 allocs/op.
func BenchmarkALTScan(b *testing.B) {
	alt, stream := batchStream(b)
	b.ReportAllocs()
	b.ResetTimer()
	var dst []index.KV
	for i := 0; i < b.N; i++ {
		dst = alt.ScanAppend(dst[:0], stream[i%len(stream)], ^uint64(0), 100)
	}
}

// --- ablations ---------------------------------------------------------------

// BenchmarkAblationRetrain contrasts hot-write inserts with retraining
// enabled and disabled.
func BenchmarkAblationRetrain(b *testing.B) {
	variants := []bench.NamedFactory{
		bench.ALTWith("retrain", core.Options{}),
		bench.ALTWith("noretrain", core.Options{DisableRetraining: true}),
	}
	for _, f := range variants {
		f := f
		b.Run(f.Name, func(b *testing.B) {
			p := bench.Prepare(f.New, bench.Config{Dataset: dataset.Libio, Keys: benchKeys,
				Mix: workload.WriteOnly, Hot: true})
			defer p.Close()
			b.ResetTimer()
			p.Exec(b.N)
		})
	}
}

// BenchmarkAblationGap sweeps the learned layer's gap factor, balanced mix.
func BenchmarkAblationGap(b *testing.B) {
	for _, g := range []float64{1.0, 1.5, 3.0} {
		g := g
		b.Run("gap="+ftoa(g), func(b *testing.B) {
			f := bench.ALTWith("ALT-index", core.Options{GapFactor: g})
			p := bench.Prepare(f.New, bench.Config{Dataset: dataset.OSM, Keys: benchKeys,
				Mix: workload.Balanced})
			defer p.Close()
			b.ResetTimer()
			p.Exec(b.N)
		})
	}
}

// --- tiny local formatting helpers ------------------------------------------

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

func ftoa(v float64) string {
	whole := int(v)
	frac := int(v*100) % 100
	return itoa(whole) + "." + itoa(frac/10) + itoa(frac%10)
}

// Compile-time check that the public API satisfies the shared interface.
var _ index.Concurrent = (*core.ALT)(nil)
