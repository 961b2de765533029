package core

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"altindex/internal/dataset"
)

// BenchmarkGrownVsBulkloaded compares, per dataset, an index grown by 1 M
// random-order inserts into New (then Quiesce) with a Bulkload of the same
// keys. ns/op is one goroutine's Get of a random present key; the other
// metrics describe the built index. A sub-benchmark builds its index only
// when selected, and AnonHugePages is the whole process's, read right after
// the build, so take one sub-benchmark per process:
//
//	go test -run '^$' -bench 'GrownVsBulkloaded/osm/grown$' -benchtime 2000000x ./internal/core
func BenchmarkGrownVsBulkloaded(b *testing.B) {
	const n = 1000000
	for _, ds := range dataset.Names() {
		for _, state := range []string{"grown", "bulkloaded"} {
			var (
				once   sync.Once
				ix     *ALT
				probes []uint64
				st     map[string]int64
				noFP   int
				huge   uintptr
			)
			b.Run(string(ds)+"/"+state, func(b *testing.B) {
				once.Do(func() {
					keys := dataset.Generate(ds, n, 1)
					if state == "grown" {
						ix = grow(b, keys, 1, false)
					} else {
						ix = New(Options{})
						if err := ix.Bulkload(dataset.Pairs(keys)); err != nil {
							b.Fatal(err)
						}
					}
					huge = anonHugeBytes(b, []span{{0, ^uintptr(0)}})
					st = ix.StatsMap()
					tb := ix.tab.Load()
					for i := range tb.dir {
						if tb.dir[i].m.fastIdx.Load() < 0 {
							noFP++
						}
					}
					r := rand.New(rand.NewSource(2))
					probes = make([]uint64, 1<<18)
					for i := range probes {
						probes[i] = keys[r.Intn(len(keys))]
					}
				})
				b.ResetTimer()
				var sink uint64
				for i := 0; i < b.N; i++ {
					v, _ := ix.Get(probes[i&(len(probes)-1)])
					sink += v
				}
				runtime.KeepAlive(sink)
				b.ReportMetric(float64(st["models"]), "models")
				b.ReportMetric(float64(st["art_keys"])/n, "art_share")
				b.ReportMetric(float64(noFP)/float64(st["models"]), "no_fp_share")
				b.ReportMetric(float64(st["fp_requested"]), "fp_requested")
				b.ReportMetric(float64(st["retrain_freeze_max_ns"])/1e6, "freeze_max_ms")
				b.ReportMetric(float64(ix.MemoryUsage())/n, "B/key")
				b.ReportMetric(float64(huge)/(1<<20), "anon_huge_MB")
			})
			if ix != nil {
				ix.Close()
				ix = nil
			}
		}
	}
}
