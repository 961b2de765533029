// timeseries demonstrates the paper's hot-write scenario on a realistic
// workload: telemetry ingestion keyed by (timestamp<<16 | sensor). Inserts
// arrive in almost-consecutive key order — exactly the pattern that crowds
// one GPL model after another and exercises dynamic retraining (§III-F) —
// while dashboard queries run windowed range scans concurrently.
package main

import (
	"flag"
	"fmt"
	"log"
	"sync"
	"sync/atomic"
	"time"

	"altindex"
	"altindex/internal/xrand"
)

const sensorBits = 16

func seriesKey(ts uint64, sensor uint16) uint64 {
	return ts<<sensorBits | uint64(sensor)
}

func main() {
	var (
		sensors  = flag.Int("sensors", 256, "emitting sensors")
		batches  = flag.Int("batches", 2000, "ingest batches (one timestamp each)")
		backfill = flag.Int("backfill", 500, "historic batches bulkloaded up front")
	)
	flag.Parse()

	idx := altindex.NewDefault()
	r := xrand.New(7)

	// Backfill: historical data arrives sorted, so bulkload it.
	var pairs []altindex.KV
	for ts := 0; ts < *backfill; ts++ {
		for s := 0; s < *sensors; s++ {
			pairs = append(pairs, altindex.KV{
				Key:   seriesKey(uint64(ts+1), uint16(s)),
				Value: r.Next() % 1000,
			})
		}
	}
	if err := idx.Bulkload(pairs); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("backfilled %d points (%d batches x %d sensors)\n",
		idx.Len(), *backfill, *sensors)

	// Live ingest: one goroutine per sensor shard appends consecutive
	// timestamps; a dashboard goroutine scans the trailing window.
	var ingested atomic.Int64
	var wg sync.WaitGroup
	const shards = 8
	perShard := *sensors / shards
	for sh := 0; sh < shards; sh++ {
		wg.Add(1)
		go func(sh int) {
			defer wg.Done()
			rr := xrand.New(uint64(sh) + 100)
			for ts := *backfill; ts < *backfill+*batches; ts++ {
				for s := sh * perShard; s < (sh+1)*perShard; s++ {
					if err := idx.Insert(seriesKey(uint64(ts+1), uint16(s)), rr.Next()%1000); err != nil {
						log.Fatal(err)
					}
					ingested.Add(1)
				}
			}
		}(sh)
	}

	dashDone := make(chan struct{})
	var windowsScanned atomic.Int64
	go func() {
		defer close(dashDone)
		var window []altindex.KV // reused: a steady-state scan allocates nothing
		for {
			ing := ingested.Load()
			if ing >= int64(*batches*perShard*shards) {
				return
			}
			// Scan the most recent 10 timestamps' window.
			latest := uint64(*backfill) + uint64(ing)/uint64(*sensors)
			window = idx.ScanAppend(window[:0], seriesKey(latest-9, 0), seriesKey(latest+1, 0), 10**sensors)
			windowsScanned.Add(1)
			time.Sleep(2 * time.Millisecond)
		}
	}()

	t0 := time.Now()
	wg.Wait()
	<-dashDone
	dt := time.Since(t0)

	st := idx.StatsMap()
	fmt.Printf("ingested %d points in %v (%.2f Minserts/s) with %d concurrent window scans\n",
		ingested.Load(), dt.Round(time.Millisecond),
		float64(ingested.Load())/dt.Seconds()/1e6, windowsScanned.Load())
	fmt.Printf("retrains=%d models=%d learned=%d art=%d\n",
		st["retrains"], st["models"], st["learned_keys"], st["art_keys"])

	// Verify a windowed aggregation over the final state.
	lastTS := uint64(*backfill + *batches)
	var sum, n uint64
	for _, kv := range idx.ScanAppend(nil, seriesKey(lastTS, 0), seriesKey(lastTS+1, 0), *sensors) {
		sum += kv.Value
		n++
	}
	if n == 0 {
		log.Fatal("final window empty")
	}
	fmt.Printf("final batch: %d sensors, mean reading %.1f\n", n, float64(sum)/float64(n))
}
