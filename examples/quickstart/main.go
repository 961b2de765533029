// Quickstart: build an ALT-index, look keys up, insert, update, remove and
// range-scan — the 60-second tour of the public API.
package main

import (
	"fmt"
	"log"

	"altindex"
)

func main() {
	// Bulkload expects sorted, deduplicated pairs — here the squares of
	// 1..1000 (a gently non-linear CDF).
	pairs := make([]altindex.KV, 0, 1000)
	for i := uint64(1); i <= 1000; i++ {
		pairs = append(pairs, altindex.KV{Key: i * i, Value: i})
	}

	idx := altindex.New(altindex.Options{})
	if err := idx.Bulkload(pairs); err != nil {
		log.Fatal(err)
	}

	// Point lookups hit the learned layer's exact prediction.
	if v, ok := idx.Get(625); ok {
		fmt.Printf("sqrt(625) = %d\n", v) // 25
	}
	if _, ok := idx.Get(626); !ok {
		fmt.Println("626 is not a square")
	}

	// Inserts land in a free predicted slot, or in the ART layer on
	// conflict — callers never see the difference.
	for i := uint64(1); i <= 1000; i++ {
		if err := idx.Insert(i*i+1, i); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("after inserts: %d keys\n", idx.Len())

	// Updates and removals work across both layers too.
	if !idx.Update(626, 2500) {
		log.Fatal("update failed")
	}
	if v, _ := idx.Get(626); v != 2500 {
		log.Fatal("update lost")
	}
	if !idx.Remove(626) {
		log.Fatal("remove failed")
	}

	// Range scans merge the learned layer and the ART layer in key
	// order. altindex.Range iterates from a start key; ScanAppend fills a
	// reusable buffer with a bounded window (see examples/timeseries).
	fmt.Print("first 5 keys >= 620: ")
	n := 0
	for k := range altindex.Range(idx, 620) {
		fmt.Printf("%d ", k)
		if n++; n == 5 {
			break
		}
	}
	fmt.Println()

	// Internal statistics show how the two layers share the data.
	st := idx.StatsMap()
	fmt.Printf("models=%d learned=%d art=%d fast-pointers=%d\n",
		st["models"], st["learned_keys"], st["art_keys"], st["fp_entries"])
}
