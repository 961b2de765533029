package altindex_test

import (
	"fmt"

	"altindex"
)

// ExampleRange is the range-scan part of README.md's quick start, compiled
// and run so the snippet cannot drift from the API.
func ExampleRange() {
	idx := altindex.New(altindex.Options{})
	defer idx.Close()
	pairs := make([]altindex.KV, 0, 100)
	for k := uint64(1); k <= 100; k++ {
		pairs = append(pairs, altindex.KV{Key: 10 * k, Value: k})
	}
	if err := idx.Bulkload(pairs); err != nil {
		panic(err)
	}
	start, end := uint64(200), uint64(250)
	var dst []altindex.KV

	// README.md, "Install & quick start":
	dst = idx.ScanAppend(dst[:0], start, end, 100) // ≤ 100 pairs in [start, end)
	for k, v := range altindex.Range(idx, start) { // every key >= start, ascending
		if k >= end {
			break
		}
		fmt.Println(k, v)
	}

	fmt.Println(dst)
	// end == ^uint64(0) is the unbounded window, which includes key MaxUint64.
	fmt.Println(idx.ScanAppend(dst[:0], 985, ^uint64(0), 100))
	// Output:
	// 200 20
	// 210 21
	// 220 22
	// 230 23
	// 240 24
	// [{200 20} {210 21} {220 22} {230 23} {240 24}]
	// [{990 99} {1000 100}]
}
