package core

import (
	"testing"

	"altindex/internal/index"
)

// TestGetBatchScratchReuse checks that GetBatch tolerates scratch slices
// longer than the key slice and fills exactly len(keys) entries.
func TestGetBatchScratchReuse(t *testing.T) {
	alt := New(Options{})
	var kvs []uint64
	for i := uint64(0); i < 5000; i++ {
		kvs = append(kvs, i*37+5)
	}
	bulk := make([]index.KV, 0, len(kvs))
	for _, k := range kvs {
		bulk = append(bulk, index.KV{Key: k, Value: k + 1})
	}
	if err := alt.Bulkload(bulk); err != nil {
		t.Fatal(err)
	}
	keys := []uint64{5, 42*37 + 5, 4999*37 + 5, 3, ^uint64(0)}
	vals := make([]uint64, 16)
	found := make([]bool, 16)
	vals[len(keys)] = 999
	alt.GetBatch(keys, vals, found)
	for i, k := range keys {
		wv, wok := alt.Get(k)
		if found[i] != wok || (wok && vals[i] != wv) {
			t.Fatalf("GetBatch(%d)=(%d,%v) want (%d,%v)", k, vals[i], found[i], wv, wok)
		}
	}
	if vals[len(keys)] != 999 {
		t.Fatal("GetBatch wrote past len(keys)")
	}
}
