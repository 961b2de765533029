package index

import (
	"iter"
	"math"
	"sync"
)

// WalkBatch is the most pairs Walk pulls per ScanAppend call: enough to
// amortize an index's run collection, small enough that a walk over the
// whole keyspace never materialises more than one batch.
const WalkBatch = 256

// walkPool recycles Walk's batch buffers. ScanAppend never appends more
// than the WalkBatch pairs asked for, so a buffer stops growing there.
var walkPool = sync.Pool{New: func() any { return new([]KV) }}

// Walk visits up to max pairs of ix with keys in [start, end) in ascending
// key order (end == ^Key(0) is unbounded, as for ScanAppend), calling fn
// for each until it returns false, and returns the number of calls made.
//
// It is the one resume loop over ScanAppend: each pull asks for
// min(remaining, WalkBatch) pairs into a pooled buffer, and the next pull
// resumes just above the last key. fn runs between pulls, never inside
// one, so it may update ix (each batch is an internally consistent
// snapshot; the walk as a whole is not). Walk allocates nothing once the
// pool is warm.
func Walk(ix Concurrent, start, end Key, max int, fn func(Key, Value) bool) int {
	bp := walkPool.Get().(*[]KV)
	buf := *bp
	n := 0
pull:
	for n < max {
		want := min(max-n, WalkBatch)
		buf = ix.ScanAppend(buf[:0], start, end, want)
		for _, kv := range buf {
			n++
			if !fn(kv.Key, kv.Value) {
				break pull
			}
		}
		if len(buf) < want || buf[len(buf)-1].Key == ^Key(0) {
			break // window exhausted, or nothing above the keyspace's last key
		}
		start = buf[len(buf)-1].Key + 1
	}
	*bp = buf[:0]
	walkPool.Put(bp)
	return n
}

// Range returns an iterator over the pairs of ix with keys >= start in
// ascending key order, pulled through Walk.
func Range(ix Concurrent, start Key) iter.Seq2[Key, Value] {
	return func(yield func(Key, Value) bool) {
		Walk(ix, start, ^Key(0), math.MaxInt, yield)
	}
}
