// Package index defines the key/value types and the concurrent ordered-index
// interface shared by ALT-index and every baseline competitor in this
// repository (ALEX+, LIPP+, FINEdex, XIndex, ART).
//
// All indexes map fixed-width 8-byte integer keys to 8-byte values, matching
// the record format of the paper's SOSD-derived evaluation. Implementations
// must be safe for concurrent use by multiple goroutines.
package index

import "errors"

// Key is an 8-byte record key. Radix-based structures operate on the
// big-endian byte representation so byte order equals numeric order.
type Key = uint64

// Value is an 8-byte record payload.
type Value = uint64

// KV is a key/value pair, used for bulk loading and range scans.
type KV struct {
	Key   Key
	Value Value
}

// ErrUnsortedBulk reports a bulk load whose input is not strictly ascending
// by key.
var ErrUnsortedBulk = errors.New("index: bulk-load input must be sorted and deduplicated")

// Concurrent is the ordered-index contract implemented by every index in
// this repository. All methods are safe for concurrent use.
type Concurrent interface {
	// Name identifies the implementation in benchmark output.
	Name() string

	// Bulkload replaces the index contents with the given pairs, which
	// must be strictly ascending by key. It may run on an index already
	// in use, but not concurrently with any other method call.
	Bulkload(pairs []KV) error

	// Get returns the value stored for key.
	Get(key Key) (Value, bool)

	// Insert stores key/value. Inserting an existing key overwrites its
	// value (upsert), mirroring the paper's workload semantics where
	// insert streams are pre-deduplicated.
	Insert(key Key, value Value) error

	// Update overwrites the value of an existing key and reports whether
	// the key was present.
	Update(key Key, value Value) bool

	// Remove deletes key and reports whether it was present.
	Remove(key Key) bool

	// ScanAppend is the one range primitive: it appends up to max pairs
	// with keys in [start, end) to dst in ascending key order and returns
	// the extended slice. end == ^Key(0) means "no upper bound" and then
	// includes key MaxUint64 itself (the one key a half-open bound cannot
	// express an exclusion for); any other end <= start yields an empty
	// window. A result shorter than max means the window is exhausted.
	// Callers that reuse dst across calls pay no allocation for it; Walk
	// and Range resume it across batches.
	ScanAppend(dst []KV, start, end Key, max int) []KV

	// MemoryUsage returns the approximate heap bytes retained by the
	// index structure (excluding transient allocation).
	MemoryUsage() uintptr

	// Len returns the number of live keys. It may be approximate while
	// writers are active but is exact in quiescent states.
	Len() int
}

// Inclusive converts the half-open ScanAppend window [start, end) to its
// inclusive upper bound hi, honouring the unbounded sentinel end ==
// ^Key(0); ok is false when the window is empty.
func Inclusive(start, end Key) (hi Key, ok bool) {
	if end == ^Key(0) {
		return end, true
	}
	return end - 1, end > start
}

// Stats is optionally implemented by indexes that expose internal counters
// used by the paper's "inside analysis" experiments (Fig 10).
type Stats interface {
	// StatsMap returns implementation-specific counters, e.g. model
	// counts, layer sizes, fast-pointer counts.
	StatsMap() map[string]int64
}
