package memdb

import (
	"math"

	"altindex/internal/failpoint"
	"altindex/internal/index"
)

// Vacuum reclaims row versions orphaned by updates and deletes by
// rebuilding the row arena from the live rows. The table must be quiescent
// (no concurrent operations) for the duration — it is a maintenance
// operation, not a hot-path one.
//
// Returns the number of row slots reclaimed.
func (t *Table) Vacuum() int {
	dead := int(t.deadHandle.Load())
	if dead == 0 {
		return 0
	}
	fresh := newArena(t.columns)
	// Walk the primary index in batches, copying live rows into the
	// fresh arena and repointing their handles. fn runs between the
	// walk's pulls, so it may update the index it walks.
	n := 0
	index.Walk(t.primary, 0, ^uint64(0), math.MaxInt, func(pk, h uint64) bool {
		if n%index.WalkBatch == 0 {
			failpoint.Hit("memdb/vacuum/batch") // the first pair of each pulled batch
		}
		n++
		t.primary.Update(pk, fresh.alloc(t.rows.read(h)))
		return true
	})
	t.rows = fresh // the old generation is the collector's from here
	t.deadHandle.Store(0)
	return dead
}
