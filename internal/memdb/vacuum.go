package memdb

import "altindex/internal/failpoint"

// fpVacuumBatch fires once per copy batch; armed with delay/yield it
// stretches the arena rebuild window.
var fpVacuumBatch = failpoint.New("memdb/vacuum/batch")

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
	// fresh arena and repointing their handles.
	start := uint64(0)
	for {
		const batch = 1024
		fpVacuumBatch.Inject()
		type repoint struct {
			pk uint64
			h  uint64
		}
		var moves []repoint
		var last uint64
		n := 0
		t.primary.Scan(start, batch, func(pk, h uint64) bool {
			last = pk
			n++
			moves = append(moves, repoint{pk, fresh.alloc(t.rows.read(h))})
			return true
		})
		for _, mv := range moves {
			t.primary.Update(mv.pk, mv.h)
		}
		if n < batch || last == ^uint64(0) {
			break
		}
		start = last + 1
	}
	t.rows = fresh // the old generation is the collector's from here
	t.deadHandle.Store(0)
	return dead
}
