package core

// Resident-key export: a cheap, sampled view of the keys currently held
// in the learned layer, for callers that resample the CDF rather than
// read the data — the shard rebalancer (internal/shard) picks split
// boundaries from it without draining the index.

// ResidentKeys returns up to max keys currently resident in the learned
// layer, in ascending order, sampled with an even stride across the slot
// space so the result tracks the empirical CDF. ART-resident conflict
// keys are not visited: they cluster at their predicted (sampled) slots,
// so their omission does not bias a boundary estimate. Best-effort under
// concurrent writers — a slot frozen by retraining is skipped — which is
// exactly the fidelity a rebalance heuristic needs, at a fraction of a
// scan's cost.
func (t *ALT) ResidentKeys(max int) []uint64 {
	if max < 2 {
		max = 2
	}
	g := t.ebr.Pin()
	defer g.Unpin()
	tab := t.tab.Load()
	total := 0
	for i := range tab.dir {
		total += tab.dir[i].nslots
	}
	if total == 0 {
		// Untrained index: everything lives in ART; sample its range scan.
		out := make([]uint64, 0, max)
		t.tree.Scan(0, max, func(k, _ uint64) bool {
			out = append(out, k)
			return true
		})
		return out
	}
	// Slot stride targeting ~max samples; occupancy (~1/GapFactor) thins
	// the yield further, which only widens the stride's effective spacing.
	stride := total / max
	if stride < 1 {
		stride = 1
	}
	out := make([]uint64, 0, min(max, total/stride+1))
	for i := range tab.dir {
		e := &tab.dir[i]
		for s := 0; s < e.nslots && len(out) < max; s += stride {
			k, _, st, ok := e.read(s)
			if !ok || st&slotOccupied == 0 {
				continue
			}
			out = append(out, k)
		}
		if len(out) >= max {
			break
		}
	}
	return out
}
