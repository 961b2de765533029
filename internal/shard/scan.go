package shard

import (
	"altindex/internal/failpoint"
	"altindex/internal/index"
)

// ScanAppend appends up to max pairs with keys in [start, end) to dst in
// ascending key order (end == ^uint64(0) means unbounded, including key
// MaxUint64 — the index.Concurrent contract). Shards own disjoint
// ascending key ranges, so the bounded sharded scan is pure concatenation
// of per-shard run-kernel scans; a shard whose exclusive upper boundary is
// at or past end finishes the window, so out-of-window shards are never
// visited.
func (t *ALT) ScanAppend(dst []index.KV, start, end uint64, max int) []index.KV {
	if max <= 0 || (end != ^uint64(0) && end <= start) {
		return dst
	}
	r := t.route.Load()
	failpoint.Hit("shard/route")
	base := len(dst)
	for s := r.shardOf(start); s <= r.last; s++ {
		dst = r.ixs[s].ScanAppend(dst, start, end, max-(len(dst)-base))
		if len(dst)-base >= max {
			break
		}
		// Shard s ran dry below the budget. Its upper boundary bounds every
		// later shard's keys from below: past end, the window is done.
		if s < r.last && end != ^uint64(0) && r.pad[s] >= end {
			break
		}
	}
	return dst
}
