package shard

import (
	"fmt"
	"strings"
)

// StatsMap implements index.Stats. Per-shard counters are aggregated
// across shards — summed, except high-water keys (suffix "_max_ns"), which
// take the maximum — and the skew monitor is appended, read from each
// shard's live key count at call time: shard_keys_NN per shard,
// shard_keys_max, and shard_imbalance_x100, the max/mean ratio scaled by
// 100. A layout fresh from Bulkload's equal-depth quantiles reports about
// 100; inserts piling into one shard's range drive it up — the signal that
// a re-bulkload, which recomputes the quantiles, is due.
func (t *ALT) StatsMap() map[string]int64 {
	r := t.route.Load()
	out := make(map[string]int64, 32)
	var total, max int64
	for i, ix := range r.ixs {
		for k, v := range ix.StatsMap() {
			if strings.HasSuffix(k, "_max_ns") {
				if v > out[k] {
					out[k] = v
				}
			} else {
				out[k] += v
			}
		}
		n := int64(ix.Len())
		out[fmt.Sprintf("shard_keys_%02d", i)] = n
		total += n
		if n > max {
			max = n
		}
	}
	ns := int64(len(r.ixs))
	out["shards"] = ns
	out["shard_keys_max"] = max
	if total > 0 {
		out["shard_imbalance_x100"] = max * 100 * ns / total
	}
	return out
}
