package shard

import (
	"fmt"
	"strings"
)

// StatsMap implements index.Stats. Per-shard counters are aggregated
// across shards — summed, except high-water keys (suffix "_max_ns"), which
// take the maximum — and the skew monitor is appended: per-shard routed-op
// counts plus the max/mean imbalance ratio. A perfectly balanced workload
// reports shard_imbalance_x100 == 100; a hot shard drives it up — the
// signal an operator reads to decide the next Bulkload needs a different
// shard count.
func (t *ALT) StatsMap() map[string]int64 {
	r := t.route.Load()
	out := make(map[string]int64, 32)
	for i := range r.shards {
		for k, v := range r.shards[i].ix.StatsMap() {
			if strings.HasSuffix(k, "_max_ns") {
				if v > out[k] {
					out[k] = v
				}
			} else {
				out[k] += v
			}
		}
	}

	ns := int64(r.last + 1)
	out["shards"] = ns
	var total, max int64
	for i := range r.shards {
		ops := r.shards[i].ops.Load()
		out[fmt.Sprintf("shard_ops_%02d", i)] = ops
		total += ops
		if ops > max {
			max = ops
		}
	}
	mean := total / ns
	out["shard_ops_total"] = total
	out["shard_ops_max"] = max
	out["shard_ops_mean"] = mean
	if mean > 0 {
		out["shard_imbalance_x100"] = max * 100 / mean
	}
	return out
}
