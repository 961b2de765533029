package shard

import "strings"

// StatsMap implements index.Stats. Per-shard counters are aggregated
// across shards — summed, except high-water keys (suffix "_max_ns"), which
// take the maximum.
func (t *ALT) StatsMap() map[string]int64 {
	out := make(map[string]int64, 32)
	for _, ix := range t.route.Load().ixs {
		for k, v := range ix.StatsMap() {
			if strings.HasSuffix(k, "_max_ns") {
				out[k] = max(out[k], v)
			} else {
				out[k] += v
			}
		}
	}
	return out
}
