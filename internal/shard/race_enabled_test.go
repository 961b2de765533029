//go:build race

package shard

// raceEnabled reports whether the race detector is compiled in. The race
// runtime makes sync.Pool drop a quarter of all Puts on purpose (to widen
// the racy window it can observe), so allocation-count assertions over
// pooled scratch are meaningless under -race and skip themselves.
const raceEnabled = true
