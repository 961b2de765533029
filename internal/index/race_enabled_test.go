//go:build race

package index_test

// raceEnabled reports whether the race detector is compiled in. The race
// runtime makes sync.Pool drop a quarter of all Puts on purpose, so
// allocation-count assertions over pooled buffers skip themselves under it.
const raceEnabled = true
