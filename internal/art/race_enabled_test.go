//go:build race

package art

// raceEnabled reports whether the race detector is compiled in. Tests that
// measure the allocator from one goroutine skip themselves under it: the
// instrumentation makes them ~10x slower and has nothing to observe.
const raceEnabled = true
