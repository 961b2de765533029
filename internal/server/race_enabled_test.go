//go:build race

package server

// raceEnabled reports whether the race detector is compiled in. The race
// runtime makes sync.Pool drop a quarter of all Puts on purpose, so heap
// growth under -race measures garbage from dropped buffers rather than what
// the server retains, and heap-bound assertions skip themselves.
const raceEnabled = true
