//go:build !race

package index_test

// See race_enabled_test.go.
const raceEnabled = false
