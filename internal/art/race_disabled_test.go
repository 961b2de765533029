//go:build !race

package art

// See race_enabled_test.go.
const raceEnabled = false
