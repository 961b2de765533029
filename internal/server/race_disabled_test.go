//go:build !race

package server

// See race_enabled_test.go.
const raceEnabled = false
