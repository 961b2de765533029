//go:build !race

package shard

// See race_enabled_test.go.
const raceEnabled = false
