//go:build !linux

package core

// adviseHuge is Linux's transparent huge page advice; elsewhere the slab
// stays on the pages the runtime gives it.
func adviseHuge([]slotBlock) {}
