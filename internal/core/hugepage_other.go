//go:build !linux

package core

import "altindex/internal/art"

// adviseHuge is Linux's transparent huge page advice; elsewhere the slab
// stays on the pages the runtime gives it.
func adviseHuge([]slotBlock) {}

// collapseHuge is Linux's huge page collapse; elsewhere Bulkload leaves
// the tree on the pages the runtime gives it.
func collapseHuge(*art.Tree) {}
