package core

import (
	"slices"
	"unsafe"

	"altindex/internal/art"
)

const hugePage = 2 << 20 // a PMD-sized huge page over 4 KiB base pages

// span is a run [lo, hi) of whole 2 MiB pages of the address space.
type span struct{ lo, hi uintptr }

// treeSpans returns the 2 MiB pages that hold a node of tree, as sorted,
// disjoint runs of adjacent pages. A tree whose nodes take less than one
// huge page gives none: it fits the second-level TLB on 4 KiB pages, and a
// huge page around it would mostly hold other data. For a quiescent tree.
func treeSpans(tree *art.Tree) []span {
	var bytes uintptr
	var pages []uintptr
	tree.EachNode(func(n *art.Node, size uintptr) {
		bytes += size
		a := uintptr(unsafe.Pointer(n))
		for pg := a &^ (hugePage - 1); pg < a+size; pg += hugePage {
			// Neighbours in the walk mostly share a page: skipping a repeat
			// keeps the sort below to a few pages instead of one per node
			// (1.1 M nodes at 8 M osm keys, 2 vCPU: 19 ms a call, not 44).
			if k := len(pages); k == 0 || pages[k-1] != pg {
				pages = append(pages, pg)
			}
		}
	})
	if bytes < hugePage {
		return nil
	}
	slices.Sort(pages)
	var runs []span
	for _, pg := range slices.Compact(pages) {
		if k := len(runs) - 1; k >= 0 && runs[k].hi == pg {
			runs[k].hi += hugePage
		} else {
			runs = append(runs, span{pg, pg + hugePage})
		}
	}
	return runs
}
