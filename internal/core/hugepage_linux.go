package core

import (
	"syscall"
	"unsafe"

	"altindex/internal/art"
)

// madvCollapse is MADV_COLLAPSE (Linux 6.1), which package syscall lacks.
const madvCollapse = 25

// adviseHuge asks the kernel to back b's 2 MiB-aligned interior with
// transparent huge pages. Called before the first write, so fresh memory
// faults straight into them; the Go runtime advises no heap memory itself.
// Best effort: under THP "never" the slots stay on 4 KiB pages.
func adviseHuge(b []slotBlock) { madvise(interior(b), syscall.MADV_HUGEPAGE) }

// interior returns the 2 MiB pages that lie wholly inside b, or an empty
// span when b holds none.
func interior(b []slotBlock) span {
	p := uintptr(unsafe.Pointer(unsafe.SliceData(b)))
	lo := (p + hugePage - 1) &^ (hugePage - 1)
	hi := (p + uintptr(len(b))*unsafe.Sizeof(slotBlock{})) &^ (hugePage - 1)
	return span{lo, max(lo, hi)}
}

// collapseHuge is Bulkload's last step: it asks the kernel to put every
// 2 MiB page that holds a node of tree (treeSpans) on huge pages now,
// copying what 4 KiB pages already hold. The nodes are allocated by the
// tree's inserts, in heap the runtime may have had for a while, so unlike
// the slab they cannot be advised before their first write. It collapses
// and does not advise: a range marked MADV_HUGEPAGE lets khugepaged refill
// the pages the runtime's scavenger gives back. Best effort: on a kernel
// without the call (before Linux 6.1) nothing changes.
func collapseHuge(tree *art.Tree) {
	for _, s := range treeSpans(tree) {
		madvise(s, madvCollapse)
	}
}

// madvise gives s the advice, ignoring errors.
func madvise(s span, advice uintptr) {
	if s.lo < s.hi {
		syscall.Syscall(syscall.SYS_MADVISE, s.lo, s.hi-s.lo, advice)
	}
}
