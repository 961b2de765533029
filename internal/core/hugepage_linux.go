package core

import (
	"syscall"
	"unsafe"
)

const hugePage = 2 << 20 // a PMD-sized huge page over 4 KiB base pages

// adviseHuge asks the kernel to back b's 2 MiB-aligned interior with
// transparent huge pages. Called before the first write, so fresh memory
// faults straight into them; the Go runtime advises no heap memory itself.
// Best effort: under THP "never" the slots stay on 4 KiB pages.
func adviseHuge(b []slotBlock) {
	p := unsafe.Pointer(unsafe.SliceData(b))
	lo := (uintptr(p) + hugePage - 1) &^ (hugePage - 1)
	hi := (uintptr(p) + uintptr(len(b))*unsafe.Sizeof(slotBlock{})) &^ (hugePage - 1)
	if lo < hi {
		_ = syscall.Madvise(unsafe.Slice((*byte)(unsafe.Add(p, lo-uintptr(p))), hi-lo), syscall.MADV_HUGEPAGE)
	}
}
