//go:build amd64

// Package prefetch exposes the one software-prefetch hint the batch
// pipeline uses: internal/core starts model and fast-pointer lines with
// it, internal/art the nodes of a lockstep descent.
package prefetch

import "unsafe"

// T0 issues PREFETCHT0 for the cache line at p: a hint to pull the line
// into every cache level without stalling. Purely advisory — no
// architectural effect, safe on any address (nil included).
//
//go:noescape
func T0(p unsafe.Pointer)
