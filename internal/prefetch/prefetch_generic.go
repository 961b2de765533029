//go:build !amd64

package prefetch

import "unsafe"

// T0 is a no-op on architectures without an exposed prefetch instruction.
func T0(p unsafe.Pointer) { _ = p }
