// Package failpoint is the seam through which chaos tests stretch the
// concurrency protocol of this repository (persistence faults come from
// the file-system seam, internal/fsys, instead). Production code marks a
// protocol edge with Hit("core/retrain/freeze") and so on; DESIGN.md §5
// catalogs the sites.
//
// A test built with -tags failpoint sees every hit through SetHook and
// decides in Go what the hit does: sleep, yield, park, panic. An untagged
// build compiles every Hit away, so production keeps no site.
package failpoint

import "sync/atomic"

var hook atomic.Pointer[func(site string)]

// SetHook makes h see every Hit before the code after it runs. The
// returned func removes h. Only tests set a hook, and only in a build
// tagged failpoint: an untagged one panics, since none of its sites fire.
func SetHook(h func(site string)) (restore func()) {
	if !Tagged {
		panic("failpoint: SetHook in a build without -tags failpoint")
	}
	hook.Store(&h)
	return func() { hook.Store(nil) }
}

// Hit marks the protocol edge site. It does nothing unless the build is
// tagged failpoint and a hook is set.
func Hit(site string) {
	if Tagged {
		if h := hook.Load(); h != nil {
			(*h)(site)
		}
	}
}
