//go:build failpoint

package indextest

import (
	"sync/atomic"
	"testing"

	"altindex/internal/failpoint"
)

// Schedule says what a hit on each failpoint site does. The func gets the
// site's 1-based hit count, so "every 50th hit" is n%50 == 0 and "the
// first hit only" is n == 1; a nil func only counts.
type Schedule map[string]func(n int64)

// Arm sets the failpoint hook to run sched until disarm or t's cleanup,
// and returns the hit count of each site in sched (0 for any other).
func Arm(t testing.TB, sched Schedule) (hits func(site string) int64, disarm func()) {
	type site struct {
		n  atomic.Int64
		do func(int64)
	}
	sites := make(map[string]*site, len(sched))
	for name, do := range sched {
		sites[name] = &site{do: do}
	}
	disarm = failpoint.SetHook(func(name string) {
		if s := sites[name]; s != nil {
			if n := s.n.Add(1); s.do != nil {
				s.do(n)
			}
		}
	})
	t.Cleanup(disarm)
	return func(name string) int64 {
		if s := sites[name]; s != nil {
			return s.n.Load()
		}
		return 0
	}, disarm
}
