//go:build !failpoint

package failpoint

import "testing"

// TestSetHookPanicsUntagged: no site fires in an untagged build, so a
// chaos test that lost its build tag must fail rather than pass unstretched.
func TestSetHookPanicsUntagged(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("SetHook did not panic in an untagged build")
		}
	}()
	SetHook(func(string) {})
}
