//go:build failpoint

package failpoint

import (
	"slices"
	"testing"
)

func TestHookSeesEveryHit(t *testing.T) {
	var seen []string
	restore := SetHook(func(site string) { seen = append(seen, site) })
	Hit("test/a")
	Hit("test/b")
	Hit("test/a")
	if want := []string{"test/a", "test/b", "test/a"}; !slices.Equal(seen, want) {
		t.Fatalf("hook saw %q, want %q", seen, want)
	}
	restore()
	Hit("test/a")
	if len(seen) != 3 {
		t.Fatalf("hook saw %q after restore", seen[3:])
	}
}
