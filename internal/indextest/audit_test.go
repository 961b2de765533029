package indextest

import (
	"strings"
	"testing"

	"altindex/internal/art"
	"altindex/internal/core"
	"altindex/internal/index"
)

// wrongLen reports one key more than its index holds.
type wrongLen struct{ index.Concurrent }

func (w wrongLen) Len() int { return w.Concurrent.Len() + 1 }

// TestAuditSelfTest proves the audit can actually fail: each class of
// tampered expectation must be reported, on bare ART and on ALT. An audit
// that passes everything would make the chaos suites vacuous.
func TestAuditSelfTest(t *testing.T) {
	for name, factory := range map[string]Factory{
		"ART": func() index.Concurrent { return art.New(nil) },
		"ALT": func() index.Concurrent { return core.New(core.Options{}) },
	} {
		t.Run(name, func(t *testing.T) {
			build := func() (index.Concurrent, map[uint64]uint64) {
				ix := factory()
				t.Cleanup(func() { closeIfCloser(ix) })
				want := make(map[uint64]uint64)
				for k := uint64(10); k <= 100; k += 10 {
					if err := ix.Insert(k, k*3); err != nil {
						t.Fatal(err)
					}
					want[k] = k * 3
				}
				return ix, want
			}

			if ix, want := build(); len(Audit(ix, want)) != 0 {
				t.Fatalf("clean index reported violations: %v", Audit(ix, want))
			}

			for _, tc := range []struct {
				name    string
				tamper  func(ix index.Concurrent, want map[uint64]uint64) index.Concurrent
				needles []string
			}{
				{
					name: "lost write",
					tamper: func(ix index.Concurrent, want map[uint64]uint64) index.Concurrent {
						want[999] = 1
						return ix
					},
					needles: []string{"key 0x3e7: no linearization", "Get -> absent", "key 0x3e7 missing"},
				},
				{
					name: "stale value",
					tamper: func(ix index.Concurrent, want map[uint64]uint64) index.Concurrent {
						want[50] = 7
						return ix
					},
					needles: []string{"key 0x32: no linearization", "Get -> 0x96", "key 0x32 returned with 0x96"},
				},
				{
					name: "ghost key",
					tamper: func(ix index.Concurrent, want map[uint64]uint64) index.Concurrent {
						delete(want, 50)
						return ix
					},
					needles: []string{"key 0x32 returned with 0x96, a value no write could have left"},
				},
				{
					name: "wrong Len",
					tamper: func(ix index.Concurrent, want map[uint64]uint64) index.Concurrent {
						return wrongLen{ix}
					},
					needles: []string{"Len = 11, but the quiescent walk returned 10 keys"},
				},
			} {
				ix, want := build()
				bad := Audit(tc.tamper(ix, want), want)
				if len(bad) == 0 {
					t.Errorf("%s: tampered expectation not detected", tc.name)
					continue
				}
				for _, needle := range tc.needles {
					if !strings.Contains(strings.Join(bad, "\n"), needle) {
						t.Errorf("%s: no violation mentions %q: %v", tc.name, needle, bad)
					}
				}
			}
		})
	}
}
