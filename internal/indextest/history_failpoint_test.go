//go:build failpoint

package indextest

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"altindex/internal/core"
	"altindex/internal/index"
)

// TestHistoryLinearizableStretched runs TestHistoryLinearizable's matrix
// with ALT's narrow windows widened by failpoints: every insert yields or
// sleeps with its slot write-locked (core/insert/locked), and every
// retraining freeze holds its model's slots locked for a while
// (core/retrain/freeze). The insert site must fire during every ALT
// history and the freeze site during the retrain storm's. Bare ART has no
// core sites, so its entry is skipped.
func TestHistoryLinearizableStretched(t *testing.T) {
	const insertSite, freezeSite = "core/insert/locked", "core/retrain/freeze"
	for name, insert := range map[string]func(int64){
		"yield": func(int64) { runtime.Gosched() },
		"delay": func(n int64) {
			if n%10 == 0 {
				time.Sleep(20 * time.Microsecond)
			}
		},
	} {
		t.Run(name, func(t *testing.T) {
			historyMatrix(t, func(t *testing.T, ix index.Concurrent) {
				if _, ok := ix.(*core.ALT); !ok {
					t.Skip("no core failpoint sites on bare ART")
				}
				hits, _ := Arm(t, Schedule{
					insertSite: insert,
					freezeSite: func(int64) { time.Sleep(100 * time.Microsecond) },
				})
				t.Cleanup(func() {
					if hits(insertSite) == 0 {
						t.Errorf("%s never fired", insertSite)
					}
					if strings.HasSuffix(t.Name(), "/ALT-retrain-storm") && hits(freezeSite) == 0 {
						t.Errorf("%s never fired", freezeSite)
					}
				})
			})
		})
	}
}
