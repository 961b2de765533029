//go:build failpoint

package indextest

import (
	"strings"
	"testing"

	"altindex/internal/core"
	"altindex/internal/failpoint"
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
	for name, insert := range map[string]string{"yield": "yield", "delay": "10%delay(20us)"} {
		t.Run(name, func(t *testing.T) {
			historyMatrix(t, func(t *testing.T, ix index.Concurrent) {
				if _, ok := ix.(*core.ALT); !ok {
					t.Skip("no core failpoint sites on bare ART")
				}
				for site, spec := range map[string]string{insertSite: insert, freezeSite: "delay(100us)"} {
					if err := failpoint.Enable(site, spec); err != nil {
						t.Fatal(err)
					}
				}
				t.Cleanup(func() {
					failpoint.DisableAll()
					if failpoint.Hits(insertSite) == 0 { // Enable zeroes a site's hits
						t.Errorf("%s never fired", insertSite)
					}
					if strings.HasSuffix(t.Name(), "/ALT-retrain-storm") && failpoint.Hits(freezeSite) == 0 {
						t.Errorf("%s never fired", freezeSite)
					}
				})
			})
		})
	}
}
