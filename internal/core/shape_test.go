package core

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"altindex/internal/dataset"
	"altindex/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/shape.golden from this build")

const shapeGolden = "testdata/shape.golden"

// shapeKeys is the ledger's scale: large enough that every dataset builds
// hundreds of models at the default ε, small enough for tier-1.
const shapeKeys = 200000

// shapeOf is what the ledger records of one built index.
func shapeOf(ix *ALT) string {
	st := ix.StatsMap()
	n := float64(ix.Len())
	return fmt.Sprintf("models=%d slots_per_key=%.4f art_keys=%d b_per_key=%.2f",
		st["models"], float64(st["slots"])/n, st["art_keys"], float64(ix.MemoryUsage())/n)
}

// TestShapeLedger records, per dataset at 200 K keys (seed 1, one
// writer), the shape of three builds of the same keys: a Bulkload of all
// of them; a Bulkload of half (workload.SplitLoad) grown by the other half
// with retraining off, which isolates what the learned layer's spare slots
// absorb; and the same growth with retraining. Every row must match
// testdata/shape.golden exactly, so the retraining row drains the pipeline
// after every insert: left to the worker's timing, the ART keys of fb's
// row ranged from 7.6 K to 17.7 K over twelve runs. A change that moves a
// row regenerates the file with -update, and its diff is the change's
// effect.
func TestShapeLedger(t *testing.T) {
	if testing.Short() {
		t.Skip("builds twelve 200 K-key indexes")
	}
	raw, err := os.ReadFile(shapeGolden)
	if err != nil && !*update {
		t.Fatal(err)
	}
	golden := map[string]string{}
	for _, l := range strings.Split(string(raw), "\n") {
		if id, rest, ok := strings.Cut(l, ": "); ok && !strings.HasPrefix(l, "#") {
			golden[id] = rest
		}
	}
	var regen strings.Builder
	regen.WriteString("# TestShapeLedger: 200 K keys per dataset, seed 1, one writer.\n")
	for _, ds := range dataset.Names() {
		keys := dataset.Generate(ds, shapeKeys, 1)
		bulk := mustBulk(t, Options{}, keys)
		loaded, pending := workload.SplitLoad(keys, 0.5, 1)
		rows := []struct {
			build string
			ix    *ALT
		}{
			{"bulkload", bulk},
			{"half+grow", growFrom(t, Options{DisableRetraining: true}, loaded, pending)},
			{"half+grow+retrain", growFrom(t, Options{}, loaded, pending)},
		}
		for _, r := range rows {
			id, got := string(ds)+" "+r.build, shapeOf(r.ix)
			regen.WriteString(id + ": " + got + "\n")
			if want := golden[id]; !*update && got != want {
				t.Errorf("%s drifted from %s\n got: %s\nwant: %s", id, shapeGolden, got, want)
			}
		}
	}
	if *update {
		if err := os.WriteFile(shapeGolden, []byte(regen.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// growFrom bulkloads loaded into a fresh index and inserts pending in
// order from one goroutine, draining the retraining pipeline after each.
func growFrom(t *testing.T, opts Options, loaded, pending []uint64) *ALT {
	t.Helper()
	ix := mustBulk(t, opts, loaded)
	for _, k := range pending {
		if err := ix.Insert(k, dataset.ValueFor(k)); err != nil {
			t.Fatal(err)
		}
		ix.Quiesce()
	}
	return ix
}
