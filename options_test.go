package altindex

import (
	"io"
	"math"
	"path/filepath"
	"strings"
	"testing"

	"altindex/internal/core"
	"altindex/internal/dataset"
	"altindex/internal/shard"
)

// TestBadOptionsRefused holds the option values that built without an
// error before Bulkload validated its options, on a 20,000-key osm
// Bulkload: each must now be refused, by name, by core.ALT's and
// shard.ALT's Bulkload and by Load, and a refused Bulkload must leave the
// index as it was. The values that stay valid must still build.
func TestBadOptionsRefused(t *testing.T) {
	keys := dataset.Generate(dataset.OSM, 20000, 1)
	pairs := dataset.Pairs(keys)
	path := filepath.Join(t.TempDir(), "idx.snap")
	src := NewDefault()
	if err := src.Bulkload(pairs); err != nil {
		t.Fatal(err)
	}
	if err := Save(src, path); err != nil {
		t.Fatal(err)
	}

	for _, c := range []struct {
		name  string
		opts  Options
		field string // the field the error names; "" = valid
	}{
		{"GapFactor=NaN", Options{GapFactor: math.NaN()}, "GapFactor"},    // built: 19,317 of 20,000 keys in ART
		{"GapFactor=+Inf", Options{GapFactor: math.Inf(1)}, "GapFactor"},  // built: 19,317 of 20,000 keys in ART
		{"GapFactor=-Inf", Options{GapFactor: math.Inf(-1)}, "GapFactor"}, // built as GapFactor 1
		{"GapFactor=-3", Options{GapFactor: -3}, "GapFactor"},             // built as GapFactor 1
		{"ErrorBound=-5", Options{ErrorBound: -5}, "ErrorBound"},          // built as the default ε
		{"ErrorBound=-1,GapFactor=NaN", Options{ErrorBound: -1, GapFactor: math.NaN()}, "ErrorBound"},
		{"zero", Options{}, ""},
		{"GapFactor=0.5", Options{GapFactor: 0.5}, ""},
		{"GapFactor=4", Options{GapFactor: 4}, ""},
		{"ErrorBound=16", Options{ErrorBound: 16}, ""},
	} {
		t.Run(c.name, func(t *testing.T) {
			check := func(what string, err error) {
				t.Helper()
				switch {
				case c.field == "" && err != nil:
					t.Fatalf("%s: %v", what, err)
				case c.field != "" && (err == nil || !strings.Contains(err.Error(), "Options."+c.field)):
					t.Fatalf("%s: error %v, want one naming Options.%s", what, err, c.field)
				}
			}
			check("Validate", c.opts.Validate())

			sharded := c.opts
			sharded.Shards = 4
			for _, ix := range []Index{core.New(c.opts), shard.New(sharded)} {
				if err := ix.Insert(1, 1); err != nil {
					t.Fatal(err)
				}
				err := ix.Bulkload(pairs)
				check(ix.Name()+" Bulkload", err)
				want := len(pairs)
				if err != nil {
					want = 1
				}
				if ix.Len() != want {
					t.Fatalf("%s: Len %d after the Bulkload, want %d", ix.Name(), ix.Len(), want)
				}
				ix.(io.Closer).Close()
			}

			ix, err := Load(path, c.opts)
			check("Load", err)
			if err == nil {
				if ix.Len() != len(pairs) {
					t.Fatalf("Load: Len %d, want %d", ix.Len(), len(pairs))
				}
				ix.(io.Closer).Close()
			}
		})
	}
}
