package core

import (
	"math"
	"slices"
	"testing"

	"altindex/internal/dataset"
	"altindex/internal/gpl"
)

// midpointPlacement places one GPL segment's keys, ascending, on the slot
// line of GPL's midpoint slope scaled by gap, and returns the slots that
// line takes and the keys it finds their slot taken for.
func midpointPlacement(keys []uint64, seg gpl.Segment, gap float64) (slots, evicted int) {
	l := layout{first: seg.First, slope: seg.Slope * gap}
	l.nslots = max(int(l.slope*float64(keys[len(keys)-1]-seg.First)+0.5)+1, len(keys))
	taken := make([]bool, l.nslots)
	for _, k := range keys {
		s := l.slotOf(k)
		if taken[s] {
			evicted++
		}
		taken[s] = true
	}
	return l.nslots, evicted
}

// TestSlotFitIsParetoStep pins fitSlope's guarantee on a default Bulkload
// of each dataset: against the midpoint line over the same segment, every
// model takes no more slots and sends no more keys to ART, and the
// dataset takes fewer slots in all. Under the midpoint rule the totals are
// equal and the test fails.
func TestSlotFitIsParetoStep(t *testing.T) {
	for _, name := range dataset.Names() {
		t.Run(string(name), func(t *testing.T) {
			keys := dataset.Generate(name, 200000, 1)
			alt := mustBulk(t, Options{}, keys)
			segs := gpl.Partition(keys, alt.opts.errorBound(len(keys)))
			tb := alt.tab.Load()
			if len(tb.dir) != len(segs) {
				t.Fatalf("%d models from %d segments", len(tb.dir), len(segs))
			}
			fitSlots, midSlots, fitEvicted, midEvicted, off := 0, 0, 0, 0, 0
			for i, seg := range segs {
				m := tb.dir[i].m
				slots, evicted := midpointPlacement(keys[off:off+seg.N], seg, alt.opts.GapFactor)
				off += seg.N
				inART := int(m.artKeys.Load())
				if m.nslots > slots || inART > evicted {
					t.Fatalf("model %d (%d keys): %d slots and %d keys in ART, the midpoint line %d and %d",
						i, seg.N, m.nslots, inART, slots, evicted)
				}
				fitSlots += m.nslots
				midSlots += slots
				fitEvicted += inART
				midEvicted += evicted
			}
			n := float64(len(keys))
			t.Logf("%s: %d models, slots per key %.2f → %.2f, keys in ART %d → %d",
				name, len(segs), float64(midSlots)/n, float64(fitSlots)/n, midEvicted, fitEvicted)
			if fitSlots >= midSlots {
				t.Errorf("%s: %d slots, the midpoint lines %d: the fit saved none", name, fitSlots, midSlots)
			}
		})
	}
}

// TestModelCountFollowsEpsilon is the model-count predicate: on every
// dataset a larger ε never gives ALT more models, and a default Bulkload
// keeps GPL's segmentation, one model routed from each segment's first key.
func TestModelCountFollowsEpsilon(t *testing.T) {
	for _, name := range dataset.Names() {
		t.Run(string(name), func(t *testing.T) {
			keys := dataset.Generate(name, 200000, 1)
			var counts []int
			prev := math.MaxInt
			for _, eps := range []int{16, 64, 256, 1024} {
				n := len(mustBulk(t, Options{ErrorBound: eps}, keys).tab.Load().dir)
				if n > prev {
					t.Errorf("%s: ε %d gives %d models, more than the %d of the ε below it", name, eps, n, prev)
				}
				counts = append(counts, n)
				prev = n
			}
			t.Logf("%s: models at ε 16, 64, 256, 1024: %v", name, counts)

			alt := mustBulk(t, Options{}, keys)
			var firsts []uint64
			for _, seg := range gpl.Partition(keys, alt.opts.errorBound(len(keys))) {
				firsts = append(firsts, seg.First)
			}
			if bounds := alt.tab.Load().bounds; !slices.Equal(bounds, firsts) {
				t.Errorf("%s: %d routing bounds, not the firsts of GPL's %d segments", name, len(bounds), len(firsts))
			}
		})
	}
}

// TestHugeErrorBoundBoundsSlots bulkloads 20 K osm keys at an explicit ε of
// 2^40, whose GPL midpoint lines once sized a slab of about 200 GB: every
// model's slots stay within gap slots for each of its keys and each of
// MaxDefaultErrorBound's positions, the cap fitSlope puts on the midpoint.
func TestHugeErrorBoundBoundsSlots(t *testing.T) {
	keys := dataset.Generate(dataset.OSM, 20000, 1)
	alt := mustBulk(t, Options{ErrorBound: 1 << 40}, keys)
	tb := alt.tab.Load()
	slots := 0
	for i := range tb.dir {
		m := tb.dir[i].m
		n := m.liveCount() + int(m.artKeys.Load()) // the segment's keys
		if limit := alt.opts.GapFactor*float64(n-1+MaxDefaultErrorBound) + 1.5; float64(m.nslots) > limit {
			t.Fatalf("model %d (%d keys) has %d slots, above the %.0f bound", i, n, m.nslots, limit)
		}
		slots += m.nslots
	}
	t.Logf("%d models, %.2f slots per key", len(tb.dir), float64(slots)/float64(len(keys)))
}
