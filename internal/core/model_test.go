package core

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"altindex/internal/dataset"
)

// buildFrom runs the one build routine (newShells, then fillShells) over
// keys at eps and returns the first model, the keys routed to it and the
// index whose ART holds the conflicts. Every value is its key + 1.
func buildFrom(t *testing.T, keys []uint64, eps float64, gap float64) (*model, []uint64, *ALT) {
	t.Helper()
	alt := New(Options{DisableRetraining: true})
	vals := make([]uint64, len(keys))
	for i := range vals {
		vals[i] = keys[i] + 1
	}
	models := alt.fillShells(newShells(keys, eps, gap, false), keys, vals)
	if len(models) == 0 {
		t.Fatal("no models")
	}
	n := len(keys)
	if len(models) > 1 {
		n = sort.Search(len(keys), func(i int) bool { return keys[i] >= models[1].first })
	}
	return models[0], keys[:n], alt
}

func TestBuildModelPlacesOrEvicts(t *testing.T) {
	keys := dataset.Generate(dataset.OSM, 5000, 1)
	m, own, alt := buildFrom(t, keys, 256, 2.0)
	placed, conflicts := 0, 0
	for _, key := range own {
		s := m.slotOf(key)
		k, v, meta, ok := m.read(s)
		if !ok {
			t.Fatalf("slot %d locked in fresh model", s)
		}
		if stateOf(meta)&slotOccupied == 0 {
			t.Fatalf("key %d: predicted slot %d empty", key, s)
		}
		if k != key {
			// A conflict: its predicted slot holds another key
			// (invariant 2), and the key itself went to ART.
			if got, ok := alt.tree.Get(key); !ok || got != key+1 {
				t.Fatalf("conflict key %d not in ART: (%d,%v)", key, got, ok)
			}
			conflicts++
			continue
		}
		if v != key+1 {
			t.Fatalf("key %d: value %d", key, v)
		}
		placed++
	}
	if placed+conflicts != len(own) || conflicts == 0 {
		t.Fatalf("placed %d + conflicts %d != %d", placed, conflicts, len(own))
	}
	if got := m.artKeys.Load(); got != int64(conflicts) {
		t.Fatalf("model counts %d ART keys, its build evicted %d", got, conflicts)
	}
}

func TestSlotOfMonotone(t *testing.T) {
	keys := dataset.Generate(dataset.FB, 3000, 2)
	m, _, _ := buildFrom(t, keys, 128, 1.5)
	prev := -1
	step := m.first / 1000
	if step == 0 {
		step = 1
	}
	for k := uint64(0); k < m.first*2; k += step {
		s := m.slotOf(k)
		if s < prev {
			t.Fatalf("slotOf not monotone at %d: %d < %d", k, s, prev)
		}
		if s < 0 || s >= m.nslots {
			t.Fatalf("slotOf out of range: %d", s)
		}
		prev = s
	}
	if m.slotOf(0) != 0 {
		t.Fatal("keys below first must clamp to slot 0")
	}
	if m.slotOf(^uint64(0)) != m.nslots-1 {
		t.Fatal("huge keys must clamp to the last slot")
	}
}

func TestSeqlockProtocol(t *testing.T) {
	m := emptyModel(100)
	// Pristine slot.
	k, v, meta, ok := m.read(0)
	if !ok || stateOf(meta) != 0 || k != 0 || v != 0 {
		t.Fatalf("pristine read = (%d,%d,%d,%v)", k, v, meta, ok)
	}
	// Acquire with the observed meta, write, release occupied.
	if !m.acquire(0, meta) {
		t.Fatal("acquire failed on pristine slot")
	}
	// While locked, readers must fail and second acquire must fail.
	if _, _, _, ok := m.read(0); ok {
		t.Fatal("read succeeded on locked slot")
	}
	if m.acquire(0, meta) {
		t.Fatal("double acquire")
	}
	m.keyRef(0).Store(7)
	m.valRef(0).Store(70)
	m.release(0, meta, slotOccupied)
	k, v, meta2, ok := m.read(0)
	if !ok || stateOf(meta2) != slotOccupied || k != 7 || v != 70 {
		t.Fatalf("post-write read = (%d,%d,%d,%v)", k, v, meta2, ok)
	}
	if meta2 == meta {
		t.Fatal("version did not advance")
	}
	// Stale acquire (old meta) must fail.
	if m.acquire(0, meta) {
		t.Fatal("stale acquire succeeded")
	}
	// Tombstone transition.
	if !m.acquire(0, meta2) {
		t.Fatal("fresh acquire failed")
	}
	m.release(0, meta2, slotTomb)
	_, _, meta3, _ := m.read(0)
	if stateOf(meta3) != slotTomb {
		t.Fatalf("state = %d, want tombstone", stateOf(meta3))
	}
}

func TestFreezeBlocksAndPreserves(t *testing.T) {
	keys := dataset.Generate(dataset.Libio, 2000, 3)
	m, _, _ := buildFrom(t, keys, 512, 1.5)
	live := m.liveCount()
	m.freeze()
	// Every slot is now locked.
	for s := 0; s < m.nslots; s++ {
		if m.metaRef(s).Load()&slotLockBit == 0 {
			t.Fatalf("slot %d not frozen", s)
		}
	}
	fk, fv := m.frozenEntries(nil, nil)
	if len(fk) != live {
		t.Fatalf("frozenEntries %d != live %d", len(fk), live)
	}
	for i := 1; i < len(fk); i++ {
		if fk[i] <= fk[i-1] {
			t.Fatal("frozen entries not ascending")
		}
	}
	for i, k := range fk {
		if fv[i] != k+1 {
			t.Fatalf("frozen value mismatch at %d", k)
		}
	}
}

func TestTableRouteAndBounds(t *testing.T) {
	tb := tableOf(10, 100, 1000)
	cases := []struct {
		key  uint64
		want int
	}{
		{0, 0}, {9, 0}, {10, 0}, {99, 0},
		{100, 1}, {999, 1},
		{1000, 2}, {^uint64(0), 2},
	}
	for _, c := range cases {
		if i := tb.route(c.key); i != c.want {
			t.Fatalf("route(%d) = %d, want %d", c.key, i, c.want)
		}
	}
	if tb.upperBound(0) != 100 || tb.upperBound(1) != 1000 || tb.upperBound(2) != ^uint64(0) {
		t.Fatal("upperBound wrong")
	}
}

func TestMergeSorted(t *testing.T) {
	a := []uint64{1, 3, 5, 7}
	av := []uint64{10, 30, 50, 70}
	b := []uint64{2, 3, 6}
	bv := []uint64{20, 99, 60}
	keys, vals := mergeSorted(a, av, b, bv)
	wantK := []uint64{1, 2, 3, 5, 6, 7}
	wantV := []uint64{10, 20, 30, 50, 60, 70} // dup key 3 keeps the model value
	if len(keys) != len(wantK) {
		t.Fatalf("merged %d keys, want %d", len(keys), len(wantK))
	}
	for i := range wantK {
		if keys[i] != wantK[i] || vals[i] != wantV[i] {
			t.Fatalf("merge[%d] = (%d,%d), want (%d,%d)", i, keys[i], vals[i], wantK[i], wantV[i])
		}
	}
	// Empty sides.
	if k, _ := mergeSorted(nil, nil, b, bv); len(k) != 3 {
		t.Fatal("merge with empty left")
	}
	if k, _ := mergeSorted(a, av, nil, nil); len(k) != 4 {
		t.Fatal("merge with empty right")
	}
}

func TestQuickBuildModelInvariants(t *testing.T) {
	f := func(seed int64, rawGap uint8) bool {
		r := rand.New(rand.NewSource(seed))
		n := 50 + r.Intn(1000)
		keys := make([]uint64, n)
		cur := uint64(r.Int63n(1 << 40))
		for i := range keys {
			cur += 1 + uint64(r.Int63n(1<<uint(1+r.Intn(16))))
			keys[i] = cur
		}
		gap := 1.0 + float64(rawGap%30)/10
		alt := New(Options{DisableRetraining: true})
		models := alt.fillShells(newShells(keys, 64, gap, false), keys, keys)
		placed := 0
		for i, m := range models {
			// Occupied slots strictly ascend in key.
			var prev uint64
			seen := 0
			for s := 0; s < m.nslots; s++ {
				if m.metaRef(s).Load()&slotOccupied == 0 {
					continue
				}
				k := m.keyRef(s).Load()
				if seen > 0 && k <= prev {
					return false
				}
				prev = k
				seen++
			}
			placed += seen
			// Every key routed to the model either sits at its slot, or
			// its slot is occupied by another key and it is in ART, where
			// the model counts it.
			inART := int64(0)
			for _, k := range keys {
				if k < m.first || i+1 < len(models) && k >= models[i+1].first {
					continue
				}
				s := m.slotOf(k)
				sk := m.keyRef(s).Load()
				if m.metaRef(s).Load()&slotOccupied == 0 {
					return false
				}
				v, ok := alt.tree.Get(k)
				if (sk == k) == ok || ok && v != k {
					return false
				}
				if ok {
					inART++
				}
			}
			if inART != m.artKeys.Load() {
				return false
			}
		}
		return placed+alt.tree.Len() == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
