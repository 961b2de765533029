package core

import (
	"math/rand"
	"sort"
	"testing"
	"unsafe"

	"altindex/internal/dataset"
)

func TestSlotBlockLayout(t *testing.T) {
	// The interleaved layout is a documented contract: [8×key][8×meta]
	// [8×val] in one 160-byte struct — key and meta lanes adjacent, value
	// lanes last, and exactly the 20 bytes/slot the split arrays paid.
	var b slotBlock
	if got := unsafe.Sizeof(b); got != 160 {
		t.Fatalf("sizeof(slotBlock) = %d, want 160", got)
	}
	if off := unsafe.Offsetof(b.keys); off != 0 {
		t.Fatalf("keys offset = %d, want 0", off)
	}
	if off := unsafe.Offsetof(b.meta); off != 64 {
		t.Fatalf("meta offset = %d, want 64", off)
	}
	if off := unsafe.Offsetof(b.vals); off != 96 {
		t.Fatalf("vals offset = %d, want 96", off)
	}

	// A directory entry is one cache line: the layout copy, the model and
	// the sidecar pointer fill it exactly, so dir[i] never straddles two.
	if got := unsafe.Sizeof(entry{}); got != 64 {
		t.Fatalf("sizeof(entry) = %d, want 64", got)
	}

	// carve rounds up so every slot has a lane, with or without a slab.
	for _, nslots := range []int{1, 7, 8, 9, 16, 1000} {
		want := (nslots + blockMask) / blockSlots
		if got := len((*slab)(nil).carve(nslots)); got != want {
			t.Fatalf("carve(%d) = %d blocks, want %d", nslots, got, want)
		}
		if got := len(newSlab(want).carve(nslots)); got != want {
			t.Fatalf("slab carve(%d) = %d blocks, want %d", nslots, got, want)
		}
	}

	// The accessors and read() must address the same lanes.
	m := &layout{nslots: 20, slope: 1, blocks: make([]slotBlock, blocksFor(20))}
	for s := 0; s < m.nslots; s++ {
		m.keyRef(s).Store(uint64(100 + s))
		m.valRef(s).Store(uint64(200 + s))
		m.metaRef(s).Store(slotOccupied)
		if got := &m.blocks[s/blockSlots].keys[s%blockSlots]; got != m.keyRef(s) {
			t.Fatalf("keyRef(%d) resolves the wrong lane", s)
		}
		k, v, meta, ok := m.read(s)
		if !ok || k != uint64(100+s) || v != uint64(200+s) || stateOf(meta) != slotOccupied {
			t.Fatalf("read(%d) = (%d,%d,%x,%v)", s, k, v, meta, ok)
		}
	}
}

func TestSidecarTags(t *testing.T) {
	sc := newSidecar(12)
	sc.add(3, 0xaa)
	sc.add(7, 0x01)
	sc.add(7, 0x02) // second eviction at the same slot → "many" marker
	sc.add(9, 0xf0)
	sc.add(9, 0xf0) // same fingerprint twice stays exact
	if sc.tags[3] != 0xaa {
		t.Fatalf("tags[3] = %#x, want 0xaa", sc.tags[3])
	}
	if sc.tags[7] != scManyTag {
		t.Fatalf("tags[7] = %#x, want scManyTag", sc.tags[7])
	}
	if sc.tags[9] != 0xf0 {
		t.Fatalf("tags[9] = %#x, want 0xf0", sc.tags[9])
	}
	for _, s := range []int{0, 1, 2, 4, 5, 6, 8, 10, 11} {
		if sc.tags[s] != 0 {
			t.Fatalf("tags[%d] = %#x, want untouched", s, sc.tags[s])
		}
	}
	// fp8 never collides with the sentinels, whatever the key.
	for _, k := range []uint64{0, 1, 42, ^uint64(0), 0x9e3779b97f4a7c15} {
		if fp := fp8(k); fp == 0 || fp == scManyTag {
			t.Fatalf("fp8(%d) = %#x hits a sentinel", k, fp)
		}
	}
}

func TestSidecarCoversBuildConflicts(t *testing.T) {
	keys := dataset.Generate(dataset.OSM, 8000, 5)
	// Gap factor 1 packs the array, forcing plenty of conflicts.
	m, own, _ := buildFrom(t, keys, 512, 1.0)
	var conflicts []uint64
	for _, k := range own {
		if m.keyRef(m.slotOf(k)).Load() != k {
			conflicts = append(conflicts, k)
		}
	}
	if len(conflicts) == 0 {
		t.Skip("dataset produced no conflicts at gap 1.0")
	}
	if m.sc == nil {
		t.Fatal("model with conflicts built no sidecar")
	}
	// Every evicted key must read as "maybe in ART" — a false absent here
	// would lose the key.
	e := newEntry(m)
	for _, k := range conflicts {
		if e.absentInART(k, m.slotOf(k)) {
			t.Fatalf("build conflict key %d reported absent from ART", k)
		}
	}
	// A probe key that shares no (slot, fingerprint) with any eviction is
	// provably absent; one epoch bump withdraws the proof for everything.
	probe := own[len(own)-1] + 12345
	s := m.slotOf(probe)
	tag := m.sc.tags[s]
	wantAbsent := tag == 0 || (tag != scManyTag && tag != fp8(probe))
	if e.absentInART(probe, s) != wantAbsent {
		t.Fatalf("absentInART(%d) disagrees with sidecar content", probe)
	}
	m.artEpoch.Add(1)
	for _, k := range conflicts {
		if e.absentInART(k, m.slotOf(k)) {
			t.Fatalf("stale-epoch sidecar proved absence for %d", k)
		}
	}
	if e.absentInART(probe, s) {
		t.Fatal("stale-epoch sidecar proved absence for probe key")
	}
}

// TestSidecarNeverFalseAbsent interleaves inserts, removals and retrains on
// a deliberately conflict-heavy index (gap factor 1, tiny retrain floor)
// and checks every operation's answer against a reference map. The property
// under test: no matter how stale a model's sidecar is, it may only ever
// produce false positives ("maybe in ART"), never a false "absent" — a
// present key must always be found by Get/Update/Remove.
func TestSidecarNeverFalseAbsent(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	const span = 1 << 20
	keys := make([]uint64, 0, 4096)
	seen := map[uint64]bool{}
	for len(keys) < 4096 {
		k := uint64(r.Intn(span)) + 1
		if !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	alt := mustBulk(t, Options{
		ErrorBound:        64,
		GapFactor:         1, // pack slots → many build conflicts → sidecars in play
		RetrainMinInserts: 32,
	}, keys)

	ref := map[uint64]uint64{}
	for _, k := range keys {
		ref[k] = dataset.ValueFor(k)
	}

	check := func(step int, k uint64) {
		v, ok := alt.Get(k)
		want, present := ref[k]
		if ok != present || (present && v != want) {
			t.Fatalf("step %d: Get(%d) = (%d,%v), want (%d,%v)", step, k, v, ok, want, present)
		}
	}

	for step := 0; step < 30000; step++ {
		k := uint64(r.Intn(span)) + 1
		switch op := r.Intn(10); {
		case op < 4: // insert/upsert
			if err := alt.Insert(k, k*3); err != nil {
				t.Fatal(err)
			}
			alt.Quiesce() // a triggered rebuild finishes before the next step
			ref[k] = k * 3
		case op < 6: // remove
			removed := alt.Remove(k)
			_, present := ref[k]
			if removed != present {
				t.Fatalf("step %d: Remove(%d) = %v, want %v", step, k, removed, present)
			}
			delete(ref, k)
		case op < 8: // update
			updated := alt.Update(k, k*7)
			_, present := ref[k]
			if updated != present {
				t.Fatalf("step %d: Update(%d) = %v, want %v", step, k, updated, present)
			}
			if present {
				ref[k] = k * 7
			}
		default: // probe both the random key and a known-present one
			check(step, k)
			if len(keys) > 0 {
				check(step, keys[r.Intn(len(keys))])
			}
		}
	}
	alt.Quiesce()
	if alt.StatsMap()["retrains"] == 0 {
		t.Fatal("churn never retrained; the rebuilt-sidecar path went unexercised")
	}
	for k, want := range ref {
		if v, ok := alt.Get(k); !ok || v != want {
			t.Fatalf("final: Get(%d) = (%d,%v), want (%d,true)", k, v, ok, want)
		}
	}
	if int(alt.Len()) != len(ref) {
		t.Fatalf("Len = %d, reference holds %d", alt.Len(), len(ref))
	}
}

func BenchmarkAbsentProbe(b *testing.B) {
	keys := dataset.Generate(dataset.OSM, 200000, 3)
	alt := New(Options{})
	if err := alt.Bulkload(dataset.Pairs(keys)); err != nil {
		b.Fatal(err)
	}
	defer alt.Close()
	probes := make([]uint64, 0, len(keys))
	for i := 1; i < len(keys); i++ {
		if gap := keys[i] - keys[i-1]; gap > 1 {
			probes = append(probes, keys[i-1]+gap/2)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := alt.Get(probes[i%len(probes)]); ok {
			b.Fatal("phantom key")
		}
	}
}
