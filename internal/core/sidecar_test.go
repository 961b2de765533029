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
		s := m.slotOf(k)
		if e.absentInART(k, s, m.metaRef(s).Load()) {
			t.Fatalf("build conflict key %d reported absent from ART", k)
		}
	}
	// A probe key that shares no (slot, fingerprint) with any eviction is
	// provably absent; a spill bit on its slot withdraws the proof.
	probe := own[len(own)-1] + 12345
	s := m.slotOf(probe)
	tag := m.sc.tags[s]
	wantAbsent := tag == 0 || (tag != scManyTag && tag != fp8(probe))
	if e.absentInART(probe, s, m.metaRef(s).Load()) != wantAbsent {
		t.Fatalf("absentInART(%d) disagrees with sidecar content", probe)
	}
	spill := func(s int) uint32 {
		meta := m.metaRef(s).Load()
		if !m.acquire(s, meta) {
			t.Fatalf("slot %d locked", s)
		}
		m.release(s, meta, stateOf(meta)|slotSpill)
		return m.metaRef(s).Load()
	}
	for _, k := range conflicts {
		s := m.slotOf(k)
		if e.absentInART(k, s, spill(s)) {
			t.Fatalf("spilled slot's sidecar tag proved absence for %d", k)
		}
	}
	if e.absentInART(probe, s, spill(s)) {
		t.Fatal("spilled slot's sidecar tag proved absence for probe key")
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

// cleanSlot is a slot whose resident was bulkloaded and whose sidecar tag
// is 0, with two keys outside the load that predict to it.
type cleanSlot struct {
	s        int
	resident uint64
	mates    [2]uint64
}

// cleanSlots returns the table position of a model with a sidecar and two
// of its clean slots.
func cleanSlots(t *testing.T, alt *ALT, keys []uint64) (int, [2]cleanSlot) {
	t.Helper()
	tb := alt.tab.Load()
	loaded := make(map[uint64]bool, len(keys))
	for _, k := range keys {
		loaded[k] = true
	}
	var got [2]cleanSlot
	n, pos := 0, -1
	for _, c := range keys {
		p := tb.route(c)
		e := &tb.dir[p]
		s := e.slotOf(c)
		if e.m.sc == nil || e.m.sc.tags[s] != 0 || (n == 1 && (p != pos || s == got[0].s)) {
			continue
		}
		if k, _, meta, ok := e.read(s); !ok || stateOf(meta) != slotOccupied || k != c {
			continue
		}
		cs, ok := cleanSlot{s: s, resident: c}, true
		for i := range cs.mates {
			if cs.mates[i], ok = slotMate(tb, p, s, c, loaded); !ok {
				break
			}
			loaded[cs.mates[i]] = true
		}
		if !ok {
			continue
		}
		got[n], pos = cs, p
		if n++; n == 2 {
			return pos, got
		}
	}
	t.Fatal("no model with a sidecar and two clean slots")
	return 0, got
}

// TestRuntimeEvictionStalesOnlyItsSlot evicts one key into ART at runtime
// and checks that only the evicting slot's sidecar tag stops proving
// absence: a clean slot of the same model keeps its proof, so removing its
// resident and inserting it again claims the tombstone without the key
// ever reaching ART.
func TestRuntimeEvictionStalesOnlyItsSlot(t *testing.T) {
	keys := dataset.Generate(dataset.OSM, 20000, 5)
	alt := mustBulk(t, Options{ErrorBound: 64, DisableRetraining: true}, keys)
	pos, cs := cleanSlots(t, alt, keys)
	e := &alt.tab.Load().dir[pos]
	a, b := cs[0], cs[1]
	absent := func(k uint64, s int) bool { return e.absentInART(k, s, e.metaRef(s).Load()) }
	if !absent(a.mates[1], a.s) || !absent(b.mates[0], b.s) {
		t.Fatal("clean slots' tags prove no absence before any eviction")
	}

	if err := alt.Insert(a.mates[0], 1); err != nil {
		t.Fatal(err)
	}
	if _, ok := alt.tree.Get(a.mates[0]); !ok {
		t.Fatal("the conflict insert did not reach ART")
	}
	if absent(a.mates[1], a.s) {
		t.Fatal("slot A's tag still proves absence after a runtime eviction from A")
	}
	if !absent(b.mates[0], b.s) {
		t.Fatal("a runtime eviction from slot A staled the tag of slot B")
	}

	artKeys := alt.StatsMap()["art_keys"]
	if !alt.Remove(b.resident) {
		t.Fatal("Remove of B's resident failed")
	}
	if err := alt.Insert(b.resident, 2); err != nil {
		t.Fatal(err)
	}
	if got := alt.StatsMap()["art_keys"]; got != artKeys {
		t.Fatalf("art_keys %d -> %d across B's remove and re-insert", artKeys, got)
	}
	if k, v, meta, ok := e.read(b.s); !ok || stateOf(meta) != slotOccupied || k != b.resident || v != 2 {
		t.Fatalf("slot B holds (%d, %d, state %d), want its resident back with value 2", k, v, stateOf(meta))
	}
}

// TestSpillBitSurvivesSlotWrites runs every kind of slot write against a
// slot a runtime eviction spilled from and checks that none clears the
// spill bit, so the evicted key stays reachable and no stale tag proves it
// absent. Only a rebuild starts a slot clean.
func TestSpillBitSurvivesSlotWrites(t *testing.T) {
	t.Run("bulkloaded", func(t *testing.T) {
		keys := dataset.Generate(dataset.OSM, 20000, 5)
		alt := mustBulk(t, Options{ErrorBound: 64, DisableRetraining: true}, keys)
		pos, cs := cleanSlots(t, alt, keys)
		e := &alt.tab.Load().dir[pos]
		c := cs[0]
		evicted, claimer := c.mates[0], c.mates[1]
		if err := alt.Insert(evicted, 1); err != nil {
			t.Fatal(err)
		}
		check := func(step string) {
			t.Helper()
			if e.metaRef(c.s).Load()&slotSpill == 0 {
				t.Fatalf("no spill bit after %s", step)
			}
			if v, ok := alt.Get(evicted); !ok || v != 1 {
				t.Fatalf("Get of the evicted key after %s = %d,%v, want 1,true", step, v, ok)
			}
		}
		check("the eviction")
		for _, w := range []struct {
			name string
			do   func() bool
		}{
			{"Remove (tombstone)", func() bool { return alt.Remove(c.resident) }},
			{"tombstone claim", func() bool { return alt.Insert(claimer, 2) == nil && e.keyRef(c.s).Load() == claimer }},
			{"same-key upsert", func() bool { return alt.Insert(claimer, 3) == nil }},
			{"upsert of the ART key", func() bool { return alt.Insert(evicted, 1) == nil }},
			{"Update in the slot", func() bool { return alt.Update(claimer, 4) }},
			{"Update in ART", func() bool { return alt.Update(evicted, 1) }},
			{"freeze + unfreeze", func() bool { e.m.freeze(); e.m.unfreeze(); return true }},
		} {
			if !w.do() {
				t.Fatalf("%s failed", w.name)
			}
			check(w.name)
		}
	})

	// New publishes one placeholder slot with no sidecar: its nil sidecar
	// proves ART empty only until the first conflict spills from the slot.
	t.Run("grown from New", func(t *testing.T) {
		alt := New(Options{DisableRetraining: true})
		t.Cleanup(func() { alt.Close() })
		e := &alt.tab.Load().dir[0]
		if err := alt.Insert(10, 1); err != nil {
			t.Fatal(err)
		}
		if !e.absentInART(30, 0, e.metaRef(0).Load()) {
			t.Fatal("the placeholder proves no absence before any conflict")
		}
		if err := alt.Insert(20, 2); err != nil {
			t.Fatal(err)
		}
		meta := e.metaRef(0).Load()
		if meta&slotSpill == 0 || e.absentInART(30, 0, meta) {
			t.Fatalf("placeholder meta %#x after the first conflict: no spill bit", meta)
		}
		if !alt.Remove(10) {
			t.Fatal("Remove of the slot resident failed")
		}
		if v, ok := alt.Get(20); !ok || v != 2 || e.metaRef(0).Load()&slotSpill == 0 {
			t.Fatalf("after the tombstone: Get(20) = %d,%v, meta %#x", v, ok, e.metaRef(0).Load())
		}
	})
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
