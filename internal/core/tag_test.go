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

	// A directory entry is one cache line: the layout copy and the model,
	// padded, so dir[i] never straddles two.
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

func TestConflictTags(t *testing.T) {
	// Two keys with distinct fingerprints.
	a, b := uint64(42), uint64(43)
	for fp8(b) == fp8(a) {
		b++
	}
	const base = slotOccupied | 5<<slotVerShift
	one := withEviction(base, a)
	if tagOf(one) != fp8(a) || one&^slotTagMask != base {
		t.Fatalf("one eviction: meta %#x, want tag %#x over %#x", one, fp8(a), base)
	}
	if again := withEviction(one, a); again != one {
		t.Fatalf("the same key twice: meta %#x, want %#x", again, one)
	}
	many := withEviction(one, b) // a second key at the same slot → "many"
	if tagOf(many) != manyTag || many&^slotTagMask != base {
		t.Fatalf("two evictions: meta %#x, want manyTag over %#x", many, base)
	}
	if tagOf(withEviction(many, a)) != manyTag {
		t.Fatal("an eviction after manyTag narrowed the tag")
	}
	// A slot write keeps the tag and sets only the state.
	if next := nextMeta(one, slotTomb); tagOf(next) != fp8(a) || stateOf(next) != slotTomb ||
		next>>slotVerShift != 6 {
		t.Fatalf("nextMeta(%#x, slotTomb) = %#x", one, next)
	}
	// The verdicts: tag 0 proves every key absent, an exact tag all but
	// its own key, manyTag none.
	for _, c := range []struct {
		meta   uint32
		key    uint64
		absent bool
	}{{base, a, true}, {one, a, false}, {one, b, true}, {many, a, false}, {many, b, false}} {
		if got := absentInART(c.key, c.meta); got != c.absent {
			t.Fatalf("absentInART(%d, %#x) = %v, want %v", c.key, c.meta, got, c.absent)
		}
	}
	// fp8 never collides with the sentinels, whatever the key.
	for _, k := range []uint64{0, 1, 42, ^uint64(0), 0x9e3779b97f4a7c15} {
		if fp := fp8(k); fp == 0 || fp == manyTag {
			t.Fatalf("fp8(%d) = %#x hits a sentinel", k, fp)
		}
	}
}

// TestSlotVersionWraps runs 2^21 writes through one slot: the version
// counts them in its 21 bits and comes back to where it started, and no
// write changes the state flags or the conflict tag below it.
func TestSlotVersionWraps(t *testing.T) {
	l := &layout{nslots: 1, slope: 1, blocks: make([]slotBlock, 1)}
	start := withEviction(slotOccupied, 42)
	l.metaRef(0).Store(start)
	const low = slotLockBit | slotOccupied | slotTomb | slotTagMask
	const versions = 1 << (32 - slotVerShift)
	for i := 1; i <= versions; i++ {
		seen := l.metaRef(0).Load()
		if !l.acquire(0, seen) {
			t.Fatalf("write %d: slot locked", i)
		}
		l.release(0, seen, stateOf(seen))
		got := l.metaRef(0).Load()
		if got&low != start&low {
			t.Fatalf("write %d: low bits %#x, want %#x", i, got&low, start&low)
		}
		if ver := got >> slotVerShift; ver != uint32(i%versions) {
			t.Fatalf("write %d: version %d", i, ver)
		}
	}
	if got := l.metaRef(0).Load(); got != start {
		t.Fatalf("after 2^21 writes meta = %#x, want the start %#x", got, start)
	}
}

func TestConflictTagsCoverBuildConflicts(t *testing.T) {
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
	// Every evicted key must read as "maybe in ART" — a false absent here
	// would lose the key.
	for _, k := range conflicts {
		if absentInART(k, m.metaRef(m.slotOf(k)).Load()) {
			t.Fatalf("build conflict key %d reported absent from ART", k)
		}
	}
	// A probe key's verdict follows its slot's tag; a runtime eviction of
	// the probe from that slot withdraws any proof of its absence.
	probe := own[len(own)-1] + 12345
	s := m.slotOf(probe)
	meta := m.metaRef(s).Load()
	tag := tagOf(meta)
	if want := tag == 0 || (tag != manyTag && tag != fp8(probe)); absentInART(probe, meta) != want {
		t.Fatalf("absentInART(%d) disagrees with the slot's tag %#x", probe, tag)
	}
	if !m.acquire(s, meta) {
		t.Fatalf("slot %d locked", s)
	}
	m.release(s, withEviction(meta, probe), stateOf(meta))
	if absentInART(probe, m.metaRef(s).Load()) {
		t.Fatal("a runtime eviction's tag proved the evicted key absent")
	}
}

// TestConflictTagNeverFalseAbsent interleaves inserts, removals and
// retrains on a deliberately conflict-heavy index (gap factor 1, tiny
// retrain floor) and checks every operation's answer against a reference
// map. The property under test: a slot's conflict tag may only ever
// produce false positives ("maybe in ART", for keys since removed from
// ART or sharing a fingerprint), never a false "absent" — a present key
// must always be found by Get/Update/Remove.
func TestConflictTagNeverFalseAbsent(t *testing.T) {
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
		ErrorBound: 64,
		GapFactor:  1, // pack slots → many build conflicts → tags in play
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
		t.Fatal("churn never retrained; rebuilt slots went unexercised")
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

// cleanSlot is a bulkloaded slot resident whose slot evicted nothing (its
// conflict tag is 0), with two keys outside the load that predict to it.
type cleanSlot struct {
	s        int
	resident uint64
	mates    [2]uint64
}

// cleanSlots returns the table position of a model with two clean slots.
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
		if n == 1 && (p != pos || s == got[0].s) {
			continue
		}
		if k, _, meta, ok := e.read(s); !ok || meta&(slotOccupied|slotTomb|slotTagMask) != slotOccupied || k != c {
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
	t.Fatal("no model with two clean slots")
	return 0, got
}

// TestRuntimeEvictionStalesOnlyItsSlot evicts one key into ART at runtime
// and checks that only the evicting slot's conflict tag changes: a clean
// slot of the same model keeps its proof, so removing its resident and
// inserting it again claims the tombstone without the key ever reaching
// ART.
func TestRuntimeEvictionStalesOnlyItsSlot(t *testing.T) {
	keys := dataset.Generate(dataset.OSM, 20000, 5)
	alt := mustBulk(t, Options{ErrorBound: 64, DisableRetraining: true}, keys)
	pos, cs := cleanSlots(t, alt, keys)
	e := &alt.tab.Load().dir[pos]
	a, b := cs[0], cs[1]
	absent := func(k uint64, s int) bool { return absentInART(k, e.metaRef(s).Load()) }
	if !absent(a.mates[0], a.s) || !absent(b.mates[0], b.s) {
		t.Fatal("clean slots' tags prove no absence before any eviction")
	}

	if err := alt.Insert(a.mates[0], 1); err != nil {
		t.Fatal(err)
	}
	if _, ok := alt.tree.Get(a.mates[0]); !ok {
		t.Fatal("the conflict insert did not reach ART")
	}
	if absent(a.mates[0], a.s) {
		t.Fatal("slot A's tag proves the key it just evicted absent")
	}
	if !absent(b.mates[0], b.s) {
		t.Fatal("a runtime eviction from slot A changed the tag of slot B")
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

// TestRuntimeEvictionKeepsTagExact evicts key A from a clean slot at
// runtime and checks that the slot still proves absence for a key whose
// fingerprint differs from A's: the eviction's release records A itself,
// not "something was evicted here".
func TestRuntimeEvictionKeepsTagExact(t *testing.T) {
	keys := dataset.Generate(dataset.OSM, 20000, 5)
	alt := mustBulk(t, Options{ErrorBound: 64, DisableRetraining: true}, keys)
	pos, cs := cleanSlots(t, alt, keys)
	e := &alt.tab.Load().dir[pos]
	for _, c := range cs {
		evicted, other := c.mates[0], c.mates[1]
		if fp8(evicted) == fp8(other) {
			continue
		}
		if err := alt.Insert(evicted, 1); err != nil {
			t.Fatal(err)
		}
		meta := e.metaRef(c.s).Load()
		if absentInART(evicted, meta) {
			t.Fatal("the slot's tag proves the evicted key absent")
		}
		if !absentInART(other, meta) {
			t.Fatalf("after evicting %#x (fp8 %#x) the slot proves nothing for %#x (fp8 %#x)",
				evicted, fp8(evicted), other, fp8(other))
		}
		if _, ok := alt.Get(other); ok {
			t.Fatal("Get found a key never inserted")
		}
		return
	}
	t.Fatal("no clean slot with two mates of distinct fingerprints")
}

// TestConflictTagSurvivesSlotWrites runs every kind of slot write against
// a slot a runtime eviction wrote a tag into and checks that none changes
// the tag, so the evicted key stays reachable and no write makes the tag
// prove it absent. Only a rebuild starts a slot clean.
func TestConflictTagSurvivesSlotWrites(t *testing.T) {
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
			if tag := tagOf(e.metaRef(c.s).Load()); tag != fp8(evicted) {
				t.Fatalf("tag %#x after %s, want the evicted key's %#x", tag, step, fp8(evicted))
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
		} {
			if !w.do() {
				t.Fatalf("%s failed", w.name)
			}
			check(w.name)
		}
	})

	// New publishes one placeholder slot that evicted nothing: its tag
	// proves ART empty until the first conflict evicts a key from it.
	t.Run("grown from New", func(t *testing.T) {
		alt := New(Options{DisableRetraining: true})
		t.Cleanup(func() { alt.Close() })
		e := &alt.tab.Load().dir[0]
		if err := alt.Insert(10, 1); err != nil {
			t.Fatal(err)
		}
		if !absentInART(20, e.metaRef(0).Load()) {
			t.Fatal("the placeholder proves no absence before any conflict")
		}
		if err := alt.Insert(20, 2); err != nil {
			t.Fatal(err)
		}
		meta := e.metaRef(0).Load()
		if tagOf(meta) != fp8(20) || absentInART(20, meta) {
			t.Fatalf("placeholder meta %#x after the first conflict: tag is not fp8(20)", meta)
		}
		if !alt.Remove(10) {
			t.Fatal("Remove of the slot resident failed")
		}
		if v, ok := alt.Get(20); !ok || v != 2 || tagOf(e.metaRef(0).Load()) != fp8(20) {
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
