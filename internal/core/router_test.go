package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"unsafe"

	"altindex/internal/dataset"
	"altindex/internal/gpl"
	"altindex/internal/index"
)

// routed returns the model tb routes key to and its table position.
func routed(tb *table, key uint64) (*model, int) {
	pos := tb.route(key)
	return tb.dir[pos].m, pos
}

// tableOf builds a table of one-slot models with the given boundaries.
func tableOf(bounds ...uint64) *table {
	dir := make([]entry, len(bounds))
	for i, b := range bounds {
		dir[i] = newEntry(emptyModel(b))
	}
	return newTable(bounds, dir, 0)
}

// tableViolations audits the directory invariants every published table
// must satisfy, given that the tree holds artKeys keys; nil means
// consistent. The models' ART key counts must sum to artKeys, so pass
// the tree's Len only once no writer or rebuild runs.
func tableViolations(tb *table, artKeys int) error {
	n := len(tb.dir)
	if len(tb.bounds) != n {
		return fmt.Errorf("len(bounds) = %d, len(dir) = %d", len(tb.bounds), n)
	}
	if want := n > 0 && n < 1<<rtIdxBits; (len(tb.rt.rt) > 0) != want {
		return fmt.Errorf("router present = %v with %d models", !want, n)
	}
	if _, err := routerDepth(&tb.rt, n); err != nil {
		return err
	}
	if err := blockViolations(tb); err != nil {
		return err
	}
	for i := range tb.dir {
		e, b := &tb.dir[i], tb.bounds[i]
		if i > 0 && b <= tb.bounds[i-1] {
			return fmt.Errorf("bounds[%d] = %#x not above bounds[%d] = %#x", i, b, i-1, tb.bounds[i-1])
		}
		m := e.m
		if m == nil {
			return fmt.Errorf("dir[%d] has no model", i)
		}
		if e.first != m.first || e.slope != m.slope || e.nslots != m.nslots ||
			len(e.blocks) != len(m.blocks) || (len(e.blocks) > 0 && &e.blocks[0] != &m.blocks[0]) {
			return fmt.Errorf("dir[%d] is not a copy of its model's layout", i)
		}
		// The prediction origin lies inside the routed range, which is
		// what lets the retrainer find a model again by its origin.
		if e.first < b || (i+1 < n && e.first >= tb.bounds[i+1]) {
			return fmt.Errorf("dir[%d] origin %#x outside its range from %#x", i, e.first, b)
		}
		if got := tb.route(b); got != i {
			return fmt.Errorf("route(bounds[%d]) = %d", i, got)
		}
	}
	counted := int64(0)
	for i := range tb.dir {
		counted += tb.dir[i].m.artKeys.Load()
	}
	if counted != int64(artKeys) {
		return fmt.Errorf("models count %d ART keys, the tree holds %d", counted, artKeys)
	}
	return nil
}

// blockViolations audits the slot storage of tb's entries: each holds
// cap(blocks) == len(blocks), so no model can grow into a neighbour, and no
// two entries' blocks overlap. A Bulkload carves every model from one slab,
// so a carving bug would otherwise show only as two models writing the
// same slots.
func blockViolations(tb *table) error {
	type span struct {
		lo, hi uintptr
		i      int
	}
	spans := make([]span, 0, len(tb.dir))
	for i := range tb.dir {
		b := tb.dir[i].blocks
		if cap(b) != len(b) {
			return fmt.Errorf("dir[%d] blocks: cap %d != len %d", i, cap(b), len(b))
		}
		if len(b) > 0 {
			lo := uintptr(unsafe.Pointer(&b[0]))
			spans = append(spans, span{lo, lo + uintptr(len(b))*unsafe.Sizeof(slotBlock{}), i})
		}
	}
	sort.Slice(spans, func(a, b int) bool { return spans[a].lo < spans[b].lo })
	for j := 1; j < len(spans); j++ {
		if p, s := spans[j-1], spans[j]; s.lo < p.hi {
			return fmt.Errorf("dir[%d] blocks overlap dir[%d] blocks", s.i, p.i)
		}
	}
	return nil
}

// routerDepth audits r's packed entries over an n-model directory and
// returns how deep its sub-tables nest. Every bracket must lie inside the
// directory, every reference inside sub, and every sub-table must be
// reached exactly once, no deeper than the grid's shift leaves room for.
// Past the clamp windows, no key may be left a bracket wider than nestWide
// in a window wide enough to split.
func routerDepth(r *router, n int) (depth int, err error) {
	if len(r.sub)%subWindows != 0 {
		return 0, fmt.Errorf("router: %d sub entries is no whole number of tables", len(r.sub))
	}
	seen := make([]bool, len(r.sub)/subWindows)
	var walk func(e uint64, d int) error
	walk = func(e uint64, d int) error {
		lo, hi, ref := int(e&rtIdxMask), int(e>>rtIdxBits&rtIdxMask), int(e>>(2*rtIdxBits))
		if lo > hi || hi >= n {
			return fmt.Errorf("router: bracket [%d, %d] at depth %d outside %d models", lo, hi, d, n)
		}
		if ref == 0 {
			if hi-lo > nestWide && r.shift >= uint(d+1)*subBits {
				return fmt.Errorf("router: grid bracket [%d, %d] at depth %d wider than %d", lo, hi, d, nestWide)
			}
			return nil
		}
		if ref > len(seen) || seen[ref-1] {
			return fmt.Errorf("router: sub-table ref %d of %d at depth %d out of range or shared", ref, len(seen), d)
		}
		if d++; uint(d)*subBits > r.shift {
			return fmt.Errorf("router: sub-tables nest %d deep under shift %d", d, r.shift)
		}
		seen[ref-1] = true
		depth = max(depth, d)
		for _, se := range r.sub[(ref-1)*subWindows : ref*subWindows] {
			if err := walk(se, d); err != nil {
				return err
			}
		}
		return nil
	}
	for i, e := range r.rt {
		if i == 0 || i == len(r.rt)-1 {
			// Clamp windows: wide by design, never sub-tabled.
			if e>>(2*rtIdxBits) != 0 || int(e&rtIdxMask) > int(e>>rtIdxBits) || int(e>>rtIdxBits) >= n {
				return 0, fmt.Errorf("router: clamp window %d entry %#x", i, e)
			}
			continue
		}
		if err := walk(e, 0); err != nil {
			return 0, err
		}
	}
	for ref, ok := range seen {
		if !ok {
			return 0, fmt.Errorf("router: sub-table %d unreferenced", ref+1)
		}
	}
	return depth, nil
}

// checkTable drains idx's retraining and fails the test if its published
// table breaks an invariant. No writer may run.
func checkTable(t *testing.T, idx *ALT) {
	t.Helper()
	idx.Quiesce()
	if err := tableViolations(idx.tab.Load(), idx.tree.Len()); err != nil {
		t.Fatalf("table invariant: %v", err)
	}
}

// refRoute is the routing oracle: the rightmost boundary <= key by the
// standard library's binary search, clamped to position 0.
func refRoute(bounds []uint64, key uint64) int {
	return max(0, sort.Search(len(bounds), func(i int) bool { return bounds[i] > key })-1)
}

// TestRouteMatchesReference is the differential routing test: route must
// agree with refRoute on directories built to stress every decode path of
// the router, for keys on, beside, between, below and above the boundaries.
func TestRouteMatchesReference(t *testing.T) {
	const top = ^uint64(0)
	mk := func(n int, gen func(i int) uint64) []uint64 {
		fs := make([]uint64, n)
		for i := range fs {
			fs[i] = gen(i)
		}
		return fs
	}
	bulk := func(kind dataset.Name) []uint64 {
		a := New(Options{})
		if err := a.Bulkload(dataset.Pairs(dataset.Generate(kind, 50000, 3))); err != nil {
			t.Fatal(err)
		}
		checkTable(t, a)
		return a.tab.Load().bounds
	}
	cases := []struct {
		name   string
		bounds []uint64
		depth  int // the sub-table nesting the directory must force
	}{
		{name: "one-model", bounds: []uint64{1 << 40}},
		{name: "one-model-at-zero", bounds: []uint64{0}},
		{name: "two-models-one-window", bounds: []uint64{1 << 40, 1<<40 + 1}},
		{name: "uniform", bounds: bulk(dataset.Uniform)},
		// OSM packs most models into a few windows, which drives queries
		// through the sub-tables.
		{name: "osm", bounds: bulk(dataset.OSM), depth: 1},
		// Dense clusters far apart: wide brackets right next to windows
		// that hold nothing.
		{name: "clusters", depth: 1, bounds: mk(4000, func(i int) uint64 {
			return uint64(i/1000)<<60 + 1<<50 + uint64(i%1000)*4096
		})},
		// Clusters of clusters: each grid window's sub-table holds whole
		// sub-clusters in one sub-window, whose own tables must nest again.
		{name: "clusters-in-clusters", depth: 2, bounds: mk(6400, func(i int) uint64 {
			return uint64(i/800)<<58 + uint64(i/100%8)<<40 + uint64(i%100)*4096
		})},
		// fb's shape: a dense body and a top percentile of outliers that
		// stretches the boundaries' span ~2^30-fold. The grid must stay on
		// the body (sub-tables included) and the tail in the clamp window.
		{name: "outlier-tail", depth: 1, bounds: mk(5000, func(i int) uint64 {
			if i < 4950 {
				return 1<<32 + uint64(i/50)<<20 + uint64(i%50)*64
			}
			return 1<<40 + uint64(i-4950)<<55
		})},
		// The tail of fb's last equal-depth quarter: 7 % of the models are
		// outliers, beyond the trim, so the grid spans them and window 0
		// holds the whole body. Only nested tables narrow it.
		{name: "outlier-tail-past-trim", depth: 2, bounds: mk(5000, func(i int) uint64 {
			if i < 4650 {
				return 1<<32 + uint64(i/50)<<20 + uint64(i%50)*64
			}
			return 1<<40 + uint64(i-4650)<<52
		})},
		// The mirror image: outliers below the body.
		{name: "outlier-head", bounds: mk(5000, func(i int) uint64 {
			if i < 50 {
				return uint64(i) << 50
			}
			return 1<<62 + uint64(i)*4096
		})},
		// The three ways a window start can overflow uint64: the span ends
		// exactly at MaxUint64 unaligned to the window width (the add
		// wraps), it covers the full key space (w<<shift sheds bits), and
		// a tiny span sits at the very top (shift == 0).
		{name: "end-at-max", bounds: mk(1000, func(i int) uint64 {
			return top - uint64(999-i)*0x3f0f0f0f0f0f1
		})},
		{name: "full-range", bounds: mk(1000, func(i int) uint64 {
			if i == 999 {
				return top
			}
			return uint64(i) * (top / 1000)
		})},
		{name: "top-tiny", bounds: mk(100, func(i int) uint64 { return top - uint64(99-i)*3 })},
		// Too many models for the router's packed entries: no router, and
		// route narrows over the whole directory.
		{name: "no-router", bounds: mk(1<<rtIdxBits, func(i int) uint64 { return 1000 + uint64(i)*8 })},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			// Routing reads only the boundaries, so the synthetic cases
			// build the table without a directory.
			tb := newTable(c.bounds, nil, 0)
			if hasRouter := len(tb.rt.rt) > 0; hasRouter != (len(c.bounds) < 1<<rtIdxBits) {
				t.Fatalf("router present = %v with %d models", hasRouter, len(c.bounds))
			}
			if d, err := routerDepth(&tb.rt, len(c.bounds)); err != nil {
				t.Fatal(err)
			} else if d < c.depth {
				t.Fatalf("sub-tables nest %d deep, want >= %d; the case does not test what it names", d, c.depth)
			}
			check := func(k uint64) {
				t.Helper()
				if got, want := tb.route(k), refRoute(c.bounds, k); got != want {
					t.Fatalf("route(%#x) = %d, want %d", k, got, want)
				}
			}
			check(0)
			check(top)
			if r := &tb.rt; len(r.rt) > 0 {
				// Both sides of the grid's two edges, where keys change
				// over to the clamp windows.
				end := windowStart(r.base, uint64(len(r.rt)-2), r.shift)
				for _, k := range []uint64{r.base - 1, r.base, r.base + 1, end - 1, end, end + 1} {
					check(k)
				}
			}
			stride := max(1, len(c.bounds)/20000)
			for i := 0; i < len(c.bounds); i += stride {
				b := c.bounds[i]
				check(b)
				check(b - 1) // wraps to MaxUint64 at b == 0, still a valid probe
				check(b + 1)
			}
			check(c.bounds[len(c.bounds)-1])
			rng := rand.New(rand.NewSource(9))
			lo, span := c.bounds[0], c.bounds[len(c.bounds)-1]-c.bounds[0]
			for i := 0; i < 30000; i++ {
				check(rng.Uint64())
				if span < top {
					check(lo + rng.Uint64()%(span+1)) // inside the boundaries' span
				}
				if lo > 0 {
					check(rng.Uint64() % lo) // below the first boundary
				}
				if hi := lo + span; hi < top {
					check(hi + 1 + rng.Uint64()%(top-hi)) // above the last boundary
				}
			}
		})
	}
}

// TestHeadSpliceKeepsBoundsAscending is the regression for the head-of-
// table splice: keys inserted below the first boundary make a rebuild of
// model 0 start its first new model below the old boundary and its second
// one exactly at it. Pinning position 0 to the old boundary then published
// [2^40, 2^40], and GetBatch (router) missed every key Get (binary search)
// found. The boundaries must stay strictly ascending and the two read
// paths must agree.
func TestHeadSpliceKeepsBoundsAscending(t *testing.T) {
	pairs := make([]index.KV, 2000)
	for i := range pairs {
		pairs[i] = index.KV{Key: 1<<40 + uint64(i)*1000, Value: uint64(i)}
	}
	a := New(Options{ErrorBound: 16})
	t.Cleanup(func() { a.Close() })
	if err := a.Bulkload(pairs); err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 4000; i++ {
		if err := a.Insert(1+3*i, i); err != nil {
			t.Fatal(err)
		}
		if i%50 == 49 {
			a.Quiesce()
			checkTable(t, a)
		}
	}
	a.Quiesce()
	checkTable(t, a)
	if a.retrains.Load() == 0 {
		t.Fatal("no rebuild ran; the test did not splice the head of the table")
	}
	keys := make([]uint64, 64)
	for i := range keys {
		keys[i] = 1 + 3*uint64(i)
	}
	vals := make([]uint64, len(keys))
	found := make([]bool, len(keys))
	a.GetBatch(keys, vals, found)
	for i, k := range keys {
		v, ok := a.Get(k)
		if !ok || v != uint64(i) {
			t.Fatalf("Get(%d) = (%d,%v), want %d", k, v, ok, i)
		}
		if found[i] != ok || vals[i] != v {
			t.Fatalf("GetBatch(%d) = (%d,%v), Get = (%d,%v)", k, vals[i], found[i], v, ok)
		}
	}
	if a.Len() != len(pairs)+4000 {
		t.Fatalf("Len = %d, want %d", a.Len(), len(pairs)+4000)
	}
}

// TestCheckTableCatchesViolations is the audit's own negative test: each
// tampering must be reported, so a green checkTable means something.
func TestCheckTableCatchesViolations(t *testing.T) {
	if err := tableViolations(tableOf(10, 100, 1000), 0); err != nil {
		t.Fatalf("clean table reported: %v", err)
	}
	if err := tableViolations(newTable(nil, nil, 0), 0); err != nil {
		t.Fatalf("empty table reported: %v", err)
	}
	tamper := map[string]func(tb *table){
		"length":         func(tb *table) { tb.dir = tb.dir[:2] },
		"duplicate":      func(tb *table) { tb.bounds[1] = tb.bounds[0] },
		"stale-layout":   func(tb *table) { tb.dir[1].nslots++ },
		"foreign-block":  func(tb *table) { tb.dir[1].blocks = make([]slotBlock, 1) },
		"origin":         func(tb *table) { tb.dir[0], tb.dir[1] = tb.dir[1], tb.dir[0] },
		"no-router":      func(tb *table) { tb.rt = router{} },
		"stale-router":   func(tb *table) { tb.rt = buildRouter([]uint64{10, 11, 12}, 0) },
		"router-bracket": func(tb *table) { tb.rt.rt[1] |= rtIdxMask << rtIdxBits },
		"router-ref":     func(tb *table) { tb.rt.rt[1] |= 1 << (2 * rtIdxBits) },
		"clamp-ref": func(tb *table) {
			tb.rt.sub = make([]uint64, subWindows)
			tb.rt.rt[0] |= 1 << (2 * rtIdxBits)
		},
		"art-count": func(tb *table) { tb.dir[1].m.artKeys.Add(1) },
	}
	for name, f := range tamper {
		tb := tableOf(10, 100, 1000)
		f(tb)
		if tableViolations(tb, 0) == nil {
			t.Errorf("%s: tampered table passed the audit", name)
		}
	}
	// The slot storage audit, tampered through the model so that every
	// entry stays a faithful copy of its layout: the reported reason must be
	// the storage's.
	storage := map[string]struct {
		f      func(m0, m1 *model)
		reason string
	}{
		"overlapping-blocks": {func(m0, m1 *model) { m1.blocks = m0.blocks }, "overlap"},
		"block-cap":          {func(_, m1 *model) { m1.blocks = make([]slotBlock, 1, 2) }, "cap"},
	}
	for name, c := range storage {
		tb := tableOf(10, 100, 1000)
		c.f(tb.dir[0].m, tb.dir[1].m)
		tb.dir[1] = newEntry(tb.dir[1].m)
		if err := tableViolations(tb, 0); err == nil || !strings.Contains(err.Error(), c.reason) {
			t.Errorf("%s: audit reported %v, want a violation naming %q", name, err, c.reason)
		}
	}
	// The router audit on nested sub-tables: four clusters of 1,000 models
	// put each cluster's grid window two tables deep.
	fs := make([]uint64, 4000)
	for i := range fs {
		fs[i] = uint64(i/1000)<<60 + uint64(i%1000)*4096
	}
	clean := buildRouter(fs, 0)
	if d, err := routerDepth(&clean, len(fs)); err != nil || d < 2 {
		t.Fatalf("clean nested router: depth %d, %v", d, err)
	}
	subbed := func(r *router) int { // a grid window that has a sub-table
		for i, e := range r.rt {
			if e>>(2*rtIdxBits) != 0 {
				return i
			}
		}
		panic("no sub-table")
	}
	nested := map[string]func(r *router){
		"shared-sub":   func(r *router) { i := subbed(r); r.rt[i+1] = r.rt[i] },
		"cycle":        func(r *router) { r.sub[0] = r.rt[subbed(r)] },
		"unreferenced": func(r *router) { r.sub = append(r.sub, make([]uint64, subWindows)...) },
		"ragged-sub":   func(r *router) { r.sub = r.sub[:len(r.sub)-1] },
		"wide-leaf": func(r *router) {
			for i, e := range r.sub {
				if lo := e & rtIdxMask; e>>(2*rtIdxBits) == 0 {
					r.sub[i] = lo | (lo+nestWide+1)<<rtIdxBits
					return
				}
			}
		},
		"too-deep": func(r *router) { r.shift = subBits },
	}
	for name, f := range nested {
		r := buildRouter(fs, 0)
		f(&r)
		if _, err := routerDepth(&r, len(fs)); err == nil {
			t.Errorf("%s: tampered router passed the audit", name)
		}
	}
}

// slotResidents bulk-loads 50k OSM keys and returns the index with the keys
// that sit at their predicted slot: a conflict key lives in ART, where a
// re-insert after Remove allocates a leaf by design.
func slotResidents(t *testing.T) (*ALT, []uint64) {
	all := dataset.Generate(dataset.OSM, 50000, 4)
	a := mustBulk(t, Options{DisableRetraining: true}, all)
	var keys []uint64
	tb := a.tab.Load()
	for _, k := range all {
		m, _ := routed(tb, k)
		if sk, _, _, ok := m.read(m.slotOf(k)); ok && sk == k {
			keys = append(keys, k)
		}
	}
	return a, keys
}

// pointerAt returns the path of the first pointer-shaped field inside ty,
// at any depth, or "" when a value of ty holds none.
func pointerAt(ty reflect.Type) string {
	switch ty.Kind() {
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return ""
	case reflect.Array:
		if p := pointerAt(ty.Elem()); p != "" {
			return "[]" + p
		}
		return ""
	case reflect.Struct:
		for i := 0; i < ty.NumField(); i++ {
			if p := pointerAt(ty.Field(i).Type); p != "" {
				return "." + ty.Field(i).Name + p
			}
		}
		return ""
	}
	return " (" + ty.Kind().String() + ")" // pointer, slice, map, chan, func, interface, string, unsafe.Pointer
}

// TestSlotBlockHoldsNoPointers pins the property collector-owned slot
// storage rests on: slotBlock has no pointer-shaped field at any depth, so
// a []slotBlock backing array is a noscan allocation — the collector marks
// it reachable and never looks inside, however many slots the index holds.
func TestSlotBlockHoldsNoPointers(t *testing.T) {
	if p := pointerAt(reflect.TypeOf(slotBlock{})); p != "" {
		t.Fatalf("slotBlock%s is pointer-shaped: its backing arrays would be scanned", p)
	}
	// The walker itself must see pointers where there are some.
	if p := pointerAt(reflect.TypeOf(entry{})); p == "" {
		t.Fatal("pointerAt found no pointer in entry, which holds a slice and two pointers")
	}
}

// TestPointOpsDoNotAllocate pins the warmed point operations at zero
// allocations: routing, the directory entry and the slot probe all work
// on memory the table already owns.
func TestPointOpsDoNotAllocate(t *testing.T) {
	a, keys := slotResidents(t)
	i := 0
	next := func() uint64 { i++; return keys[i*7919%len(keys)] }
	ops := map[string]func(){
		"Get":    func() { a.Get(next()) },
		"Update": func() { a.Update(next(), 1) },
		"Insert": func() { _ = a.Insert(next(), 2) }, // upsert of a loaded key
		"Remove": func() { k := next(); a.Remove(k); _ = a.Insert(k, 3) },
	}
	for name, op := range ops {
		op() // warm: keeps any first-call cost out of the count
		if n := testing.AllocsPerRun(2000, op); n != 0 {
			t.Errorf("%s allocates %.1f times per op, want 0", name, n)
		}
	}
}

// TestInsertBatchDoesNotAllocate pins a warmed 64-pair InsertBatch (one
// full chunk, keys in scattered order) at zero allocations: the pipeline's
// only working memory is the pooled chunk scratch.
func TestInsertBatchDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime drops sync.Pool puts on purpose")
	}
	a, keys := slotResidents(t)
	i := 0
	pairs := make([]index.KV, 64)
	op := func() {
		for j := range pairs {
			i++
			pairs[j] = index.KV{Key: keys[i*7919%len(keys)], Value: uint64(i)}
		}
		if err := a.InsertBatch(pairs); err != nil {
			t.Fatal(err)
		}
	}
	op() // warm: the first call allocates the pooled scratch
	if n := testing.AllocsPerRun(500, op); n != 0 {
		t.Errorf("InsertBatch(64) allocates %.1f times per call, want 0", n)
	}
}

// narrowSteps is the number of probes narrow makes on a bracket n wide.
func narrowSteps(n int32) (steps int) {
	for ; n > 0; n -= (n + 1) >> 1 {
		steps++
	}
	return steps
}

// TestRouterBracketWidth holds the router to "direct-indexed" on every
// dataset of the paper and on the directories mem-range's four shards
// bulk-load: over all bulk-loaded keys, the bracket the router hands to
// narrow costs at most 3 probes on average, and no key inside the grid gets
// a bracket wider than nestWide. A grid laid over the full boundary span
// fails it on fb, whose outlier tail stretches the span until the dense 99%
// of keys share window 0; a router without nested sub-tables fails it on
// fb's last quarter, whose tail is too large a share of its models for the
// trim.
func TestRouterBracketWidth(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("bulk-loads 1M keys per directory, single-goroutine and deterministic")
	}
	check := func(name string, keys []uint64) {
		t.Run(name, func(t *testing.T) {
			a := mustBulk(t, Options{DisableRetraining: true}, keys)
			tb := a.tab.Load()
			r := &tb.rt
			total, wide := 0, 0
			for _, k := range keys {
				lo, hi := tb.bracket(k)
				total += narrowSteps(hi - lo)
				if w := int(r.window(k)); w > 0 && w < len(r.rt)-1 && hi-lo > nestWide {
					wide++
				}
			}
			mean := float64(total) / float64(len(keys))
			t.Logf("%d models, %d router entries, %.2f narrow steps per route", len(tb.bounds), len(r.rt)+len(r.sub), mean)
			if mean > 3 {
				t.Errorf("%.2f narrow steps per route over %d models, want <= 3", mean, len(tb.bounds))
			}
			if wide > 0 {
				t.Errorf("%d of %d keys inside the grid got a bracket wider than %d", wide, len(keys), nestWide)
			}
		})
	}
	for _, name := range dataset.Names() {
		check(string(name), dataset.Generate(name, 1000000, 1))
	}
	// mem-range: 4 M fb keys split at the shard layer's equal-depth
	// quantiles of a 2^16-key sample, each shard bulk-loading its quarter.
	keys := dataset.Generate(dataset.FB, 4000000, 1)
	lo := 0
	for q, b := range append(gpl.EqualDepthBounds(gpl.SampleKeys(keys, 1<<16), 4), ^uint64(0)) {
		hi := lo + sort.Search(len(keys)-lo, func(j int) bool { return keys[lo+j] >= b })
		if b == ^uint64(0) {
			hi = len(keys)
		}
		check(fmt.Sprintf("fb-4M-quarter-%d", q), keys[lo:hi])
		lo = hi
	}
}
