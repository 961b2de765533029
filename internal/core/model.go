package core

import (
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"slices"
	"sync/atomic"
	"unsafe"

	"altindex/internal/failpoint"
	"altindex/internal/gpl"
)

// Slot states, stored in the per-slot metadata word (the paper's per-slot
// atomic version, §III-E). Layout: bit 0 = writer lock (odd = write in
// progress), bit 1 = occupied, bit 2 = tombstone, bits 3..10 = conflict tag
// (which keys predicted to this slot were evicted to ART, values below),
// bits 11..31 = version (2^21 writes per slot before it wraps; DESIGN.md
// gives the margin).
const (
	slotLockBit  = uint32(1)
	slotOccupied = uint32(2)
	slotTomb     = uint32(4)
	slotTagShift = 3
	slotTagMask  = uint32(0xFF) << slotTagShift
	slotVerShift = 11
)

// Conflict tag values. A slot's tag is 0 while no key predicted to it was
// ever evicted to ART (at its build or since), the evicted key's fp8 (in
// [1, 0xFE]) for exactly one, and manyTag once several were (any
// fingerprint would then lie for the others).
const manyTag = uint32(0xFF)

// fp8 is the conflict tag's 8-bit key fingerprint: a Fibonacci-hash mix
// folded into [1, 0xFE] so nearby keys (the common case among one slot's
// conflicts) still get distinct tags, and the 0 / manyTag sentinels stay
// unambiguous.
func fp8(k uint64) uint32 {
	return uint32((k*0x9e3779b97f4a7c15)>>56)%254 + 1
}

// tagOf extracts the conflict tag from a metadata word.
func tagOf(meta uint32) uint32 { return meta & slotTagMask >> slotTagShift }

// withEviction returns meta with key's eviction merged into its tag.
func withEviction(meta uint32, key uint64) uint32 {
	tag := fp8(key)
	if cur := tagOf(meta); cur != 0 && cur != tag {
		tag = manyTag
	}
	return meta&^slotTagMask | tag<<slotTagShift
}

// absentInART reports whether key, predicted to the slot whose metadata
// word is meta and which holds another key or a tombstone, is provably
// absent from the ART layer, letting the caller skip the tree traversal.
//
// meta must be unlocked and loaded from that slot (a validated seqlock
// read, or the word the caller locked). Every key in ART was evicted from
// its predicted slot, by the build that made the slot or by a runtime
// conflict insert whose release merged the key's fingerprint into the
// word, so meta's tag covers every eviction released before it; one still
// in flight holds the lock and linearizes after the caller. An unlocked
// meta also proves the model was not yet frozen, so evictions through any
// successor model are ordered after the caller's linearization point too.
// Removals from ART leave the tag as it was: a stale "maybe present"
// costs one traversal, never a wrong answer.
func absentInART(key uint64, meta uint32) bool {
	tag := tagOf(meta)
	return tag == 0 || (tag != manyTag && tag != fp8(key))
}

// Slots are stored in interleaved blocks of blockSlots: slot s lives in
// blocks[s>>blockShift], lane s&blockMask.
const (
	blockShift = 3
	blockSlots = 1 << blockShift
	blockMask  = blockSlots - 1
)

// slotBlock interleaves eight consecutive slots' keys, metadata and values
// in one 160-byte struct: [8×key][8×meta][8×val]. A point probe's key and
// metadata lines are adjacent (bytes 0-63 and 64-95) instead of living in
// three arrays tens of megabytes apart, so resolving key+occupancy touches
// one or two neighbouring cache lines and the value line only on a hit —
// and the whole block is one prefetch target. Per-slot cost is the same
// 20 bytes the split arrays paid; only adjacency changed. The meta word's
// bit layout and the seqlock ordering around it are untouched: read/
// acquire/release below issue the identical atomic sequence, just through
// a different address computation.
type slotBlock struct {
	keys [blockSlots]atomic.Uint64
	meta [blockSlots]atomic.Uint32
	vals [blockSlots]atomic.Uint64
}

// layout is a model's probe geometry — everything a slot probe needs:
// the linear prediction and the slot storage it addresses. Immutable once
// the model is built, so the table's directory holds a copy of it (see
// entry) and the slot-hit path never dereferences the model itself.
type layout struct {
	first  uint64  // smallest key the model was built from
	slope  float64 // positions per key unit, including the gap factor
	nslots int

	// blocks is the interleaved slot storage; see slotBlock. Trailing
	// lanes past nslots-1 in the last block stay permanently empty.
	// An ordinary collector-owned slice: once retraining replaces the
	// model its slots are frozen (lock bit set) and never written again,
	// and the blocks live at least as long as someone holds a table whose
	// directory points at them (a Bulkload slab, until its last model goes).
	// slotBlock is pointer-free, so the backing array is a noscan
	// allocation the collector never looks inside.
	blocks []slotBlock
}

// model is one GPL model: a gapped slot array addressed by a linear
// prediction with no in-layer prediction error — a key is either at its
// predicted slot or in the ART-OPT layer.
type model struct {
	layout

	// fastIdx is this model's entry in the fast pointer buffer, or -1.
	fastIdx atomic.Int32

	// retrainArmed dedups retraining triggers: set by the first
	// threshold-crossing writer (who enqueues the model), cleared when the
	// rebuild finishes or the trigger is dropped on queue overflow.
	retrainArmed atomic.Bool

	// artKeys counts the live keys in ART that route to the model: its
	// build's evictions, plus its spills since, less the ones removed.
	// Only a spill or an ART-resident Remove moves it, so churn at a
	// constant key count leaves it flat.
	artKeys atomic.Int64
	// retrainAt is the artKeys count past which the model retrains
	// (§III-F); see built.
	retrainAt int64

	// slab is the Bulkload slab blocks was carved from, or nil when the
	// model owns its blocks (every rebuilt one). Only accounting reads it.
	slab *slab
}

// slab is the one allocation a Bulkload carves every model's slot blocks
// from, so that the kernel can back them with 2 MiB pages (adviseHuge): a
// model averages tens of kilobytes, too little to hold an aligned huge page,
// and on 4 KiB pages a slot probe far outside the caches misses the TLB
// too. An ordinary noscan slice, freed once no carved model is reachable:
// a model a rebuild splices out leaves its region dead until then.
type slab struct {
	blocks []slotBlock
	used   int // blocks carved so far; written only during Bulkload
}

func newSlab(nblocks int) *slab {
	s := &slab{blocks: make([]slotBlock, nblocks)}
	adviseHuge(s.blocks) // before the first write faults a page in
	return s
}

// carve returns the next blocks for nslots slots with cap == len, so no
// model can reach its neighbour's slots. A nil slab allocates them alone.
func (s *slab) carve(nslots int) []slotBlock {
	if s == nil {
		return make([]slotBlock, blocksFor(nslots))
	}
	lo, hi := s.used, s.used+blocksFor(nslots)
	s.used = hi
	return s.blocks[lo:hi:hi]
}

// blocksFor returns how many slot blocks hold nslots slots.
func blocksFor(nslots int) int { return (nslots + blockMask) >> blockShift }

// metaRef, keyRef and valRef resolve a slot's atomic words inside its
// block. Simple enough to inline, so the hot paths pay only the index
// arithmetic.
func (l *layout) metaRef(s int) *atomic.Uint32 {
	return &l.blocks[s>>blockShift].meta[s&blockMask]
}

func (l *layout) keyRef(s int) *atomic.Uint64 {
	return &l.blocks[s>>blockShift].keys[s&blockMask]
}

func (l *layout) valRef(s int) *atomic.Uint64 {
	return &l.blocks[s>>blockShift].vals[s&blockMask]
}

// place fills free slot s with plain stores. Only for a model no other
// goroutine can reach yet (build, shell fill): the table swap that
// publishes it orders these writes before any reader's loads, so the
// three locked XCHGs an atomic Store would cost per key buy nothing.
func (l *layout) place(s int, key, val uint64) {
	b := &l.blocks[s>>blockShift]
	j := s & blockMask
	*(*uint64)(unsafe.Pointer(&b.keys[j])) = key
	*(*uint64)(unsafe.Pointer(&b.vals[j])) = val
	*(*uint32)(unsafe.Pointer(&b.meta[j])) = slotOccupied
}

// evict merges key's eviction to ART into slot s's conflict tag, with a
// plain store under the same rule as place.
func (l *layout) evict(s int, key uint64) {
	w := (*uint32)(unsafe.Pointer(l.metaRef(s)))
	*w = withEviction(*w, key)
}

// newShells is the one build routine's first half, behind Bulkload and
// every rebuild: GPL segmentation of keys at eps (Algorithm 1), then one
// empty gapped model per segment, through the segment's first key, with
// the slot line fitSlope picks at gapFactor and its slot array sized to
// reach the segment's last key. With bulk every model's slots are carved
// from one slab on huge pages and the segments are fitted on GOMAXPROCS
// goroutines (Bulkload); otherwise each model allocates its own and the
// caller's goroutine fits them all (a rebuild). fillShells is the second
// half.
func newShells(keys []uint64, eps, gapFactor float64, bulk bool) []*model {
	segs := gpl.Partition(keys, eps)
	offs := make([]int, len(segs)+1) // segment i holds keys[offs[i]:offs[i+1]]
	for i, seg := range segs {
		offs[i+1] = offs[i] + seg.N
	}
	gap := max(gapFactor, 1)
	ms := make([]*model, len(segs))
	fit := func(lo, hi int) { // fits segments [lo, hi)
		var pairs [][2]float64
		for i := lo; i < hi; i++ {
			sk := keys[offs[i]:offs[i+1]]
			slope := fitSlope(sk, segs[i].Slope*gap, gap, &pairs)
			nslots := max(slotAt(slope, float64(sk[len(sk)-1]-sk[0]))+1, len(sk))
			ms[i] = &model{layout: layout{first: sk[0], slope: slope, nslots: nslots}}
			ms[i].fastIdx.Store(-1)
		}
	}
	p := 1
	if bulk {
		p = runtime.GOMAXPROCS(0)
	}
	spread(len(segs), p, fit)
	var sl *slab
	if bulk {
		nblocks := 0
		for _, m := range ms {
			nblocks += blocksFor(m.nslots)
		}
		sl = newSlab(nblocks)
	}
	for _, m := range ms {
		m.blocks, m.slab = sl.carve(m.nslots), sl
	}
	return ms
}

// slopeStep is the ratio between neighbouring rungs of fitSlope's ladder.
const slopeStep = 1.05

// fitSlope returns the slope of one segment's slot line through its first
// key: the lowest rung of a geometric ladder, from the endpoint line (gap
// slots per key) up to GPL's midpoint slope mid (already scaled by gap),
// whose placement evicts no more keys than mid's does, or mid itself when
// no rung below it does. The endpoint slope is one of the slopes GPL's
// cone spans, so every rung lies inside the cone and below mid: the line
// takes no more slots than mid's and, by the test, sends no more keys to
// ART.
//
// Slots are monotone in the key, so a key is evicted exactly when its
// slot is its predecessor's, computed as slotOf does (slotAt). Neighbours
// a slot apart at the endpoint slope never share one at a steeper rung, so
// only closer ones are kept, as pairs of offsets from the first key in
// *buf (reused across calls), and a rung is dropped once it evicts more
// keys than mid.
//
// mid is first capped at gap slots for each of the segment's keys and each
// of MaxDefaultErrorBound's positions. GPL's midpoint line spreads a segment
// over at most ε/2 positions more than it has keys, so a default ε never
// reaches the cap; an explicit ε far above the segment's key count would
// otherwise size the slot array by ε (at 2^40, a 200 GB slab for 20 K
// osm keys).
func fitSlope(keys []uint64, mid, gap float64, buf *[][2]float64) float64 {
	n := len(keys)
	first := keys[0]
	mid = min(mid, gap*float64(n-1+MaxDefaultErrorBound)/float64(keys[n-1]-first))
	if n < 3 {
		return mid // the cone of one or two keys is a single line
	}
	lo := float64(n-1) / float64(keys[n-1]-first) * gap
	if lo >= mid {
		return mid
	}
	// Every pair is written and only a kept one is stepped past, so no
	// branch mispredicts; the margin covers rounding in slotAt's products.
	ps := slices.Grow((*buf)[:0], n)[:n]
	j, prev, near := 0, 0.0, 1.001/lo
	for _, k := range keys[1:] {
		d := float64(k - first)
		ps[j] = [2]float64{prev, d}
		j += int(math.Float64bits(d-prev-near) >> 63) // 1 iff d-prev < near
		prev = d
	}
	*buf = ps
	ps = ps[:j]
	limit := evictions(ps, mid, n)
	for s := lo; s < mid; s *= slopeStep {
		if evictions(ps, s, limit) <= limit {
			return s
		}
	}
	return mid
}

// evictions counts the pairs of key offsets in ps that slope puts in one
// slot, 32 pairs at a time, stopping once the count passes limit.
func evictions(ps [][2]float64, slope float64, limit int) int {
	e := 0
	for i := 0; i < len(ps) && e <= limit; i += 32 {
		for _, p := range ps[i:min(i+32, len(ps))] {
			a, b := slotAt(slope, p[0]), slotAt(slope, p[1])
			e += int(uint(b-a-1) >> 63) // 1 iff a == b, as a <= b
		}
	}
	return e
}

// fillShells places keys, ascending, into shells, partitioning by shell
// boundary (shell i owns keys below shell i+1's first, the last one every
// key above). A key whose predicted slot is taken is a conflict: it goes to
// ART and into that slot's conflict tag, which is what keeps the learned
// layer free of prediction errors. The shells may predate the keys
// (a rebuild segments a pre-freeze snapshot) — a stale fit only raises the
// conflict rate. Shells left empty are dropped; every other one gets its
// first key into a free slot, so keys always leave at least one model.
// It writes only its own shells and the lock-coupled tree, so calls on
// disjoint shell groups, each with its own keys, may run at once (Bulkload).
func (t *ALT) fillShells(shells []*model, keys, vals []uint64) []*model {
	newModels := make([]*model, 0, len(shells))
	ki := 0
	for si, sh := range shells {
		hi := ^uint64(0)
		if si+1 < len(shells) {
			hi = shells[si+1].first - 1
		}
		placed, evicted := 0, 0
		for ki < len(keys) && keys[ki] <= hi {
			k, v := keys[ki], vals[ki]
			ki++
			s := sh.slotOf(k)
			if sh.metaRef(s).Load()&slotOccupied != 0 {
				t.tree.Put(k, v)
				sh.evict(s, k)
				evicted++
				continue
			}
			sh.place(s, k, v)
			placed++
		}
		if placed == 0 {
			// Empty shell: neighbors' clamping covers its range.
			continue
		}
		sh.built(placed, evicted)
		newModels = append(newModels, sh)
	}
	return newModels
}

// built records what m's build left: placed keys in its slots and evicted
// ones in ART. The §III-F trigger fires once the model's ART keys pass its
// build's evictions by the slots its build left empty: the keys it spilled
// since outnumber the room it had for them. That is about its build size at
// the default gap of two slots per key and three times it after a
// rebuild's gap of four, so rebuild work stays proportional to the spills
// that caused it; only a build with no empty slot (GapFactor 1, or New's
// one-slot placeholder) retrains on its first spill, and the rebuild's
// wider gap leaves the next one room.
func (m *model) built(placed, evicted int) {
	m.artKeys.Store(int64(evicted))
	m.retrainAt = int64(evicted + m.nslots - placed)
}

// slotOf returns the predicted slot for key, clamped to the array. Because
// the same formula places and looks keys up, predictions in this layer are
// exact by construction.
func (l *layout) slotOf(key uint64) int {
	if key <= l.first {
		return 0
	}
	s := slotAt(l.slope, float64(key-l.first))
	if s < 0 {
		s = 0
	}
	if s >= l.nslots {
		s = l.nslots - 1
	}
	return s
}

// slotAt is the unclamped slot a line of slope puts a key at offset d
// from its first key. slotOf and fitSlope share it, so the fit counts the
// evictions the fill makes.
func slotAt(slope, d float64) int { return int(slope*d + 0.5) }

// read performs one seqlock-protected slot read, returning the full
// metadata word observed (pass it to stateOf for the slot state, or compare
// it later to detect concurrent migration). ok=false means a writer was
// active (or the slot frozen for retraining) and the caller must retry
// after reloading the model table.
func (l *layout) read(slot int) (key, val uint64, meta uint32, ok bool) {
	b := &l.blocks[slot>>blockShift]
	j := slot & blockMask
	m1 := b.meta[j].Load()
	if m1&slotLockBit != 0 {
		return 0, 0, 0, false
	}
	k := b.keys[j].Load()
	v := b.vals[j].Load()
	if b.meta[j].Load() != m1 {
		return 0, 0, 0, false
	}
	return k, v, m1, true
}

// stateOf extracts the slot state flags from a metadata word.
func stateOf(meta uint32) uint32 { return meta & (slotOccupied | slotTomb) }

// acquire locks the slot for writing iff its metadata still equals seen
// (which must be unlocked). The paper's even/odd write protocol.
func (l *layout) acquire(slot int, seen uint32) bool {
	return l.metaRef(slot).CompareAndSwap(seen, seen|slotLockBit)
}

// release unlocks the slot, publishing nextMeta(seen, flags).
func (l *layout) release(slot int, seen, flags uint32) {
	l.metaRef(slot).Store(nextMeta(seen, flags))
}

// nextMeta is the word a write that observed seen publishes: the version
// bumped (wrapping after 2^21 writes without touching the lower bits),
// seen's conflict tag kept and the state set to flags (slotOccupied or
// slotTomb).
func nextMeta(seen, flags uint32) uint32 {
	return (seen>>slotVerShift+1)<<slotVerShift | seen&slotTagMask | flags
}

// freeze locks every slot permanently; used when the model is being
// replaced by retraining. Spin-waits for in-flight writers, so after freeze
// returns no writer can touch the array and its contents are final.
func (m *model) freeze() {
	for s := 0; s < m.nslots; s++ {
		mw := m.metaRef(s)
		for spins := 0; ; spins++ {
			cur := mw.Load()
			if cur&slotLockBit == 0 && mw.CompareAndSwap(cur, cur|slotLockBit) {
				break
			}
			if spins > 64 {
				runtime.Gosched() // in-flight writer; let it finish
			}
		}
	}
}

// frozenEntries appends the live pairs of a frozen model to keys and vals
// in ascending key order (slot order equals key order because slotOf is
// monotone).
func (m *model) frozenEntries(keys, vals []uint64) ([]uint64, []uint64) {
	for s := 0; s < m.nslots; s++ {
		if m.metaRef(s).Load()&slotOccupied != 0 {
			keys = append(keys, m.keyRef(s).Load())
			vals = append(vals, m.valRef(s).Load())
		}
	}
	return keys, vals
}

// liveCount returns the number of occupied slots (approximate under
// concurrent writes).
func (m *model) liveCount() int {
	n := 0
	for s := 0; s < m.nslots; s++ {
		if m.metaRef(s).Load()&slotOccupied != 0 {
			n++
		}
	}
	return n
}

// memory returns the model's approximate heap bytes. Blocks carved from a
// slab are the slab's, which table.slabBytes counts once, in full.
func (m *model) memory() uintptr {
	total := unsafe.Sizeof(model{})
	if m.slab == nil {
		total += uintptr(len(m.blocks)) * unsafe.Sizeof(slotBlock{})
	}
	return total
}

// entry is one directory record: an immutable copy of the model's probe
// geometry plus the model itself for the cold paths (fast pointer,
// counters). Copying the layout in is what removes the *model dereference
// from the slot-hit path: router -> bounds -> dir[i] -> slot block, with no
// hop through a heap-scattered struct in between. A conflict probe needs
// nothing more: the slot's conflict tag is in the meta word it already
// holds. The blocks slice shares the model's backing array, so holding the
// table keeps it alive. Padded to 64 bytes, so an entry never straddles a
// cache line.
type entry struct {
	layout
	m *model
	_ [8]byte
}

func newEntry(m *model) entry { return entry{layout: m.layout, m: m} }

// table is the immutable, flattened model directory (the paper's
// "flattened data structure", §III-B): routing boundaries, one entry per
// model, and the radix router over the boundaries, all built before the
// table is published. dir[i] owns keys in [bounds[i], bounds[i+1]); model 0
// also owns everything below bounds[0]. A boundary never exceeds its
// model's prediction origin (entry.first) but may sit below it: splices
// keep the old boundary when a rebuilt range's minimum key moved up.
// Replaced copy-on-write by retraining.
type table struct {
	bounds []uint64 // strictly ascending
	dir    []entry
	rt     router
}

// newTable builds the directory over bounds and dir, which it takes
// ownership of. The one constructor behind New, Bulkload and every retrain
// splice; subCap reserves that many router sub-table entries (a splice
// passes about what the table it replaces holds, so building the router
// does not grow them step by step).
func newTable(bounds []uint64, dir []entry, subCap int) *table {
	if failpoint.Tagged {
		for i := 1; i < len(bounds); i++ {
			if bounds[i] <= bounds[i-1] {
				panic(fmt.Sprintf("core: routing boundaries not strictly ascending at %d: %#x after %#x", i, bounds[i], bounds[i-1]))
			}
		}
	}
	tb := &table{bounds: bounds, dir: dir}
	// Past 2^rtIdxBits models the router's packed entries cannot address
	// the directory; route then narrows over the full range.
	if n := len(bounds); n > 0 && n < 1<<rtIdxBits {
		tb.rt = buildRouter(bounds, subCap)
	}
	return tb
}

// memory returns the directory's own heap bytes (models not included).
func (tb *table) memory() uintptr {
	return uintptr(cap(tb.bounds))*8 + uintptr(cap(tb.dir))*unsafe.Sizeof(entry{}) +
		uintptr(cap(tb.rt.rt)+cap(tb.rt.sub))*8
}

// slabBytes returns the bytes of each slab a model of tb was carved from,
// counted once and in full, and the part of them no model of tb carves:
// regions a rebuild spliced out, retained until the slab's last model goes.
func (tb *table) slabBytes() (pinned, dead uintptr) {
	var seen []*slab // a Bulkload makes one, so this stays tiny
	live := 0
	for i := range tb.dir {
		if s := tb.dir[i].m.slab; s != nil {
			live += len(tb.dir[i].blocks)
			if !slices.Contains(seen, s) {
				seen = append(seen, s)
				pinned += uintptr(len(s.blocks)) * unsafe.Sizeof(slotBlock{})
			}
		}
	}
	return pinned, pinned - uintptr(live)*unsafe.Sizeof(slotBlock{})
}

// router is the direct-indexed routing accelerator every operation goes
// through. Grid windows partition the key range [base, base+span) into at
// most routerWindows equal slices; rt[1+g] packs grid window g's model
// bracket — the rightmost model positions at the window's start and end —
// into one word, so routing a key is one shift, one load and a short
// predicated search.
//
// The grid spans the bulk of the directory, not all of it: the routerTrim
// share of models at each end is left to the two clamp windows rt[0]
// (keys below base) and rt[len-1] (keys past the grid), whose brackets are
// those models. A uniform grid is only as fine as its span is tight, and
// one outlier tail — fb's top percentile stretches the boundaries to ~2^62
// — would otherwise put every dense key into window 0. Models stand in for
// keys here: GPL segments hold comparable numbers of them.
//
// Clustered directories (OSM-like data packs most models into a small
// fraction of the key span) defeat a single uniform grid too: nearly every
// query lands in the handful of windows that hold 16-64 models. Grid
// windows whose bracket is wider than subWide therefore carry a sub-table
// of subWindows finer slices, packed like rt and referenced through the
// entry's high bits; a sub-window still wider than nestWide carries its
// own, and so on. Nesting also serves a tail too large for the trim (the
// outliers are ~7 % of the models of fb's last equal-depth quarter, so
// grid window 0 holds its whole body): no in-grid bracket is wider than
// nestWide unless its window holds fewer than subWindows keys.
type router struct {
	base  uint64
	shift uint
	rt    []uint64 // lo | hi<<rtIdxBits | subRef<<(2*rtIdxBits)
	sub   []uint64 // flattened subWindows-entry sub-tables, packed like rt
}

// routerWindows bounds the router's top-level directory size — small
// next to any table's slot arrays, and fine enough that most windows of
// a uniform-ish directory map to exactly one model.
const (
	routerWindows = 8192
	routerTrim    = 50 // 1/50 of the models at each end lie outside the grid
	rtIdxBits     = 21
	rtIdxMask     = 1<<rtIdxBits - 1
	subBits       = 6
	subWindows    = 1 << subBits // sub-table fanout (uniform, so shift-only decode)
	subWide       = 2            // grid brackets wider than this get a sub-table
	// Sub-window brackets wider than this get a nested table. At 32, fb's
	// last quarter kept 3.5 narrow probes per route; nesting every bracket
	// wider than subWide (without the trim) grew the tables to 2.3 MB on
	// 8 M osm keys and slowed a Zipf Get by a third.
	nestWide = 8
)

func buildRouter(fs []uint64, subCap int) router {
	n := len(fs)
	i0 := n / routerTrim
	base := fs[i0]
	span := fs[n-1-i0] - base
	shift := uint(0)
	if l, lw := bits.Len64(span), bits.Len(routerWindows); l >= lw {
		shift = uint(l - lw + 1)
	}
	grid := int(span>>shift) + 1
	r := router{base: base, shift: shift, rt: make([]uint64, grid+2), sub: make([]uint64, 0, subCap)}
	r.rt[0] = uint64(i0) << rtIdxBits
	i1 := r.fill(&r.rt, 1, fs, base, shift, i0, grid, subWide)
	r.rt[grid+1] = uint64(i1) | uint64(n-1)<<rtIdxBits
	return r
}

// fill packs the brackets of k consecutive windows of 1<<sh keys from ws
// into (*dst)[at:at+k], building the sub-table of each one wider than
// wide, and returns the rightmost model whose boundary is <= the last
// window's end. l is that model for ws. Only keys inside a window decode
// to its sub-table, so the sub-slice a key's offset selects is that key's.
func (r *router) fill(dst *[]uint64, at int, fs []uint64, ws uint64, sh uint, l, k, wide int) int {
	for s := 0; s < k; s++ {
		sl, end := l, windowStart(ws, uint64(s+1), sh)
		for l+1 < len(fs) && fs[l+1] <= end {
			l++
		}
		e := uint64(sl) | uint64(l)<<rtIdxBits
		if sh >= subBits && l-sl > wide {
			sub := len(r.sub)
			r.sub = append(r.sub, make([]uint64, subWindows)...)
			r.fill(&r.sub, sub, fs, windowStart(ws, uint64(s), sh), sh-subBits, sl, subWindows, nestWide)
			e |= uint64(sub/subWindows+1) << (2 * rtIdxBits)
		}
		(*dst)[at+s] = e // after the append: dst may be &r.sub
	}
	return l
}

// windowStart returns base + w<<shift saturated at MaxUint64. Near the top
// of the key space the boundaries past the grid's last window start
// overflow uint64 — either w<<shift sheds high bits or the add wraps — and
// the build walks above must see them as "past every key": a wrapped
// (small) value would stall a monotone walk before it reaches the last
// models, and the router would then exclude them from every bracket.
func windowStart(base, w uint64, shift uint) uint64 {
	d := w << shift
	if d>>shift != w {
		return ^uint64(0)
	}
	ws := base + d
	if ws < base {
		return ^uint64(0)
	}
	return ws
}

// window maps key to its router window: 0 below the grid, len(rt)-1 past
// it. Small enough to inline into batch loops.
func (r *router) window(key uint64) int32 {
	if key < r.base {
		return 0
	}
	return int32(min((key-r.base)>>r.shift+1, uint64(len(r.rt)-1)))
}

// narrow resolves a bracket [lo, hi] to the model position responsible for
// key (the rightmost model whose boundary is <= key, clamped to lo).
// Takes the bounds slice directly so batch loops can hoist it.
//
// The search is branch-free (the conditional add compiles to a predicated
// move): on clustered directories — OSM-like data packs most models into a
// small fraction of the key span — queries concentrate exactly where
// windows hold 16-64 models, and each comparison there is a coin flip, so
// a branching search would eat a mispredict per level.
func narrow(fs []uint64, key uint64, lo, hi int) int {
	// Invariant: the answer lies in [lo, lo+n].
	n := hi - lo
	for n > 0 {
		half := (n + 1) >> 1
		if fs[lo+half] <= key {
			lo += half
		}
		n -= half
	}
	return lo
}

// bracket decodes key's model bracket [lo, hi]: lo is at most the answer,
// hi at least, and after the sub-table hops the two are typically equal or
// one apart. Without a router (>= 2^rtIdxBits models) the bracket is the
// whole directory.
func (tb *table) bracket(key uint64) (lo, hi int32) {
	r := &tb.rt
	if len(r.rt) == 0 {
		return 0, int32(len(tb.bounds) - 1)
	}
	e, sh := r.rt[r.window(key)], r.shift
	for ref := e >> (2 * rtIdxBits); ref != 0; ref = e >> (2 * rtIdxBits) {
		sh -= subBits
		e = r.sub[(ref-1)*subWindows+(key-r.base)>>sh&(subWindows-1)]
	}
	return int32(e & rtIdxMask), int32(e >> rtIdxBits & rtIdxMask)
}

// route returns the table position responsible for key: the rightmost
// model whose boundary is <= key, keys below bounds[0] clamping to 0. The
// one function that maps a key to a position, for every operation.
func (tb *table) route(key uint64) int {
	lo, hi := tb.bracket(key)
	return narrow(tb.bounds, key, int(lo), int(hi))
}

// upperBound returns the exclusive key upper bound of the model at
// position i (the next model's boundary, or MaxUint64).
func (tb *table) upperBound(i int) uint64 {
	if i+1 < len(tb.bounds) {
		return tb.bounds[i+1]
	}
	return ^uint64(0)
}
