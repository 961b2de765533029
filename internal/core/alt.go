// Package core implements ALT-index, the hybrid learned index of the paper
// (§III): a flattened learned-index layer of GPL models whose predictions
// are exact by construction, over an optimized ART layer (ART-OPT) that
// hosts conflict data, linked by a fast pointer buffer.
//
// Layer invariants:
//
//  1. A live key is either at its predicted GPL slot or in the ART layer.
//  2. If a key lives in ART, its predicted slot is non-empty (occupied by a
//     different key, or a tombstone). Hence an empty predicted slot proves
//     absence without any secondary search (Algorithm 2, line 5).
//  3. Slot order equals key order inside a model, and model ranges are
//     disjoint and sorted, so range scans merge two ordered streams.
//  4. Outside a rebuild's freeze no key moves between the learned layer
//     and ART: an upsert updates a key in the layer that holds it.
//
// Concurrency follows §III-E: per-slot seqlock versions (even/odd) in the
// learned layer, a spin-locked append-only fast pointer buffer, and
// optimistic lock coupling inside ART. Retraining freezes one model's
// slots, rebuilds the key range (pulling its ART residents back), and swaps
// a copy-on-write model table.
package core

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"altindex/internal/art"
	"altindex/internal/failpoint"
	"altindex/internal/index"
)

// Options configure an ALT index. The zero value gives the paper's
// recommended defaults.
type Options struct {
	// ErrorBound is the GPL segmentation ε. Zero selects the paper's
	// recommendation of n/1000 (§III-D), capped at 1,024 and floored at
	// 16, where n is the live key count at each build: the input size for
	// Bulkload, the index's size for a retraining rebuild. Bulkload refuses
	// a negative value (Validate); New keeps it, and the rebuilds of an
	// index it grows treat it as zero.
	ErrorBound int
	// GapFactor stretches each model's slot array to leave gaps for
	// in-place inserts (§III-B "array gaps scheme"): a model gets
	// GapFactor slots per key, more only where they evict fewer keys to
	// ART, and fewer where GPL's midpoint line already takes fewer
	// (fitSlope); below 1 it acts as 1. Zero selects 2.0. Bulkload refuses
	// a negative, infinite or NaN value (Validate). New keeps it, and the
	// rebuilds of an index it grows, which stretch by min(2·GapFactor, 4),
	// run a negative value as 1 and +Inf as 4, while NaN leaves almost
	// every key in ART.
	GapFactor float64
	// DisableRetraining turns off dynamic retraining (§III-F), which
	// includes the first training of an index that was never bulkloaded:
	// it stays one model with every key but one in ART.
	DisableRetraining bool
	// RetrainMinInserts floors the retraining trigger: a model retrains
	// once its growth (keys it added since its build; a tombstone claim
	// refills a counted slot and adds none) exceeds max(buildSize,
	// RetrainMinInserts). Zero selects 1024, which stops rebuild thrash.
	RetrainMinInserts int
	// Shards asks the front-ends that read it (altindex.New and Load)
	// for a range-partitioned index of this many independent ALT shards
	// behind a learned boundary router (internal/shard). Bulkload fixes
	// the boundaries from the loaded keys and nothing moves them
	// afterwards. Zero keeps the single-instance layout. core.New itself
	// ignores the field — one core.ALT is always one shard — so a single
	// Options value can flow unchanged through the whole stack.
	Shards int
}

func (o Options) withDefaults() Options {
	if o.GapFactor == 0 {
		o.GapFactor = 2.0
	}
	if o.RetrainMinInserts == 0 {
		o.RetrainMinInserts = 1024
	}
	return o
}

// Validate returns an error naming the first field of o that no build
// serves: a negative ErrorBound, or a GapFactor that is negative, infinite
// or NaN. Bulkload calls it first and refuses such options.
func (o Options) Validate() error {
	if o.ErrorBound < 0 {
		return fmt.Errorf("core: Options.ErrorBound %d is negative", o.ErrorBound)
	}
	if g := o.GapFactor; math.IsNaN(g) || math.IsInf(g, 0) || g < 0 {
		return fmt.Errorf("core: Options.GapFactor %v is not a finite number ≥ 0", g)
	}
	return nil
}

// MaxDefaultErrorBound caps the default ε. Past it ε dwarfs a model's own
// key count, GPL's pessimistic test stops bounding the midpoint slope, and
// slots per key grow with n (DESIGN.md §4).
const MaxDefaultErrorBound = 1024

// errorBound resolves the GPL ε of a build in an index of n live keys:
// ErrorBound, or the paper's n/1000 (§III-D) capped at 1,024 when that is
// zero, floored at 16. Every build calls it, so ε follows the index as it
// grows.
func (o Options) errorBound(n int) float64 {
	eps := float64(o.ErrorBound)
	if eps <= 0 {
		eps = min(float64(n)/1000, MaxDefaultErrorBound)
	}
	return max(eps, 16)
}

// ALT is the hybrid learned index. Create with New; safe for concurrent
// use from the start, Bulkload excepted.
type ALT struct {
	opts Options

	tab  atomic.Pointer[table]
	tree *art.Tree
	fp   *fpBuffer

	// ret is the asynchronous retraining pipeline (§III-F); see retrain.go.
	ret         retrainer
	retrains    atomic.Int64
	size        atomic.Int64
	writerSpins atomic.Int64 // writer backoff waits (contention/freeze stalls)
}

var _ index.Concurrent = (*ALT)(nil)
var _ index.Stats = (*ALT)(nil)

// New returns an empty ALT-index. Its table is the one a rebuild gives an
// emptied range (emptyTable), so the §III-E protocol runs from the first
// insert: that key claims the one slot, later keys conflict into ART under
// it, and the model's ordinary §III-F trigger trains the learned layer
// once the index has grown. Bulkload replaces the table outright.
func New(opts Options) *ALT {
	t := &ALT{opts: opts.withDefaults()}
	t.fp = newFPBuffer(64)
	t.tree = art.New(t.fp)
	t.tab.Store(emptyTable())
	t.ret.q = make(chan *model, retrainQueue)
	t.ret.stop = make(chan struct{})
	return t
}

// Close stops the background retraining worker and drains the trigger
// queue. The index stays readable and writable afterwards — subsequent
// triggers are simply dropped. Implements io.Closer so harnesses that
// close their indexes reap the worker goroutine.
func (t *ALT) Close() error {
	r := &t.ret
	if !r.closed.CompareAndSwap(false, true) {
		return nil
	}
	close(r.stop)
	r.wg.Wait()
	for {
		select {
		case m := <-r.q:
			m.retrainArmed.Store(false)
			r.pending.Add(-1)
		default:
			return nil
		}
	}
}

// Quiesce blocks until no retraining trigger is queued or in flight. Call
// it after writers stop — before invariant audits, snapshots or memory
// measurements — so the observed state is not mid-rebuild. With writers
// still running it only guarantees a momentary empty pipeline.
func (t *ALT) Quiesce() {
	r := &t.ret
	for r.pending.Load() != 0 {
		if r.closed.Load() {
			return
		}
		runtime.Gosched()
	}
}

// Name implements index.Concurrent.
func (t *ALT) Name() string { return "ALT-index" }

// Len returns the number of live keys.
func (t *ALT) Len() int { return int(t.size.Load()) }

// Bulkload replaces the index contents: GPL segmentation (Algorithm 1),
// gapped model layout, conflict eviction to a fresh ART, and fast pointer
// construction (§III-C1) — the build every rebuild runs too, here with one
// slab for all the slots and the input copy, the slot-line fit and the fill
// spread over every P. The shells are
// cut into GOMAXPROCS contiguous groups of about equal key count, each
// filled by fillShells on its own goroutine; the slab is carved before any
// fill and the fast pointers are linked after, so the layout is the same at
// any P. It must not run concurrently with any other method; it first
// drains the index's own retraining, whose rebuilds write the tree and the
// fast pointer buffer it replaces. Options that Validate refuses, and
// unsorted input, return an error and leave the contents as they were.
func (t *ALT) Bulkload(pairs []index.KV) error {
	if err := t.opts.Validate(); err != nil {
		return err
	}
	p := runtime.GOMAXPROCS(0)
	keys := make([]uint64, len(pairs))
	vals := make([]uint64, len(pairs))
	var unsorted atomic.Bool
	spread(len(pairs), p, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if i > 0 && pairs[i].Key <= pairs[i-1].Key {
				unsorted.Store(true)
				return
			}
			keys[i], vals[i] = pairs[i].Key, pairs[i].Value
		}
	})
	if unsorted.Load() {
		return index.ErrUnsortedBulk
	}
	t.Quiesce()

	shells := newShells(keys, t.opts.errorBound(len(keys)), t.opts.GapFactor, true)
	// Fresh ART + fast pointer buffer sized for the model population
	// plus retraining headroom.
	t.fp = newFPBuffer(2*len(shells) + 1024)
	t.tree = art.New(t.fp)

	// Group g starts at the first shell at or above key g·n/P and takes the
	// keys up to the next group's first shell, so each fillShells call sees
	// exactly its shells' keys. Its conflicts share the lock-coupled tree.
	cuts := make([]int, p+1) // group g fills shells[cuts[g]:cuts[g+1]]
	cuts[p] = len(shells)
	for g := 1; g < p && len(keys) > 0; g++ {
		k := keys[g*len(keys)/p]
		cuts[g] = sort.Search(len(shells), func(i int) bool { return shells[i].first >= k })
	}
	keyAt := func(c int) int { // index of shell c's first key
		if c == len(shells) {
			return len(keys)
		}
		k, _ := slices.BinarySearch(keys, shells[c].first)
		return k
	}
	parts := make([][]*model, p)
	spread(p, p, func(g, _ int) {
		lo, hi := keyAt(cuts[g]), keyAt(cuts[g+1])
		parts[g] = t.fillShells(shells[cuts[g]:cuts[g+1]], keys[lo:hi], vals[lo:hi])
	})
	models := slices.Concat(parts...)

	tb := emptyTable() // the table New starts with
	if len(models) > 0 {
		bounds := make([]uint64, len(models))
		dir := make([]entry, len(models))
		for i, m := range models {
			bounds[i], dir[i] = m.first, newEntry(m)
		}
		tb = newTable(bounds, dir)
	}
	t.tab.Store(tb)
	t.size.Store(int64(len(keys)))
	t.retrains.Store(0)

	// Fast pointers: link each GPL model to the deepest ART node covering
	// its key range, merging duplicate targets (§III-C).
	for i := range tb.dir {
		t.registerFP(tb, i)
	}
	// Then put the tree a conflict lookup walks on 2 MiB pages (DESIGN.md
	// §6, "Bulkload slab and tree on 2 MiB pages").
	collapseHuge(t.tree)
	return nil
}

// spread runs f over p contiguous parts [lo, hi) of [0, n) at once, the
// first on the calling goroutine, and returns when every part is done.
func spread(n, p int, f func(lo, hi int)) {
	var wg sync.WaitGroup
	for g := 1; g < p; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f(g*n/p, (g+1)*n/p)
		}()
	}
	f(0, n/p)
	wg.Wait()
}

// registerFP links the model at table position pos to the deepest ART node
// covering its routing range (§III-C1).
func (t *ALT) registerFP(tb *table, pos int) {
	n := t.tree.LowestCommonNode(tb.rangeBounds(pos))
	if n == nil {
		return
	}
	if _, leaf := n.Leaf(); !leaf {
		tb.dir[pos].m.fastIdx.Store(t.fp.register(n))
	}
}

// fpNode resolves a model's fast pointer to the current ART entry node.
func (t *ALT) fpNode(m *model) *art.Node {
	return t.fp.node(m.fastIdx.Load())
}

// backoff is the per-operation contention policy, used when a slot writer
// (or a retraining freeze) is in flight. Each retry loop keeps one on its
// stack and calls wait() per failed attempt.
//
// Contention contract: attempts 0..16 stay on-CPU with an exponentially
// growing bounded pause — slot writer critical sections are a handful of
// stores, so the slot is expected to free within tens of nanoseconds and
// yielding immediately would trade that for a scheduler round trip. Past
// 16 attempts the writer is presumed descheduled (or the model frozen for
// retraining) and the goroutine yields — followed by a decorrelated-jitter
// spin pause, so a herd of writers parked on the same frozen model does
// not convoy back on the same Gosched cadence and collide again in
// lockstep: each goroutine's pause is drawn uniformly from
// [base, 3×previous], capped at backoffMaxPause, per the decorrelated
// jitter scheme. Callers reload the model table each attempt so a frozen
// model is escaped as soon as the new table lands.
type backoff struct {
	attempt int
	pause   uint32 // previous jitter draw (spin iterations); 0 = unseeded
	rng     uint64 // splitmix64 state, seeded on first post-spin attempt

	// spins, when set, counts every wait() — writer paths point it at the
	// index's writerSpins so StatsMap exposes how often writers stalled
	// on contention or a retraining freeze.
	spins *atomic.Int64
}

// writerBackoff returns a backoff wired to the writer-spin counter.
func (t *ALT) writerBackoff() backoff {
	return backoff{spins: &t.writerSpins}
}

const (
	// backoffSpinAttempts is the on-CPU phase length (the pre-existing
	// spin contract, unchanged).
	backoffSpinAttempts = 16
	// backoffBasePause is the minimum post-yield jitter pause, in spin
	// iterations (~a few ns each).
	backoffBasePause = 64
	// backoffMaxPause caps decorrelated growth so a long freeze never
	// pushes pauses past ~tens of microseconds of spinning.
	backoffMaxPause = 16384
)

// backoffSeed decorrelates the jitter streams of concurrent operations;
// each backoff draws a distinct seed on its first post-spin attempt.
var backoffSeed atomic.Uint64

// wait performs one backoff step and advances the state.
func (bo *backoff) wait() {
	if bo.spins != nil {
		bo.spins.Add(1)
	}
	a := bo.attempt
	bo.attempt++
	if a <= backoffSpinAttempts {
		spin(2 << uint(a&7))
		return
	}
	runtime.Gosched()
	spin(bo.nextPause())
}

// nextPause draws the decorrelated-jitter pause: uniform in
// [backoffBasePause, 3×previous], capped at backoffMaxPause. Growth is
// therefore bounded (at most 3× per step, never above the cap) but
// randomized, which is what spreads a convoy apart.
func (bo *backoff) nextPause() uint32 {
	if bo.pause == 0 {
		bo.pause = backoffBasePause
		bo.rng = backoffSeed.Add(0x9e3779b97f4a7c15)
	}
	hi := 3 * bo.pause
	if hi > backoffMaxPause {
		hi = backoffMaxPause
	}
	// splitmix64 step (inlined; see internal/xrand).
	bo.rng += 0x9e3779b97f4a7c15
	z := bo.rng
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	p := backoffBasePause + uint32(z%uint64(hi-backoffBasePause+1))
	bo.pause = p
	return p
}

// spin burns roughly iters loop iterations on-CPU. The loop feeds
// runtime.KeepAlive so the compiler cannot prove the body dead and delete
// it (a `_ = i` body is eliminated entirely, which silently turns the
// pause into a hot no-op loop of zero iterations' worth of delay).
func spin(iters uint32) {
	n := uint32(0)
	for i := uint32(0); i < iters; i++ {
		n += i | 1
	}
	runtime.KeepAlive(n)
}

// Get implements Algorithm 2 (Search): one model location, one exact
// prediction, and — only for conflict data — a fast-pointer hop into ART.
// It writes nothing: a key found in ART behind a tombstone stays there
// (no write-back of Algorithm 2 lines 10-13; DESIGN.md §4 says why).
//
// An ART miss is only trusted if the slot metadata is unchanged afterwards:
// a changed version means a concurrent writer or a retraining freeze (the
// one event that moves keys between the layers, invariant 4) came between
// the two probes, so the lookup retries.
func (t *ALT) Get(key uint64) (uint64, bool) {
	var bo backoff
	for {
		tab := t.tab.Load()
		e := &tab.dir[tab.route(key)]
		s := e.slotOf(key)
		k, v, meta, ok := e.read(s)
		if !ok {
			bo.wait()
			continue
		}
		st := stateOf(meta)
		if st == 0 {
			// Empty prediction target: the key cannot exist anywhere
			// (invariant 2) — no secondary search needed.
			return 0, false
		}
		if st&slotOccupied != 0 && k == key {
			return v, true
		}
		// The slot holds another key or a tombstone, so the key can only
		// be ART-resident. Before paying the traversal, ask the slot's
		// conflict tag whether it can be there at all — the common "absent
		// on a fit-hard dataset" case ends here.
		if absentInART(key, meta) {
			return 0, false
		}
		val, found, _ := t.tree.GetFrom(t.fpNode(e.m), key)
		if found {
			return val, true
		}
		if e.metaRef(s).Load() != meta {
			bo.wait()
			continue // concurrent write or freeze; retry
		}
		return 0, false
	}
}

// Insert stores key/value (upsert): in place when the predicted slot is
// free, otherwise into the ART-OPT layer (Algorithm 2, Insert).
func (t *ALT) Insert(key, value uint64) error {
	bo := t.writerBackoff()
	for {
		tab := t.tab.Load()
		if t.insertAt(tab, tab.route(key), key, value) {
			return nil
		}
		bo.wait()
	}
}

// insertAt runs one optimistic insert attempt of key at its routed table
// position. It returns false on contention (a locked slot or a metadata
// race) — the caller must back off, reload the table and reroute. Shared verbatim by
// the per-key Insert loop and the batched InsertBatch path, so both speak
// exactly the same slot protocol.
func (t *ALT) insertAt(tab *table, pos int, key, value uint64) bool {
	e := &tab.dir[pos]
	s := e.slotOf(key)
	meta := e.metaRef(s).Load()
	if meta&slotLockBit != 0 {
		return false
	}
	st := meta & (slotOccupied | slotTomb)
	switch {
	case st&slotOccupied != 0:
		k := e.keyRef(s).Load()
		if e.metaRef(s).Load() != meta {
			return false
		}
		if k == key {
			if !e.acquire(s, meta) {
				return false
			}
			failpoint.Hit("core/insert/locked")
			e.valRef(s).Store(value)
			e.release(s, meta, slotOccupied)
			return true
		}
		// Conflict data: evict to ART-OPT via the fast pointer
		// ("insertion is similar to the lookup", §III-C3). The slot
		// lock is held across the tree write so a retraining freeze
		// cannot gather the range while this key is in flight (it
		// would strand the key in ART with no occupied slot routing
		// to it).
		if !e.acquire(s, meta) {
			return false
		}
		failpoint.Hit("core/insert/locked")
		// A key new to ART merges its fingerprint into the slot's conflict
		// tag, in the release that publishes it after the tree insert. An
		// upsert of an ART key is in the tag already, from the build or
		// from its own eviction.
		added := t.tree.PutFrom(t.fpNode(e.m), key, value)
		if added {
			meta = withEviction(meta, key)
		}
		e.release(s, meta, slotOccupied)
		if e.m.fastIdx.Load() < 0 {
			// The model had no fast pointer (the ART was empty when
			// it was built); now that its range has conflict data,
			// link it lazily.
			t.registerFP(tab, pos)
		}
		if added { // an upsert of an ART key leaves the key set as it was
			t.size.Add(1)
			e.m.growth.Add(1)
			t.maybeRetrain(e.m)
		}
		return true
	case st == 0:
		if !e.acquire(s, meta) {
			return false
		}
		failpoint.Hit("core/insert/locked")
		e.keyRef(s).Store(key)
		e.valRef(s).Store(value)
		e.release(s, meta, slotOccupied)
		e.m.growth.Add(1)
		t.size.Add(1)
		return true
	default: // tombstone: update an ART copy in place, else claim it.
		// A key behind a tombstone stays in ART (invariant 4): the upsert
		// updates that copy and leaves the slot tombstoned. Every ART
		// write of this key needs the slot lock, so the tag of the meta
		// the lock is taken on and the tree agree on whether the copy
		// exists.
		inART := !absentInART(key, meta)
		if !e.acquire(s, meta) {
			return false
		}
		failpoint.Hit("core/insert/locked")
		if inART && t.tree.Update(key, value) {
			e.release(s, meta, slotTomb)
			return true
		}
		// A claim refills a slot already counted, so it is not growth. A
		// key re-inserted onto its own tombstone finds its key word set.
		if e.keyRef(s).Load() != key {
			e.keyRef(s).Store(key)
		}
		e.valRef(s).Store(value)
		e.release(s, meta, slotOccupied)
		t.size.Add(1)
		return true
	}
}

// Update overwrites an existing key's value.
func (t *ALT) Update(key, value uint64) bool {
	bo := t.writerBackoff()
	for {
		tab := t.tab.Load()
		e := &tab.dir[tab.route(key)]
		s := e.slotOf(key)
		meta := e.metaRef(s).Load()
		if meta&slotLockBit != 0 {
			bo.wait()
			continue
		}
		st := meta & (slotOccupied | slotTomb)
		if st == 0 {
			return false
		}
		if st&slotOccupied != 0 {
			k := e.keyRef(s).Load()
			if e.metaRef(s).Load() != meta {
				bo.wait()
				continue
			}
			if k == key {
				if !e.acquire(s, meta) {
					bo.wait()
					continue
				}
				e.valRef(s).Store(value)
				e.release(s, meta, slotOccupied)
				return true
			}
		}
		// The slot holds another key or a tombstone, so the key can only
		// be ART-resident.
		if absentInART(key, meta) {
			return false // the tag proves no ART copy to update
		}
		// Run the tree update under the slot lock so it cannot interleave
		// with a retraining migration.
		if !e.acquire(s, meta) {
			bo.wait()
			continue
		}
		found := t.tree.Update(key, value)
		e.release(s, meta, st)
		return found
	}
}

// Remove deletes key. A slot-resident key becomes a tombstone so that
// conflict keys predicted to the same slot still route to ART
// (invariant 2); ART-resident keys are removed from the tree.
func (t *ALT) Remove(key uint64) bool {
	bo := t.writerBackoff()
	for {
		tab := t.tab.Load()
		e := &tab.dir[tab.route(key)]
		s := e.slotOf(key)
		meta := e.metaRef(s).Load()
		if meta&slotLockBit != 0 {
			bo.wait()
			continue
		}
		st := meta & (slotOccupied | slotTomb)
		if st == 0 {
			return false
		}
		if st&slotOccupied != 0 {
			k := e.keyRef(s).Load()
			if e.metaRef(s).Load() != meta {
				bo.wait()
				continue
			}
			if k == key {
				// Only the state changes, so one CAS that bumps the
				// version publishes the tombstone: no lock section.
				if !e.metaRef(s).CompareAndSwap(meta, nextMeta(meta, slotTomb)) {
					bo.wait()
					continue
				}
				t.size.Add(-1)
				return true
			}
		}
		// The slot holds another key or a tombstone, so the key can only
		// be ART-resident.
		if absentInART(key, meta) {
			return false // the tag proves no ART copy to remove
		}
		// Remove under the slot lock so the removal cannot interleave with
		// a retraining migration.
		if !e.acquire(s, meta) {
			bo.wait()
			continue
		}
		removed := t.tree.Remove(key)
		e.release(s, meta, st)
		if removed {
			t.size.Add(-1)
		}
		return removed
	}
}

// MemoryUsage approximates retained heap bytes across both layers, the
// fast pointer buffer and the model table. A Bulkload slab counts in full
// while any model of the live table sits in it, dead regions included.
func (t *ALT) MemoryUsage() uintptr {
	tb := t.tab.Load()
	pinned, _ := tb.slabBytes()
	total := t.tree.MemoryUsage() + t.fp.memory() + pinned
	for i := range tb.dir {
		total += tb.dir[i].m.memory()
	}
	return total + tb.memory()
}

// StatsMap implements index.Stats with the counters behind the paper's
// Fig 10 analysis.
func (t *ALT) StatsMap() map[string]int64 {
	tb := t.tab.Load()
	learned := 0
	slots := 0
	for i := range tb.dir {
		learned += tb.dir[i].m.liveCount()
		slots += tb.dir[i].nslots
	}
	pinned, dead := tb.slabBytes()
	return map[string]int64{
		"models":       int64(len(tb.dir)),
		"slots":        int64(slots),
		"learned_keys": int64(learned),
		"art_keys":     int64(t.tree.Len()),
		"fp_entries":   int64(t.fp.len()),
		"fp_requested": t.fp.requestedCount(),
		"retrains":     t.retrains.Load(),

		// Bulkload slab pinned by the live table, and its spliced-out part.
		"slab_bytes":      int64(pinned),
		"slab_dead_bytes": int64(dead),

		// Retraining pipeline observability (§III-F async):
		"retrain_queue_depth":   int64(len(t.ret.q)),
		"retrain_pending":       t.ret.pending.Load(),
		"retrains_inflight":     t.ret.inflight.Load(),
		"retrain_drops":         t.ret.drops.Load(),
		"retrain_merges":        t.ret.merges.Load(),
		"retrain_freeze_ns":     t.ret.freezeNsTotal.Load(),
		"retrain_freeze_max_ns": t.ret.freezeNsMax.Load(),
		"writer_spins":          t.writerSpins.Load(),
	}
}

// ARTLookupLength reports, for a key, how many ART nodes a secondary
// lookup traverses with or without the fast pointer, and whether the key is
// ART-resident. Used by the Fig 10a analysis.
func (t *ALT) ARTLookupLength(key uint64, useFP bool) (pathLen int, inART bool) {
	tab := t.tab.Load()
	m := tab.dir[tab.route(key)].m
	var start *art.Node
	if useFP {
		start = t.fp.node(m.fastIdx.Load())
	}
	_, found, p := t.tree.GetFrom(start, key)
	return p, found
}
