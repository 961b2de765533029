package core

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"altindex/internal/index"
)

// §III-F retraining, off the writer's critical path.
//
// The paper's trigger — a model whose runtime insertions exceed its build
// size is crowded, so subsequent inserts all spill into ART — only enqueues
// the model: running the freeze→collect→GPL-retrain→splice rebuild on the
// triggering writer would make every crowded model a tail-latency event for
// whichever writer tripped it. Three stages:
//
//  1. Trigger (writer's critical path): maybeRetrain costs two counter
//     loads; past the threshold, one CAS on the model's armed flag dedups
//     concurrent triggers and the model pointer goes into a bounded
//     channel. On overflow the trigger is dropped but the model re-armed,
//     so the next threshold-crossing insert re-triggers it — a dropped
//     trigger is deferred, never lost.
//  2. Admission (worker): the worker resolves the model's immutable
//     routing range and claims it in the active-range set. Ranges of live
//     models are disjoint, so unrelated rebuilds run concurrently; the
//     claim exists to serialize against splice-time placeholder absorption
//     and to make overlap structurally impossible.
//  3. Rebuild + publish: the freeze window is shrunk by hoisting the
//     expensive work out of it (see rebuild), and the copy-on-write table
//     splice serializes under a short publish lock during which adjacent
//     empty placeholder models are absorbed, so the table stops growing
//     monotonically under churn.

// retrainQueue bounds the trigger queue feeding the worker pool, sized to
// hold a burst of triggers from many crowded models while the few workers
// rebuild. On overflow the trigger is dropped and the model disarmed, so a
// later threshold-crossing insert re-triggers it.
const retrainQueue = 256

// keyRange is an inclusive key interval claimed by an in-flight rebuild.
type keyRange struct{ lo, hi uint64 }

// retrainer owns the background retraining state of one ALT.
type retrainer struct {
	q       chan *model // capacity retrainQueue
	stop    chan struct{}
	wg      sync.WaitGroup
	once    sync.Once
	closed  atomic.Bool
	workers int // pool size, set by New: min(4, max(1, GOMAXPROCS/2))

	// mu guards active, the set of key ranges claimed by in-flight
	// rebuilds (including splice-time placeholder absorption).
	mu     sync.Mutex
	active []keyRange

	// publishMu serializes copy-on-write table splices. Held only for the
	// splice itself (array copies + store), never across a freeze or a
	// segmentation.
	publishMu sync.Mutex

	pending  atomic.Int64 // triggers accepted and not yet finished
	inflight atomic.Int64 // rebuilds currently executing
	drops    atomic.Int64 // triggers dropped on queue overflow (re-armed)
	merges   atomic.Int64 // placeholder models absorbed during splices

	freezeNsTotal atomic.Int64 // cumulative freeze-window duration
	freezeNsMax   atomic.Int64 // longest single freeze window
}

// ensureWorkers starts the worker pool on the first trigger, so idle
// indexes never own goroutines.
func (r *retrainer) ensureWorkers(t *ALT) {
	r.once.Do(func() { r.launch(t) })
}

func (r *retrainer) launch(t *ALT) {
	for i := 0; i < r.workers; i++ {
		r.wg.Add(1)
		ctx := pprof.WithLabels(context.Background(),
			pprof.Labels("task", "retrain-worker", "worker", strconv.Itoa(i)))
		go func() {
			defer r.wg.Done()
			// Label the goroutine so CPU and goroutine profiles attribute
			// pipeline time to the pool instead of an anonymous func; the
			// per-rebuild key range is layered on in processRetrain.
			pprof.SetGoroutineLabels(ctx)
			for {
				select {
				case <-r.stop:
					return
				case m := <-r.q:
					t.processRetrain(ctx, m)
				}
			}
		}()
	}
}

// tryAcquire claims [lo, hi] if it overlaps no active claim.
func (r *retrainer) tryAcquire(lo, hi uint64) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, a := range r.active {
		if lo <= a.hi && a.lo <= hi {
			return false
		}
	}
	r.active = append(r.active, keyRange{lo, hi})
	return true
}

func (r *retrainer) release(lo, hi uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, a := range r.active {
		if a.lo == lo && a.hi == hi {
			r.active[i] = r.active[len(r.active)-1]
			r.active = r.active[:len(r.active)-1]
			return
		}
	}
}

// maybeRetrain is the writer-side trigger (§III-F): two counter loads on
// the fast path, one CAS plus a non-blocking channel send when the model
// crosses its threshold. The trigger is floored (Options.RetrainMinInserts)
// so small models do not thrash through rebuilds.
func (t *ALT) maybeRetrain(m *model) {
	if t.opts.DisableRetraining {
		return
	}
	threshold := int64(m.buildSize)
	if min := int64(t.opts.RetrainMinInserts); threshold < min {
		threshold = min
	}
	if m.inserts.Load()+m.overflow.Load() <= threshold {
		return
	}
	if !m.retrainArmed.CompareAndSwap(false, true) {
		return // already queued or mid-rebuild
	}
	t.enqueueRetrain(m)
}

// enqueueRetrain hands an armed model to the worker pool without blocking
// the writer. A full queue drops the trigger but disarms the model, so a
// later threshold-crossing insert re-enqueues it: the pre-async code lost
// such triggers entirely (a failed TryLock left the crowded model silently
// crowded until the next insert happened to re-trip the threshold — which
// a starved model never did).
func (t *ALT) enqueueRetrain(m *model) {
	r := &t.ret
	if r.closed.Load() {
		m.retrainArmed.Store(false)
		return
	}
	r.ensureWorkers(t)
	fpRetrainEnqueue.Inject()
	r.pending.Add(1)
	select {
	case r.q <- m:
	default:
		r.pending.Add(-1)
		r.drops.Add(1)
		m.retrainArmed.Store(false)
	}
}

// processRetrain is one dequeued trigger: identity check, range admission,
// rebuild. A model that fails admission is pushed back still armed — a
// crowding model waiting out a neighboring splice must not be forgotten.
//
// Accounting contract: pending was incremented when the trigger was
// accepted; every terminal exit decrements it, a requeue is net zero.
func (t *ALT) processRetrain(ctx context.Context, m *model) {
	r := &t.ret
	finish := func() {
		m.retrainArmed.Store(false)
		r.pending.Add(-1)
	}
	cur := t.tab.Load()
	pos := cur.posOf(m)
	if pos < 0 {
		finish() // replaced by a rebuild or absorbed since the trigger
		return
	}
	lo, end := cur.rangeBounds(pos)
	if !r.tryAcquire(lo, end) {
		select {
		case r.q <- m: // stays armed; net-zero on pending
		default:
			r.drops.Add(1)
			finish()
		}
		runtime.Gosched() // let the conflicting rebuild progress
		return
	}
	// Admitted. Re-verify identity: a splice may have replaced m between
	// the lookup and the claim. Boundaries are immutable while a model
	// lives, so lo/end still denote this claim's range either way.
	if t.tab.Load().posOf(m) < 0 {
		r.release(lo, end)
		finish()
		return
	}
	// Shared rebuild budget: when a gate is configured (the sharded
	// front-end hands one gate to every shard), acquire a slot before the
	// rebuild so the per-index pipelines cannot collectively oversubscribe
	// the CPU. The range claim is already held, which is safe: claims are
	// per-index and rebuilds never acquire a second gate slot, so gate
	// waiters only ever wait on rebuilds that finish on their own.
	if gate := t.opts.RetrainGate; gate != nil {
		select {
		case gate <- struct{}{}:
		case <-r.stop:
			r.release(lo, end)
			finish()
			return
		}
	}
	r.inflight.Add(1)
	// Scope the claimed key range onto the worker's profiler labels for the
	// rebuild's duration (pprof.Do restores ctx's labels after), so a CPU
	// profile splits rebuild cost per range.
	pprof.Do(ctx, pprof.Labels("range", fmt.Sprintf("%#x-%#x", lo, end)),
		func(context.Context) { t.rebuild(m, lo, end) })
	r.inflight.Add(-1)
	if gate := t.opts.RetrainGate; gate != nil {
		<-gate
	}
	r.release(lo, end)
	finish()
}

// posOf returns m's table position — the retrainer's own lookup, through
// the same route as every operation — or -1 when m is no longer in tb.
func (tb *table) posOf(m *model) int {
	if pos := tb.route(m.first); tb.dir[pos].m == m {
		return pos
	}
	return -1
}

// rangeBounds returns the inclusive key range routed to the model at
// position pos. The range is immutable while the model lives: rebuilds
// preserve the spliced range's lower end (see rebuild) and only the owner
// of a range's claim may remove its boundaries.
func (tb *table) rangeBounds(pos int) (lo, end uint64) {
	lo = tb.bounds[pos]
	if pos == 0 {
		lo = 0 // model 0 also owns all keys below its boundary
	}
	end = tb.upperBound(pos) // exclusive, except MaxUint64 (inclusive)
	if pos+1 < len(tb.bounds) {
		end--
	}
	return lo, end
}

// rebuild is the expansion of §III-F, restructured around a copy-on-write
// table splice with a deliberately small freeze window:
//
//	pre-freeze   snapshot candidate keys (best-effort slot reads + the
//	             range's ART residents) and build empty shells over them
//	             (newShells, at the ε of the index's live key count, the
//	             §III-D rule Bulkload applies to its input). Writers
//	             still run — staleness only means some keys land as
//	             conflicts in ART, never a correctness issue, because slot
//	             predictions are exact by construction.
//	freeze       lock the model's slots (drains in-flight slot writers),
//	             capture the exact entries, and bulk-remove the range's
//	             ART residents in one RemoveRange traversal (the frozen
//	             slots block every in-range ART mutation, so the removal
//	             is an exact cut). Place the exact keys into the
//	             shells (fillShells, Bulkload's fill); evict conflicts
//	             to ART.
//	publish      under the short publish lock: absorb adjacent empty
//	             placeholder models into the splice, swap the table,
//	             record the freeze-window duration.
//
// The freeze window therefore covers only slot draining, one ordered ART
// traversal and array placement — segmentation and allocation moved off
// it, and the old per-key tree.Remove loop (O(n·log n) descents) is one
// bulk traversal now.
func (t *ALT) rebuild(m *model, lo, end uint64) {
	gap, eps := min(t.opts.GapFactor*2, 4), t.opts.errorBound(t.Len())

	// --- Pre-freeze: candidate snapshot + segmentation + allocation. ---
	cand := make([]uint64, 0, m.nslots/2)
	for s := 0; s < m.nslots; s++ {
		if k, _, meta, ok := m.read(s); ok && meta&slotOccupied != 0 {
			cand = append(cand, k)
		}
	}
	// end is inclusive and Walk's is half-open, with MaxUint64 meaning
	// unbounded: from end MaxUint64-1 up the walk is unbounded, and the
	// check stops it.
	var artCand []uint64
	index.Walk(t.tree, lo, min(end, ^uint64(0)-1)+1, math.MaxInt, func(k, _ uint64) bool {
		if k > end {
			return false
		}
		artCand = append(artCand, k)
		return true
	})
	shells := newShells(mergeSortedKeys(cand, artCand), eps, gap, false)

	// --- Freeze: drain writers, capture the exact range contents. ---
	freezeStart := time.Now()
	m.freeze()
	fpRetrainFreeze.Inject()
	mk, mv := m.frozenEntries()
	drained := t.tree.RemoveRange(lo, end, nil)
	ak := make([]uint64, len(drained))
	av := make([]uint64, len(drained))
	for i, kv := range drained {
		ak[i], av[i] = kv.Key, kv.Value
	}
	keys, vals := mergeSorted(mk, mv, ak, av)

	if len(shells) == 0 {
		// No pre-freeze candidates, but keys arrived before the freeze
		// (tiny window): segment the frozen keys instead.
		shells = newShells(keys, eps, gap, false)
	}
	newModels := t.fillShells(shells, keys, vals)
	if len(newModels) == 0 {
		// Keep an empty placeholder so the table still covers the range.
		// Pre-built shells (stale candidates that all vanished before the
		// freeze) were never published and are simply dropped.
		newModels = []*model{emptyModel(m.first)}
	}

	// --- Publish: splice + placeholder absorption under the short lock. ---
	r := &t.ret
	r.publishMu.Lock()
	fpRetrainSplice.Inject()
	cur := t.tab.Load()
	pos := cur.posOf(m)
	if pos < 0 {
		// Cannot happen while this rebuild holds the range claim: only
		// the claim owner splices a range out. Loud beats losing the
		// frozen keys silently.
		r.publishMu.Unlock()
		panic("core: frozen model vanished from the table during rebuild")
	}

	// Absorb adjacent never-written placeholders into this splice. A
	// placeholder whose single slot is still state 0 proves its whole
	// range empty (invariant 2: any ART key in the range would have
	// forced the slot non-empty), so dropping it and letting this
	// splice's models cover the range changes no lookup result. A
	// tombstoned placeholder is NOT absorbable — its range may hold ART
	// residents that need a non-empty predicted slot.
	loIdx, hiIdx := pos, pos
	var absorbed []keyRange
	for loIdx > 0 && t.absorbNeighbor(cur, loIdx-1, &absorbed) {
		loIdx--
	}
	for hiIdx+1 < len(cur.dir) && t.absorbNeighbor(cur, hiIdx+1, &absorbed) {
		hiIdx++
	}
	r.merges.Add(int64(len(absorbed)))

	// The new table: the old one with [loIdx, hiIdx] replaced by the new
	// models, each bounded by its prediction origin — except the first.
	// Routing boundaries are immutable: the rebuilt span keeps its old
	// lower bound even if its minimum key moved up, so no neighbour's
	// routing range ever expands and every registered fast pointer keeps
	// covering its model's range (keys between the boundary and the origin
	// clamp to slot 0). Only at the head of the table can the origin be
	// the smaller of the two — model 0 also owns the keys below its
	// boundary — and there the origin must win, or the second new model's
	// boundary could repeat or undercut the first's; position 0's lower
	// boundary bounds nothing, so no range changes either way.
	n := len(cur.dir) - (hiIdx + 1 - loIdx) + len(newModels)
	bounds := append(make([]uint64, 0, n), cur.bounds[:loIdx]...)
	dir := append(make([]entry, 0, n), cur.dir[:loIdx]...)
	for _, nm := range newModels {
		bounds = append(bounds, nm.first)
		dir = append(dir, newEntry(nm))
	}
	bounds[loIdx] = min(bounds[loIdx], cur.bounds[loIdx])
	newTab := newTable(append(bounds, cur.bounds[hiIdx+1:]...), append(dir, cur.dir[hiIdx+1:]...))

	for i := range newModels {
		t.registerFP(newTab, loIdx+i)
	}

	fpRetrainPublish.Inject()
	t.tab.Store(newTab)
	t.retrains.Add(1)
	freezeNs := time.Since(freezeStart).Nanoseconds()
	r.publishMu.Unlock()

	// The spliced-out models (the rebuilt one plus absorbed placeholders)
	// are unreachable from the new table and stay frozen; the collector
	// frees them once the last reader still holding the old table lets go.

	for _, a := range absorbed {
		r.release(a.lo, a.hi)
	}
	r.freezeNsTotal.Add(freezeNs)
	for {
		old := r.freezeNsMax.Load()
		if freezeNs <= old || r.freezeNsMax.CompareAndSwap(old, freezeNs) {
			break
		}
	}
}

// absorbNeighbor tries to fold the placeholder model at table position i
// into an in-progress splice. It claims the placeholder's range (so no
// concurrent rebuild can also touch it), freezes its single slot and
// verifies it is still never-written; any failure backs out. On success
// the claim is recorded in *absorbed for release after the publish.
func (t *ALT) absorbNeighbor(cur *table, i int, absorbed *[]keyRange) bool {
	em := cur.dir[i].m
	if em.nslots != 1 || stateOf(em.metaRef(0).Load()) != 0 {
		return false
	}
	nlo, nend := cur.rangeBounds(i)
	if !t.ret.tryAcquire(nlo, nend) {
		return false
	}
	em.freeze()
	if stateOf(em.metaRef(0).Load()) != 0 {
		// A writer claimed the slot between the check and the freeze.
		em.unfreeze()
		t.ret.release(nlo, nend)
		return false
	}
	*absorbed = append(*absorbed, keyRange{nlo, nend})
	return true
}

// emptyModel returns a one-slot model covering first, used when a rebuilt
// range holds no keys.
func emptyModel(first uint64) *model {
	m := &model{layout: layout{first: first, slope: 1, nslots: 1, blocks: make([]slotBlock, 1)}, buildSize: 1}
	m.fastIdx.Store(-1)
	return m
}

// emptyTable is the table New and a Bulkload of zero pairs publish: one
// placeholder model owning the whole key space, whose single slot every
// key predicts to (see New).
func emptyTable() *table {
	return newTable([]uint64{0}, []entry{newEntry(emptyModel(0))})
}

// mergeSortedKeys merges two ascending key slices, dropping duplicates.
func mergeSortedKeys(a, b []uint64) []uint64 {
	out := make([]uint64, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// mergeSorted merges two ascending key streams (model entries and ART
// residents) into one ascending stream. Equal keys — possible only in a
// narrow migration window — keep the model copy, which is newer.
func mergeSorted(ak []uint64, avals []uint64, bk []uint64, bvals []uint64) (keys, vals []uint64) {
	keys = make([]uint64, 0, len(ak)+len(bk))
	vals = make([]uint64, 0, len(ak)+len(bk))
	i, j := 0, 0
	for i < len(ak) && j < len(bk) {
		switch {
		case ak[i] < bk[j]:
			keys = append(keys, ak[i])
			vals = append(vals, avals[i])
			i++
		case ak[i] > bk[j]:
			keys = append(keys, bk[j])
			vals = append(vals, bvals[j])
			j++
		default:
			keys = append(keys, ak[i])
			vals = append(vals, avals[i])
			i++
			j++
		}
	}
	for ; i < len(ak); i++ {
		keys = append(keys, ak[i])
		vals = append(vals, avals[i])
	}
	for ; j < len(bk); j++ {
		keys = append(keys, bk[j])
		vals = append(vals, bvals[j])
	}
	return keys, vals
}
