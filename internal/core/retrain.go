package core

import (
	"context"
	"fmt"
	"math"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"altindex/internal/failpoint"
	"altindex/internal/index"
)

// §III-F retraining, off the writer's critical path.
//
// The paper's trigger fires once a model's keys stop fitting its slots. It
// counts what that costs: the model's live keys in ART (model.artKeys),
// which a spill raises and an ART-resident Remove lowers, against a
// threshold its own build fixes (model.built). An upsert or a tombstone
// claim moves no key between the layers and counts nothing. The trigger
// only enqueues the model: running the freeze→collect→GPL-retrain→splice
// rebuild on the triggering writer would make every crowded model a
// tail-latency event for whichever writer tripped it. Three stages:
//
//  1. Trigger (writer's critical path): maybeRetrain, after a spill,
//     costs one counter load; past the threshold, one CAS on the model's
//     armed flag dedups concurrent triggers and the model pointer goes
//     into a bounded channel. On overflow the trigger is dropped but the
//     model re-armed, so the next threshold-crossing insert re-triggers
//     it — a dropped trigger is deferred, never lost.
//  2. Rebuild (worker): one retraining goroutine per index takes the
//     triggers in order and rebuilds each model with its two neighbours,
//     one span at a time. The freeze window is shrunk by hoisting the
//     expensive work out of it (see rebuild).
//  3. Publish (worker): the copy-on-write table splice. The worker is the
//     only code that publishes a table apart from Bulkload, which drains
//     it first, so no two rebuilds ever overlap and a live model's range
//     never changes under its rebuild.

// retrainQueue bounds the trigger queue feeding the worker, sized to hold
// a burst of triggers from many crowded models while the worker rebuilds.
// On overflow the trigger is dropped and the model disarmed, so a later
// threshold-crossing insert re-triggers it.
const retrainQueue = 256

// retrainer owns the background retraining state of one ALT.
type retrainer struct {
	q      chan *model // capacity retrainQueue
	stop   chan struct{}
	wg     sync.WaitGroup
	once   sync.Once
	closed atomic.Bool

	pending  atomic.Int64 // triggers accepted and not yet finished
	inflight atomic.Int64 // rebuilds currently executing (0 or 1)
	drops    atomic.Int64 // triggers dropped on queue overflow (re-armed)
	merges   atomic.Int64 // neighbour models rebuilt with a triggered one

	freezeNsTotal atomic.Int64 // cumulative freeze-window duration
	freezeNsMax   atomic.Int64 // longest single freeze window
}

// ensureWorker starts the worker on the first trigger, so idle indexes
// never own a goroutine.
func (r *retrainer) ensureWorker(t *ALT) {
	r.once.Do(func() { r.launch(t) })
}

func (r *retrainer) launch(t *ALT) {
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		// Label the goroutine so CPU and goroutine profiles attribute
		// pipeline time to the worker instead of an anonymous func; the
		// per-rebuild key range is layered on in processRetrain.
		ctx := pprof.WithLabels(context.Background(), pprof.Labels("task", "retrain-worker"))
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

// maybeRetrain is the writer-side trigger (§III-F), run after a spill:
// one counter load on the fast path, one CAS plus a non-blocking channel
// send once the model's ART keys pass its retrainAt.
func (t *ALT) maybeRetrain(m *model) {
	if t.opts.DisableRetraining || m.artKeys.Load() <= m.retrainAt {
		return
	}
	if !m.retrainArmed.CompareAndSwap(false, true) {
		return // already queued or mid-rebuild
	}
	t.enqueueRetrain(m)
}

// enqueueRetrain hands an armed model to the worker without blocking the
// writer. A full queue drops the trigger but disarms the model, so a
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
	r.ensureWorker(t)
	failpoint.Hit("core/retrain/enqueue")
	r.pending.Add(1)
	select {
	case r.q <- m:
	default:
		r.pending.Add(-1)
		r.drops.Add(1)
		m.retrainArmed.Store(false)
	}
}

// processRetrain is one dequeued trigger: an identity check, then the
// rebuild. Every exit decrements pending, which was incremented when the
// trigger was accepted.
func (t *ALT) processRetrain(ctx context.Context, m *model) {
	r := &t.ret
	defer func() {
		m.retrainArmed.Store(false)
		r.pending.Add(-1)
	}()
	tab := t.tab.Load()
	pos := tab.posOf(m)
	if pos < 0 {
		return // rebuilt since the trigger, alone or as a neighbour
	}
	r.inflight.Add(1)
	defer r.inflight.Add(-1)
	// The rebuild takes m's neighbours too: a rebuild never widens a
	// range, so without them a split GPL made at a smaller ε, while the
	// index was smaller, would outlive every later rebuild. Scope the
	// rebuilt key range onto the worker's profiler labels for the
	// rebuild's duration (pprof.Do restores ctx's labels after), so a CPU
	// profile splits rebuild cost per range.
	loIdx, hiIdx := max(pos-1, 0), min(pos+1, len(tab.dir)-1)
	lo, _ := tab.rangeBounds(loIdx)
	_, end := tab.rangeBounds(hiIdx)
	pprof.Do(ctx, pprof.Labels("range", fmt.Sprintf("%#x-%#x", lo, end)),
		func(context.Context) { t.rebuild(tab, loIdx, hiIdx) })
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
// preserve the spliced range's lower end (see rebuild), and only a splice
// that replaces the model removes its boundaries.
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
// table splice with a deliberately small freeze window. It rebuilds the
// span of models at positions [loIdx, hiIdx] of cur, the triggered model
// and its neighbours (see processRetrain), as one range:
//
//	pre-freeze   snapshot candidate keys (best-effort slot reads + the
//	             range's ART residents) and build empty shells over them
//	             (newShells, at the ε of the index's live key count, the
//	             §III-D rule Bulkload applies to its input). Writers
//	             still run — staleness only means some keys land as
//	             conflicts in ART, never a correctness issue, because slot
//	             predictions are exact by construction.
//	freeze       lock the span's slots (drains in-flight slot writers),
//	             capture the exact entries, and bulk-remove the range's
//	             ART residents in one RemoveRange traversal (the frozen
//	             slots block every in-range ART mutation, so the removal
//	             is an exact cut). Place the exact keys into the
//	             shells (fillShells, Bulkload's fill); evict conflicts
//	             to ART.
//	publish      swap the table, record the freeze-window duration.
//
// The freeze window therefore covers only slot draining, one ordered ART
// traversal and array placement — segmentation and allocation moved off
// it, and the old per-key tree.Remove loop (O(n·log n) descents) is one
// bulk traversal now.
//
// Nothing else publishes while the worker rebuilds (Bulkload drains it
// first), so cur and the span still hold at the splice.
func (t *ALT) rebuild(cur *table, loIdx, hiIdx int) {
	span := cur.dir[loIdx : hiIdx+1]
	lo, _ := cur.rangeBounds(loIdx)
	_, end := cur.rangeBounds(hiIdx)
	gap, eps := min(t.opts.GapFactor*2, 4), t.opts.errorBound(t.Len())

	// --- Pre-freeze: candidate snapshot + segmentation + allocation. ---
	var cand []uint64
	for i := range span {
		for s := 0; s < span[i].nslots; s++ {
			if k, _, meta, ok := span[i].read(s); ok && meta&slotOccupied != 0 {
				cand = append(cand, k)
			}
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
	for i := range span {
		span[i].m.freeze()
	}
	failpoint.Hit("core/retrain/freeze")
	var mk, mv []uint64 // the models' ranges ascend, so their entries do
	for i := range span {
		mk, mv = span[i].m.frozenEntries(mk, mv)
	}
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
		newModels = []*model{emptyModel(span[0].first)}
	}

	// --- Publish: splice. ---
	failpoint.Hit("core/retrain/splice")
	t.ret.merges.Add(int64(hiIdx - loIdx))

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
	newTab := newTable(append(bounds, cur.bounds[hiIdx+1:]...), append(dir, cur.dir[hiIdx+1:]...), len(cur.rt.sub))

	for i := range newModels {
		t.registerFP(newTab, loIdx+i)
	}

	failpoint.Hit("core/retrain/publish")
	if !t.tab.CompareAndSwap(cur, newTab) {
		// Loud beats losing the frozen keys silently.
		panic("core: a table was published during a rebuild")
	}
	t.retrains.Add(1)
	freezeNs := time.Since(freezeStart).Nanoseconds()

	// The spliced-out models are unreachable from the new table and stay
	// frozen; the collector frees them once the last reader still holding
	// the old table lets go.

	r := &t.ret
	r.freezeNsTotal.Add(freezeNs)
	for {
		old := r.freezeNsMax.Load()
		if freezeNs <= old || r.freezeNsMax.CompareAndSwap(old, freezeNs) {
			break
		}
	}
}

// emptyModel returns a one-slot model covering first, used when a rebuilt
// range holds no keys.
func emptyModel(first uint64) *model {
	m := &model{layout: layout{first: first, slope: 1, nslots: 1, blocks: make([]slotBlock, 1)}}
	m.built(1, 0)
	m.fastIdx.Store(-1)
	return m
}

// emptyTable is the table New and a Bulkload of zero pairs publish: one
// placeholder model owning the whole key space, whose single slot every
// key predicts to (see New).
func emptyTable() *table {
	return newTable([]uint64{0}, []entry{newEntry(emptyModel(0))}, 0)
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
// residents) into one ascending stream. A rebuild merges the frozen slots
// with the drained ART range, and those share no key: invariant 1 puts a
// live key in one layer, and invariant 4 keeps it there outside a freeze.
// Equal keys would keep the model copy.
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
