package core

import (
	"math/bits"
	"sync"

	"altindex/internal/index"
)

// scanBufs is the per-scan scratch: the learned-layer run buffer and the
// ART-layer result buffer. Pooled so repeated scans allocate nothing.
type scanBufs struct {
	learned []index.KV
	art     []index.KV
}

var scanBufPool = sync.Pool{New: func() any { return new(scanBufs) }}

// maxPooledScanKV bounds the per-buffer capacity the pool retains, so one
// giant scan cannot pin its working set forever.
const maxPooledScanKV = 1 << 16

func putScanBufs(b *scanBufs) {
	if cap(b.learned) > maxPooledScanKV {
		b.learned = nil
	}
	if cap(b.art) > maxPooledScanKV {
		b.art = nil
	}
	scanBufPool.Put(b)
}

// ScanAppend appends up to max pairs with keys in [start, end) to dst in
// ascending key order and returns the extended slice (§III-G Range Query,
// bounded). end == ^uint64(0) is the "no upper bound" sentinel: the window
// then includes key MaxUint64 itself — the one key a half-open bound cannot
// express an exclusion for. Any other end <= start yields an empty window.
//
// The learned layer is read through a block-granular run kernel (one
// seqlock validation per 8-slot block, per-slot fallback only on
// contention) and merged with the ART layer span-wise. The two reads can
// meet one key without any rebuild: the learned read takes it from its
// slot, it is removed, a fresh key claims the tombstoned slot, and its
// re-insert is evicted into ART before the ART read. Equal keys are
// therefore deduplicated, in favour of the learned copy. Callers that
// reuse dst across scans pay zero allocations.
func (t *ALT) ScanAppend(dst []index.KV, start, end uint64, max int) []index.KV {
	if max <= 0 || (end != ^uint64(0) && end <= start) {
		return dst
	}
	bufs := scanBufPool.Get().(*scanBufs)
	defer putScanBufs(bufs)
	return t.scanAppend(dst, bufs, start, end, max)
}

// scanAppend is the bounded-scan core behind ScanAppend; the caller owns
// bufs (pooled) and has validated the window.
//
// The layers are read one after the other, so the merge is complete only
// if no key moved between them meanwhile, and only a rebuild moves keys
// (invariant 4). The scan retries — never returns a shorter result — until
// the learned read met no frozen slot (collectRuns) and, after the ART read,
// no model the window touched has begun freezing (frozenIn). A freeze
// precedes the rebuild's ART drain and ends in a new table, so retries end.
func (t *ALT) scanAppend(dst []index.KV, bufs *scanBufs, start, end uint64, max int) []index.KV {
	hi := end // inclusive upper bound
	if end != ^uint64(0) {
		hi = end - 1
	}
	var bo backoff
	for ; ; bo.wait() {
		tab := t.tab.Load()
		first := tab.route(start)
		learned, next, ok := t.collectRuns(tab, first, start, hi, max, bufs.learned[:0])
		bufs.learned = learned
		if !ok {
			continue
		}
		// Learned-bounded ART window: when the learned run is full (max pairs),
		// its last key L caps the merge — the first max keys of the union are
		// all <= L, so ART keys above L cannot surface and their subtrees need
		// not be walked at all. With a mostly-learned index this shrinks the
		// ART traversal to the span the output actually covers. Equal keys
		// stay included (the merge prefers the learned copy).
		artHi := hi
		if len(learned) >= max {
			artHi = learned[len(learned)-1].Key
		}
		bufs.art = t.tree.AppendRange(bufs.art[:0], start, artHi, max)
		if tab.frozenIn(first, next, start) {
			continue
		}
		return mergeRuns(dst, learned, bufs.art, max)
	}
}

// collectRuns gathers up to max pairs with keys in [start, hi] from the
// learned layer, starting at table position first (start's route) and
// appending into the caller's (pooled, reset) buffer via the per-model
// block kernel. next is one past the last model visited. ok=false means a
// slot stayed write-locked (a retraining freeze) and the caller must reload
// the table and retry; the partially filled buffer is still returned so its
// capacity is kept.
func (t *ALT) collectRuns(tb *table, first int, start, hi uint64, max int, out []index.KV) (_ []index.KV, next int, ok bool) {
	for next = first; next < len(tb.dir) && len(out) < max; {
		e := &tb.dir[next]
		// By boundary, not origin: keys below a rebuilt origin sit in slot 0.
		if next > first && tb.bounds[next] > hi {
			break // model ranges are sorted: everything later is past hi
		}
		next++
		var past bool
		out, past, ok = e.appendRuns(out, e.scanFrom(start), start, hi, max)
		if !ok {
			return out, next, false // frozen slot: table about to change
		}
		if past {
			break // a key past hi was seen; later models are larger still
		}
	}
	return out, next, true
}

// scanFrom returns the slot a scan of keys >= start begins at in this model.
func (l *layout) scanFrom(start uint64) int {
	if l.first <= start {
		return l.slotOf(start)
	}
	return 0
}

// frozenIn reports whether any model at positions [first, next) — the ones
// a scan from start just read — has a freeze under way, probed at the slot
// the scan entered the model through (its block is still in cache). freeze
// locks every slot before the rebuild touches ART and never unlocks a model
// it goes on to replace, so an unlocked probe proves the model's ART
// residents had not begun moving when the probe was taken. A writer holding
// the probe slot reads as frozen too; that only costs a retry.
func (tb *table) frozenIn(first, next int, start uint64) bool {
	for mi := first; mi < next; mi++ {
		e := &tb.dir[mi]
		if e.metaRef(e.scanFrom(start)).Load()&slotLockBit != 0 {
			return true
		}
	}
	return false
}

// appendRuns is the block-granular scan kernel: it copies occupied runs out
// of the model's interleaved 8-slot blocks starting at slot s0, appending
// pairs with keys in [start, hi] until max pairs are buffered or the model
// is exhausted. Each clean block costs one batched seqlock validation —
// load the 8 meta words, copy the key and value lanes, reload the metas and
// compare — instead of 8 independent validations; occupied lanes are then
// extracted branch-lite from the meta snapshot. A locked or torn block
// falls back to per-slot reads.
//
// past=true reports a key above hi (slot order equals key order, so the
// whole scan is done). ok=false reports a frozen slot (retraining): the
// caller must reload the table and retry.
func (l *layout) appendRuns(out []index.KV, s0 int, start, hi uint64, max int) (_ []index.KV, past, ok bool) {
	firstBlock := s0 >> blockShift
	nblocks := (l.nslots + blockMask) >> blockShift
	for bi := firstBlock; bi < nblocks; bi++ {
		b := &l.blocks[bi]
		lane0 := 0
		if bi == firstBlock {
			lane0 = s0 & blockMask
		}
		// Occupancy bitmap straight from the meta snapshot. Trailing lanes
		// past nslots are permanently empty, so they drop out here without
		// an explicit bound.
		var metas [blockSlots]uint32
		locked, mask := uint32(0), uint32(0)
		for j := 0; j < blockSlots; j++ {
			w := b.meta[j].Load()
			metas[j] = w
			locked |= w
			mask |= (w & slotOccupied) >> 1 << j
		}
		mask &^= 1<<lane0 - 1
		if locked&slotLockBit == 0 {
			// Copy and revalidate only the occupied lanes: an empty lane's
			// concurrent insert is simply not observed, which linearizes the
			// block read at the meta snapshot; deletes and updates of
			// occupied lanes bump their meta and fail the reload compare.
			var keys, vals [blockSlots]uint64
			for om := mask; om != 0; om &= om - 1 {
				j := bits.TrailingZeros32(om)
				keys[j] = b.keys[j].Load()
				vals[j] = b.vals[j].Load()
			}
			clean := true
			for om := mask; om != 0; om &= om - 1 {
				j := bits.TrailingZeros32(om)
				if b.meta[j].Load() != metas[j] {
					clean = false
					break
				}
			}
			if clean {
				for ; mask != 0; mask &= mask - 1 {
					j := bits.TrailingZeros32(mask)
					k := keys[j]
					if k < start {
						continue
					}
					if k > hi {
						return out, true, true
					}
					out = append(out, index.KV{Key: k, Value: vals[j]})
					if len(out) >= max {
						return out, false, true
					}
				}
				continue
			}
		}
		// Contended block: per-slot seqlock reads with bounded backoff.
		end := bi<<blockShift + blockSlots
		if end > l.nslots {
			end = l.nslots
		}
		for s := bi<<blockShift + lane0; s < end; s++ {
			k, v, st, rok := l.readPersistent(s)
			if !rok {
				return out, false, false
			}
			if st&slotOccupied == 0 || k < start {
				continue
			}
			if k > hi {
				return out, true, true
			}
			out = append(out, index.KV{Key: k, Value: v})
			if len(out) >= max {
				return out, false, true
			}
		}
	}
	return out, false, true
}

// readPersistent is a per-slot seqlock read that retries through transient
// writer windows. ok=false means the slot stayed locked through the whole
// backoff budget — in practice a retraining freeze.
func (l *layout) readPersistent(s int) (key, val uint64, meta uint32, ok bool) {
	var bo backoff
	for try := 0; try < 64; try++ {
		if k, v, st, rok := l.read(s); rok {
			return k, v, st, true
		}
		bo.wait()
	}
	return 0, 0, 0, false
}

// mergeRuns merges the learned and ART run buffers into dst (ascending,
// at most max appended pairs): each ART entry is located in the learned
// run by a galloping search from the merge frontier and the learned span
// below it is copied wholesale. Galloping adapts to the actual ART
// density — a sparse ART pays O(log span) per entry over long spans,
// while densely interleaved entries (an ART-heavy index) resolve in one
// or two probes, so the merge never degrades below the per-key 3-way loop
// it replaces. Equal keys prefer the learned copy: a key read from its
// slot can turn up in the later ART read after a remove, a slot reuse and
// a re-insert in between (see ScanAppend), and the learned read is the
// earlier one.
func mergeRuns(dst, learned, art []index.KV, max int) []index.KV {
	if len(art) == 0 {
		n := len(learned)
		if n > max {
			n = max
		}
		return append(dst, learned[:n]...)
	}
	base := len(dst)
	i := 0
	for _, a := range art {
		room := max - (len(dst) - base)
		if room <= 0 {
			return dst
		}
		span := gallopKV(learned[i:], a.Key)
		if span > room {
			span = room
		}
		dst = append(dst, learned[i:i+span]...)
		i += span
		if max-(len(dst)-base) <= 0 {
			return dst
		}
		if i < len(learned) && learned[i].Key == a.Key {
			dst = append(dst, learned[i]) // duplicate: keep the learned copy
			i++
		} else {
			dst = append(dst, a)
		}
	}
	if room := max - (len(dst) - base); room > 0 {
		n := len(learned) - i
		if n > room {
			n = room
		}
		dst = append(dst, learned[i:i+n]...)
	}
	return dst
}

// gallopKV returns the first position in s whose key is >= key, found by
// exponential probing from the front followed by a binary search over the
// bracketed window. Hand-rolled (no sort.Search) so the zero-alloc scan
// path stays closure-free.
func gallopKV(s []index.KV, key uint64) int {
	if len(s) == 0 || s[0].Key >= key {
		return 0
	}
	// Invariant: s[lo].Key < key. Double the step until the window
	// [lo, lo+step] brackets the boundary or runs off the end.
	lo, step := 0, 1
	for lo+step < len(s) && s[lo+step].Key < key {
		lo += step
		step <<= 1
	}
	hi := lo + step
	if hi > len(s) {
		hi = len(s)
	}
	for lo+1 < hi {
		mid := int(uint(lo+hi) >> 1)
		if s[mid].Key < key {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi
}
