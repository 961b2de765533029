package finedex

import "altindex/internal/index"

// Insert stores key/value (upsert). A key already in the trained array is
// updated (or revived) in place; everything else lands in the level bin of
// its insertion point, growing the bin level by level.
func (ix *Index) Insert(key, value uint64) error {
	tb := ix.tab.Load()
	if tb == nil {
		// No bulkload yet: behave as a single empty model.
		ix.Bulkload(nil)
		tb = ix.tab.Load()
	}
	m := tb.find(key)
	if i, ok := m.locate(key); ok {
		m.mu.Lock()
		m.vals[i].Store(value)
		if m.setDead(i, false) {
			ix.size.Add(1)
		}
		m.mu.Unlock()
		return nil
	} else {
		b := m.ensureBin(i)
		if added := b.put(m, i, key, value); added {
			ix.size.Add(1)
		}
	}
	return nil
}

// ensureBin returns the bin at insertion point i, creating the level-0 bin
// on first use.
func (m *fmodel) ensureBin(i int) *bin {
	if i < 0 {
		i = 0
	}
	if i >= len(m.bins) {
		i = len(m.bins) - 1
	}
	slot := &m.bins[i]
	for {
		if b := slot.Load(); b != nil {
			return b
		}
		b := newBin(binLevel0)
		if slot.CompareAndSwap(nil, b) {
			return b
		}
	}
}

// put inserts into the bin, growing it to the next level when full. The
// model's bin pointer is swapped to the grown copy under the bin lock.
func (b *bin) put(m *fmodel, slot int, key, value uint64) (added bool) {
	for {
		b.mu.Lock()
		// The bin may have been superseded by a grown copy.
		if cur := m.bins[clampBin(slot, len(m.bins))].Load(); cur != b {
			b.mu.Unlock()
			b = cur
			continue
		}
		n := int(b.n.Load())
		// Upsert in place.
		for i := 0; i < n; i++ {
			if b.keys[i].Load() == key {
				b.ver.Add(1)
				b.vals[i].Store(value)
				revived := b.deleted[i].Load() != 0
				b.deleted[i].Store(0)
				b.ver.Add(1)
				b.mu.Unlock()
				return revived
			}
		}
		if n == len(b.keys) {
			// Level full: grow to the next level (double capacity),
			// keeping entries sorted.
			big := newBin(len(b.keys) * 2)
			for i := 0; i < n; i++ {
				big.keys[i].Store(b.keys[i].Load())
				big.vals[i].Store(b.vals[i].Load())
				big.deleted[i].Store(b.deleted[i].Load())
			}
			big.n.Store(int32(n))
			m.bins[clampBin(slot, len(m.bins))].Store(big)
			b.mu.Unlock()
			b = big
			continue
		}
		// Sorted insert.
		pos := 0
		for pos < n && b.keys[pos].Load() < key {
			pos++
		}
		b.ver.Add(1)
		for i := n; i > pos; i-- {
			b.keys[i].Store(b.keys[i-1].Load())
			b.vals[i].Store(b.vals[i-1].Load())
			b.deleted[i].Store(b.deleted[i-1].Load())
		}
		b.keys[pos].Store(key)
		b.vals[pos].Store(value)
		b.deleted[pos].Store(0)
		b.n.Store(int32(n + 1))
		b.ver.Add(1)
		b.mu.Unlock()
		return true
	}
}

func clampBin(i, n int) int {
	if i < 0 {
		return 0
	}
	if i >= n {
		return n - 1
	}
	return i
}

// Update overwrites the value of an existing key.
func (ix *Index) Update(key, value uint64) bool {
	tb := ix.tab.Load()
	if tb == nil {
		return false
	}
	m := tb.find(key)
	if i, ok := m.locate(key); ok {
		m.mu.Lock()
		defer m.mu.Unlock()
		if m.isDead(i) {
			return false
		}
		m.vals[i].Store(value)
		return true
	} else if b := m.binAt(i); b != nil {
		return b.mutate(m, i, key, func(b *bin, bi int) { b.vals[bi].Store(value) })
	}
	return false
}

// Remove deletes key via the tombstone bitmap (trained array) or the bin's
// deletion flag.
func (ix *Index) Remove(key uint64) bool {
	tb := ix.tab.Load()
	if tb == nil {
		return false
	}
	m := tb.find(key)
	if i, ok := m.locate(key); ok {
		m.mu.Lock()
		removed := m.setDead(i, true)
		m.mu.Unlock()
		if removed {
			ix.size.Add(-1)
		}
		return removed
	} else if b := m.binAt(i); b != nil {
		if b.mutate(m, i, key, func(b *bin, bi int) { b.deleted[bi].Store(1) }) {
			ix.size.Add(-1)
			return true
		}
	}
	return false
}

// mutate applies fn to the live entry holding key under the bin lock. Like
// put, it must re-check the model's bin pointer after locking: a concurrent
// put may have grown the bin and published a copy, and a mutation applied
// to the superseded bin would be silently lost in the live one.
func (b *bin) mutate(m *fmodel, slot int, key uint64, fn func(b *bin, i int)) bool {
	for {
		b.mu.Lock()
		if cur := m.bins[clampBin(slot, len(m.bins))].Load(); cur != b {
			b.mu.Unlock()
			b = cur
			continue
		}
		n := int(b.n.Load())
		for i := 0; i < n; i++ {
			if b.keys[i].Load() == key {
				if b.deleted[i].Load() != 0 {
					b.mu.Unlock()
					return false
				}
				b.ver.Add(1)
				fn(b, i)
				b.ver.Add(1)
				b.mu.Unlock()
				return true
			}
		}
		b.mu.Unlock()
		return false
	}
}

// ScanAppend appends up to max pairs with keys in [start, end) to dst in
// ascending order (the index.Concurrent contract), merging each model's
// trained array with its level bins.
func (ix *Index) ScanAppend(dst []index.KV, start, end uint64, max int) []index.KV {
	hi, ok := index.Inclusive(start, end)
	tb := ix.tab.Load()
	if max <= 0 || !ok || tb == nil {
		return dst
	}
	// Locate the starting model.
	mi := 0
	for mi+1 < len(tb.firsts) && tb.firsts[mi+1] <= start {
		mi++
	}
	limit := len(dst) + max
	for ; mi < len(tb.models) && len(dst) < limit; mi++ {
		m := tb.models[mi]
		i, _ := m.locate(start)
		// Emit bin i first (keys before keys[i]), then keys[i], then
		// bin i+1, ... each bin b holds keys in (keys[b-1], keys[b]).
		for pos := i; pos <= len(m.keys) && len(dst) < limit; pos++ {
			if b := m.binAt(pos); b != nil {
				dst = b.appendLive(dst, start, hi, limit)
			}
			if pos < len(m.keys) && len(dst) < limit {
				k := m.keys[pos]
				if k > hi {
					return dst
				}
				if k >= start && !m.isDead(pos) {
					dst = append(dst, index.KV{Key: k, Value: m.vals[pos].Load()})
				}
			}
		}
	}
	return dst
}

// appendLive appends the bin's live entries with keys in [start, hi] to
// dst in key order, read under the seqlock, until dst holds limit pairs.
// Keys past hi are left for the caller: a bin sits below the next array
// key (this model's or the next one's), whose check ends the scan.
func (b *bin) appendLive(dst []index.KV, start, hi uint64, limit int) []index.KV {
	mark := len(dst)
	for {
		dst = dst[:mark]
		v := b.ver.Load()
		if v&1 != 0 {
			continue
		}
		n := int(b.n.Load())
		for i := 0; i < n && i < len(b.keys) && len(dst) < limit; i++ {
			k := b.keys[i].Load()
			if b.deleted[i].Load() != 0 || k < start {
				continue
			}
			if k > hi {
				break // sorted: nothing later is in the window
			}
			dst = append(dst, index.KV{Key: k, Value: b.vals[i].Load()})
		}
		if b.ver.Load() == v {
			return dst
		}
	}
}
