package xindex

import "altindex/internal/index"

// Get returns the value stored for key. The delta buffer is consulted
// first (it shadows the trained array), then the array via the bounded
// model search.
func (ix *Index) Get(key uint64) (uint64, bool) {
	tb := ix.tab.Load()
	if tb == nil {
		return 0, false
	}
	g := tb.find(key)
	if val, live, hit := g.buf.Load().lookup(key); hit {
		return val, live
	}
	d := g.data.Load()
	if i, ok := d.locate(key); ok && !d.isDead(i) {
		return d.vals[i].Load(), true
	}
	return 0, false
}

// exists reports whether key is live in the group (buffer shadowing the
// array). Caller should hold the group lock for an exact answer.
func (g *group) exists(key uint64) bool {
	if _, live, hit := g.buf.Load().lookup(key); hit {
		return live
	}
	d := g.data.Load()
	i, ok := d.locate(key)
	return ok && !d.isDead(i)
}

// Insert stores key/value (upsert); every write lands in the group's delta
// buffer. Writers merge inline only when the buffer has grown far past the
// background trigger (the compactor is behind).
func (ix *Index) Insert(key, value uint64) error {
	tb := ix.tab.Load()
	if tb == nil {
		if err := ix.Bulkload(nil); err != nil {
			return err
		}
		tb = ix.tab.Load()
	}
	g := tb.find(key)
	g.mu.Lock()
	existed := g.exists(key)
	for {
		b := g.buf.Load()
		_, full := b.upsertLocked(key, value, 0)
		if !full {
			break
		}
		g.buf.Store(b.grow())
	}
	bufN := int(g.buf.Load().n.Load())
	g.mu.Unlock()
	if !existed {
		ix.size.Add(1)
	}
	if bufN >= helperTrigger {
		g.compact() // the background thread fell behind; help out
	}
	return nil
}

// Update overwrites the value of an existing key.
func (ix *Index) Update(key, value uint64) bool {
	tb := ix.tab.Load()
	if tb == nil {
		return false
	}
	g := tb.find(key)
	g.mu.Lock()
	defer g.mu.Unlock()
	if !g.exists(key) {
		return false
	}
	for {
		b := g.buf.Load()
		_, full := b.upsertLocked(key, value, 0)
		if !full {
			return true
		}
		g.buf.Store(b.grow())
	}
}

// Remove deletes key by writing a tombstone into the delta buffer (keys in
// the trained array are additionally marked dead so compaction can skip
// them even if the tombstone merges first).
func (ix *Index) Remove(key uint64) bool {
	tb := ix.tab.Load()
	if tb == nil {
		return false
	}
	g := tb.find(key)
	g.mu.Lock()
	defer g.mu.Unlock()
	if !g.exists(key) {
		return false
	}
	for {
		b := g.buf.Load()
		_, full := b.upsertLocked(key, 0, 1)
		if !full {
			break
		}
		g.buf.Store(b.grow())
	}
	if d := g.data.Load(); d != nil {
		if i, ok := d.locate(key); ok {
			d.setDead(i)
		}
	}
	ix.size.Add(-1)
	return true
}

// ScanAppend appends up to max pairs with keys in [start, end) to dst in
// ascending order (the index.Concurrent contract), merging each group's
// trained array with its delta buffer.
func (ix *Index) ScanAppend(dst []index.KV, start, end uint64, max int) []index.KV {
	hi, ok := index.Inclusive(start, end)
	tb := ix.tab.Load()
	if max <= 0 || !ok || tb == nil {
		return dst
	}
	gi := 0
	for gi+1 < len(tb.firsts) && tb.firsts[gi+1] <= start {
		gi++
	}
	limit := len(dst) + max
	for past := false; !past && gi < len(tb.groups) && len(dst) < limit; gi++ {
		dst, past = tb.groups[gi].appendRange(dst, start, hi, limit)
	}
	return dst
}

// appendRange merges the group's array and buffer entries with keys in
// [start, hi], buffer shadowing the array, into dst until it holds limit
// pairs. past reports an array key above hi: groups are ordered, so the
// window ends in this group.
func (g *group) appendRange(dst []index.KV, start, hi uint64, limit int) (_ []index.KV, past bool) {
	d := g.data.Load()
	b := g.buf.Load()
	// Snapshot the in-window buffer entries under its seqlock.
	var bk []index.KV
	var bdel []bool
	for {
		bk = bk[:0]
		bdel = bdel[:0]
		v := b.ver.Load()
		if v&1 != 0 {
			continue
		}
		n := int(b.n.Load())
		if n > len(b.keys) {
			n = len(b.keys)
		}
		for i := 0; i < n; i++ {
			k := b.keys[i].Load()
			if k >= start && k <= hi {
				bk = append(bk, index.KV{Key: k, Value: b.vals[i].Load()})
				bdel = append(bdel, b.del[i].Load() != 0)
			}
		}
		if b.ver.Load() == v {
			break
		}
	}
	i := 0
	for i < len(d.keys) && d.keys[i] < start {
		i++
	}
	j := 0
	for len(dst) < limit && (i < len(d.keys) || j < len(bk)) {
		switch {
		case j >= len(bk) || (i < len(d.keys) && d.keys[i] < bk[j].Key):
			// Every buffer key is <= hi, so an array key past hi is
			// reached only once the buffer is drained.
			if d.keys[i] > hi {
				return dst, true
			}
			if !d.isDead(i) {
				dst = append(dst, index.KV{Key: d.keys[i], Value: d.vals[i].Load()})
			}
			i++
		case i >= len(d.keys) || d.keys[i] > bk[j].Key:
			if !bdel[j] {
				dst = append(dst, bk[j])
			}
			j++
		default:
			if !bdel[j] {
				dst = append(dst, bk[j])
			}
			i++
			j++
		}
	}
	return dst, false
}
