package alex

import (
	"unsafe"

	"altindex/internal/index"
)

// Bulkload replaces the index contents. Keys are partitioned into data
// nodes of ~targetNodeKeys and each node gets a gapped layout plus a fitted
// model.
func (ix *Index) Bulkload(pairs []index.KV) error {
	keys := make([]uint64, len(pairs))
	vals := make([]uint64, len(pairs))
	for i, kv := range pairs {
		if i > 0 && kv.Key <= keys[i-1] {
			return index.ErrUnsortedBulk
		}
		keys[i] = kv.Key
		vals[i] = kv.Value
	}
	var firsts []uint64
	var nodes []*dnode
	if len(keys) == 0 {
		firsts = []uint64{0}
		nodes = []*dnode{newNode(nil, nil, minNodeSlots)}
	} else {
		for off := 0; off < len(keys); off += targetNodeKeys {
			end := off + targetNodeKeys
			if end > len(keys) {
				end = len(keys)
			}
			n := newNode(keys[off:end], vals[off:end], slotsFor(end-off))
			first := keys[off]
			if off == 0 {
				first = 0 // node 0 owns everything below its first key
			}
			firsts = append(firsts, first)
			nodes = append(nodes, n)
		}
	}
	ix.dir.Store(&directory{firsts: firsts, nodes: nodes})
	ix.size.Store(int64(len(keys)))
	return nil
}

// Get returns the value stored for key.
func (ix *Index) Get(key uint64) (uint64, bool) {
	for {
		d := ix.dir.Load()
		n, _ := d.find(key)
		v, ok := n.readVersion()
		if !ok {
			continue
		}
		pos := n.findExact(key)
		var val uint64
		found := pos >= 0
		if found {
			val = n.vals[pos].Load()
		}
		if n.validate(v) {
			return val, found
		}
	}
}

// Insert stores key/value (upsert). A full neighbourhood triggers data
// shifting toward the nearest gap; a node past the density threshold
// splits, replacing the directory copy-on-write.
func (ix *Index) Insert(key, value uint64) error {
	for {
		d := ix.dir.Load()
		n, pos := d.find(key)
		n.beginWrite()
		// The directory may have been replaced while we waited.
		if cur := ix.dir.Load(); cur != d {
			n.endWrite()
			continue
		}
		if float64(n.num.Load()+1) > maxDensity*float64(n.slots()) {
			n.endWrite()
			ix.split(d, n, pos)
			continue
		}
		added := n.insertLocked(key, value)
		n.endWrite()
		if added {
			ix.size.Add(1)
		}
		return nil
	}
}

// insertLocked performs the model-based insert with data shifting. Caller
// holds the write lock. Returns false for an in-place upsert.
func (n *dnode) insertLocked(key, value uint64) bool {
	slots := n.slots()
	if e := n.findExact(key); e >= 0 {
		n.vals[e].Store(value)
		return false
	}
	pos := n.lowerBound(key)
	// Find the nearest gap right of pos, else left (ALEX data shifting).
	gap := -1
	for i := pos; i < slots; i++ {
		if !n.isOcc(i) {
			gap = i
			break
		}
	}
	if gap >= 0 {
		for i := gap; i > pos; i-- {
			n.keys[i].Store(n.keys[i-1].Load())
			n.vals[i].Store(n.vals[i-1].Load())
			if n.isOcc(i - 1) {
				n.setOcc(i)
			} else {
				n.clrOcc(i)
			}
		}
		n.keys[pos].Store(key)
		n.vals[pos].Store(value)
		n.setOcc(pos)
		n.num.Add(1)
		return true
	}
	// No gap on the right: shift left. The new key lands at pos-1.
	gap = -1
	for i := pos - 1; i >= 0; i-- {
		if !n.isOcc(i) {
			gap = i
			break
		}
	}
	if gap < 0 {
		// Caller checks density before inserting, so a gap must exist.
		panic("alex: node unexpectedly full")
	}
	for i := gap; i < pos-1; i++ {
		n.keys[i].Store(n.keys[i+1].Load())
		n.vals[i].Store(n.vals[i+1].Load())
		if n.isOcc(i + 1) {
			n.setOcc(i)
		} else {
			n.clrOcc(i)
		}
	}
	n.keys[pos-1].Store(key)
	n.vals[pos-1].Store(value)
	n.setOcc(pos - 1)
	// Keep gap slots left of pos-1 mirroring their left neighbour.
	n.num.Add(1)
	return true
}

// split divides node n (directory position pos) into two half-full nodes
// and publishes a new directory.
func (ix *Index) split(d *directory, n *dnode, pos int) {
	ix.dmu.Lock()
	defer ix.dmu.Unlock()
	cur := ix.dir.Load()
	if cur != d || cur.nodes[pos] != n {
		return // someone else already restructured
	}
	n.beginWrite()
	keys, vals := n.extractLocked()
	half := len(keys) / 2
	if half == 0 {
		half = 1
	}
	left := newNode(keys[:half], vals[:half], slotsFor(half))
	right := newNode(keys[half:], vals[half:], slotsFor(len(keys)-half))

	nf := make([]uint64, 0, len(cur.firsts)+1)
	nn := make([]*dnode, 0, len(cur.nodes)+1)
	nf = append(nf, cur.firsts[:pos+1]...)
	nn = append(nn, cur.nodes[:pos]...)
	nn = append(nn, left)
	if len(keys) > half {
		nf = append(nf, keys[half])
		nn = append(nn, right)
	}
	nf = append(nf, cur.firsts[pos+1:]...)
	nn = append(nn, cur.nodes[pos+1:]...)
	ix.dir.Store(&directory{firsts: nf, nodes: nn})
	n.endWrite() // readers revalidate and retry against the new directory
}

// extractLocked returns the node's live pairs in order. Caller holds the
// write lock.
func (n *dnode) extractLocked() (keys, vals []uint64) {
	for i := 0; i < n.slots(); i++ {
		if n.isOcc(i) {
			keys = append(keys, n.keys[i].Load())
			vals = append(vals, n.vals[i].Load())
		}
	}
	return keys, vals
}

// Update overwrites the value of an existing key.
func (ix *Index) Update(key, value uint64) bool {
	for {
		d := ix.dir.Load()
		n, _ := d.find(key)
		n.beginWrite()
		if cur := ix.dir.Load(); cur != d {
			n.endWrite()
			continue
		}
		pos := n.findExact(key)
		if pos >= 0 {
			n.vals[pos].Store(value)
		}
		n.endWrite()
		return pos >= 0
	}
}

// Remove deletes key by clearing its occupancy bit; the key value stays as
// the mirror for the resulting gap, preserving the non-decreasing array.
func (ix *Index) Remove(key uint64) bool {
	for {
		d := ix.dir.Load()
		n, _ := d.find(key)
		n.beginWrite()
		if cur := ix.dir.Load(); cur != d {
			n.endWrite()
			continue
		}
		pos := n.findExact(key)
		if pos >= 0 {
			n.clrOcc(pos)
			n.num.Add(-1)
		}
		n.endWrite()
		if pos >= 0 {
			ix.size.Add(-1)
		}
		return pos >= 0
	}
}

// ScanAppend appends up to max pairs with keys in [start, end) to dst in
// ascending order (the index.Concurrent contract). Contiguous gapped arrays
// make ALEX scans fast (Fig 8c); key order is slot order, so the first key
// past the window ends the scan.
func (ix *Index) ScanAppend(dst []index.KV, start, end uint64, max int) []index.KV {
	hi, ok := index.Inclusive(start, end)
	if max <= 0 || !ok {
		return dst
	}
	d := ix.dir.Load()
	_, di := d.find(start)
	limit := len(dst) + max
	for past := false; !past && di < len(d.nodes) && len(dst) < limit; di++ {
		n := d.nodes[di]
		mark := len(dst)
		for {
			dst, past = dst[:mark], false
			v, ok := n.readVersion()
			if !ok {
				continue
			}
			for i := n.lowerBound(start); i < n.slots() && len(dst) < limit; i++ {
				if !n.isOcc(i) {
					continue
				}
				k := n.keys[i].Load()
				if k > hi {
					past = true
					break
				}
				if k >= start {
					dst = append(dst, index.KV{Key: k, Value: n.vals[i].Load()})
				}
			}
			if n.validate(v) {
				break
			}
		}
	}
	return dst
}

// MemoryUsage approximates retained heap bytes.
func (ix *Index) MemoryUsage() uintptr {
	d := ix.dir.Load()
	total := uintptr(len(d.firsts)) * 16
	for _, n := range d.nodes {
		total += uintptr(n.slots())*(8+8) + uintptr(len(n.occ))*8 + unsafe.Sizeof(dnode{})
	}
	return total
}

// StatsMap implements index.Stats.
func (ix *Index) StatsMap() map[string]int64 {
	d := ix.dir.Load()
	slots := 0
	for _, n := range d.nodes {
		slots += n.slots()
	}
	return map[string]int64{
		"nodes": int64(len(d.nodes)),
		"slots": int64(slots),
	}
}

var _ index.Concurrent = (*Index)(nil)
var _ index.Stats = (*Index)(nil)
