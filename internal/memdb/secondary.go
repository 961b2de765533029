package memdb

import (
	"fmt"
	"sync"
	"sync/atomic"

	"altindex/internal/core"
	"altindex/internal/index"
)

// Secondary is an ordered, non-unique secondary index over one column. It
// stores composite 64-bit keys — the column value in the high ColBits bits
// and a uniquifying sequence below — in an ALT-index whose values are the
// primary keys, so equality and ordered range lookups over the column are
// plain index range scans.
type Secondary struct {
	table   *Table
	column  int
	colBits uint // column bits; 64-colBits sequence bits
	seq     atomic.Uint64
	ix      index.Concurrent
}

// CreateIndex adds a secondary index named name over column col, whose
// values must fit in colBits bits (the remaining bits uniquify duplicates;
// 40/24 is a common split). Existing rows are indexed immediately. The
// table must be quiescent during creation.
func (t *Table) CreateIndex(name string, col int, colBits uint) (*Secondary, error) {
	if col < 0 || col >= t.columns {
		return nil, fmt.Errorf("%w: %d", ErrBadColumn, col)
	}
	if colBits < 1 || colBits > 56 {
		return nil, fmt.Errorf("memdb: colBits must be in [1,56], got %d", colBits)
	}
	t.imu.Lock()
	defer t.imu.Unlock()
	if s, ok := t.secondary[name]; ok {
		return s, nil
	}
	s := &Secondary{
		table:   t,
		column:  col,
		colBits: colBits,
		ix:      core.New(core.Options{}),
	}
	// Backfill from the primary index in bounded batches.
	var backfillErr error
	start := uint64(0)
	for {
		const batch = 1024
		var last uint64
		n := 0
		t.primary.Scan(start, batch, func(pk, h uint64) bool {
			last = pk
			n++
			row := t.rows.read(h)
			if err := s.add(pk, row[col]); err != nil {
				backfillErr = err
				return false
			}
			return true
		})
		if backfillErr != nil {
			return nil, backfillErr
		}
		if n < batch || last == ^uint64(0) {
			break
		}
		start = last + 1
	}
	t.secondary[name] = s
	return s, nil
}

// Index returns a registered secondary index.
func (t *Table) Index(name string) (*Secondary, error) {
	t.imu.RLock()
	defer t.imu.RUnlock()
	s, ok := t.secondary[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSuchIndex, name)
	}
	return s, nil
}

func (s *Secondary) shift() uint { return 64 - s.colBits }

func (s *Secondary) composite(colVal, seq uint64) (uint64, error) {
	if colVal >= uint64(1)<<s.colBits {
		return 0, fmt.Errorf("%w: %d needs more than %d bits", ErrColumnTooWide, colVal, s.colBits)
	}
	return colVal<<s.shift() | seq&(uint64(1)<<s.shift()-1), nil
}

// add indexes (colVal -> pk) under a fresh sequence number.
func (s *Secondary) add(pk, colVal uint64) error {
	ck, err := s.composite(colVal, s.seq.Add(1))
	if err != nil {
		return err
	}
	return s.ix.Insert(ck, pk)
}

// scanRange visits composite entries in [lo, hi] in batches so arbitrarily
// large ranges never materialise in memory at once. Batches are pulled
// through the index's bounded run kernel (index.AppendRange with the
// half-open end hi+1, or the unbounded sentinel when hi is MaxUint64), so
// the upper bound prunes inside the index instead of over-fetching a full
// batch past the window.
func (s *Secondary) scanRange(lo, hi uint64, visit func(ck, pk uint64) bool) {
	const batch = 128
	end := hi + 1
	if hi == ^uint64(0) {
		end = ^uint64(0) // sentinel: unbounded, includes MaxUint64 itself
	}
	bp := secScanPool.Get().(*[]index.KV)
	buf := *bp
	start := lo
	for {
		buf = index.AppendRange(s.ix, buf[:0], start, end, batch)
		stopped := false
		for _, kv := range buf {
			if !visit(kv.Key, kv.Value) {
				stopped = true
				break
			}
		}
		if stopped || len(buf) < batch || buf[len(buf)-1].Key == ^uint64(0) {
			break
		}
		start = buf[len(buf)-1].Key + 1
	}
	if cap(buf) <= batch {
		*bp = buf
	}
	secScanPool.Put(bp)
}

// secScanPool recycles scanRange's batch buffers across calls.
var secScanPool = sync.Pool{New: func() any {
	b := make([]index.KV, 0, 128)
	return &b
}}

// remove unindexes the entry for (colVal, pk) by scanning the column's
// composite range for the matching primary key.
func (s *Secondary) remove(pk, colVal uint64) {
	lo := colVal << s.shift()
	hi := lo | (uint64(1)<<s.shift() - 1)
	var found uint64
	ok := false
	s.scanRange(lo, hi, func(ck, p uint64) bool {
		if p == pk {
			found, ok = ck, true
			return false
		}
		return true
	})
	if ok {
		s.ix.Remove(found)
	}
}

// SelectWhere visits up to limit rows whose indexed column equals colVal.
func (s *Secondary) SelectWhere(colVal uint64, limit int, fn func(pk uint64, row []uint64) bool) int {
	lo := colVal << s.shift()
	hi := lo | (uint64(1)<<s.shift() - 1)
	count := 0
	s.scanRange(lo, hi, func(ck, pk uint64) bool {
		if count >= limit {
			return false
		}
		h, ok := s.table.primary.Get(pk)
		if !ok {
			return true // row deleted mid-scan; skip
		}
		count++
		return fn(pk, s.table.rows.read(h))
	})
	return count
}

// SelectOrdered visits up to limit rows in ascending indexed-column order,
// starting at colVal.
func (s *Secondary) SelectOrdered(colVal uint64, limit int, fn func(pk uint64, row []uint64) bool) int {
	count := 0
	s.scanRange(colVal<<s.shift(), ^uint64(0), func(ck, pk uint64) bool {
		if count >= limit {
			return false
		}
		h, ok := s.table.primary.Get(pk)
		if !ok {
			return true
		}
		count++
		return fn(pk, s.table.rows.read(h))
	})
	return count
}

// Len returns the number of index entries.
func (s *Secondary) Len() int { return s.ix.Len() }
