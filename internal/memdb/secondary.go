package memdb

import (
	"fmt"
	"math"
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
	index.Walk(t.primary, 0, ^uint64(0), math.MaxInt, func(pk, h uint64) bool {
		backfillErr = s.add(pk, t.rows.read(h)[col])
		return backfillErr == nil
	})
	if backfillErr != nil {
		return nil, backfillErr
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

// window returns the half-open composite-key window [lo, end) holding
// colVal's entries. For the largest column value end is the unbounded
// sentinel, which still stops at MaxUint64, the window's last key.
func (s *Secondary) window(colVal uint64) (lo, end uint64) {
	lo, end = colVal<<s.shift(), (colVal+1)<<s.shift()
	if end == 0 {
		end = ^uint64(0)
	}
	return lo, end
}

// remove unindexes the entry for (colVal, pk) by walking the column's
// composite window for the matching primary key.
func (s *Secondary) remove(pk, colVal uint64) {
	lo, end := s.window(colVal)
	var found uint64
	ok := false
	index.Walk(s.ix, lo, end, math.MaxInt, func(ck, p uint64) bool {
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
	lo, end := s.window(colVal)
	return s.selectRows(lo, end, limit, fn)
}

// SelectOrdered visits up to limit rows in ascending indexed-column order,
// starting at colVal.
func (s *Secondary) SelectOrdered(colVal uint64, limit int, fn func(pk uint64, row []uint64) bool) int {
	return s.selectRows(colVal<<s.shift(), ^uint64(0), limit, fn)
}

// selectRows visits up to limit rows whose composite entries lie in
// [lo, end), in composite-key order, skipping rows deleted mid-walk.
func (s *Secondary) selectRows(lo, end uint64, limit int, fn func(pk uint64, row []uint64) bool) int {
	count := 0
	index.Walk(s.ix, lo, end, math.MaxInt, func(_, pk uint64) bool {
		if count >= limit {
			return false
		}
		h, ok := s.table.primary.Get(pk)
		if !ok {
			return true // row deleted mid-walk; skip
		}
		count++
		return fn(pk, s.table.rows.read(h))
	})
	return count
}

// Len returns the number of index entries.
func (s *Secondary) Len() int { return s.ix.Len() }
