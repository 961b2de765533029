// Package memdb is a small concurrent in-memory table store built on
// ALT-index — the "memory database system" setting the paper targets. It
// demonstrates the index as a database primary index and as ordered
// secondary indexes:
//
//   - each table maps a uint64 primary key to a row of uint64 columns,
//     held in an append-only chunked row arena (updates write a new row
//     version and atomically repoint the primary index),
//   - secondary indexes are ordered composite-key indexes (column value in
//     the high bits, a uniquifying sequence in the low bits), so
//     SelectWhere and ordered column scans are index range scans,
//   - all operations are safe for concurrent use; reads are lock-free on
//     the index hot path.
package memdb

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"altindex/internal/core"
	"altindex/internal/index"
)

// Errors returned by table operations.
var (
	ErrNoSuchTable   = errors.New("memdb: no such table")
	ErrNoSuchIndex   = errors.New("memdb: no such secondary index")
	ErrRowNotFound   = errors.New("memdb: row not found")
	ErrDuplicateKey  = errors.New("memdb: duplicate primary key")
	ErrBadColumn     = errors.New("memdb: column out of range")
	ErrColumnTooWide = errors.New("memdb: column value exceeds the index's bit width")
)

// DB is a named collection of tables.
type DB struct {
	mu     sync.RWMutex
	tables map[string]*Table
}

// NewDB returns an empty in-memory database.
func NewDB() *DB { return &DB{tables: map[string]*Table{}} }

// CreateTable registers a table with the given number of user columns and
// returns it. Creating an existing name returns the existing table.
func (db *DB) CreateTable(name string, columns int) *Table {
	db.mu.Lock()
	defer db.mu.Unlock()
	if t, ok := db.tables[name]; ok {
		return t
	}
	t := newTable(name, columns)
	db.tables[name] = t
	return t
}

// Close stops the background machinery (retraining workers) of every
// table's indexes. The data stays readable; Close is for reaping
// goroutines when a DB is discarded or the process shuts down.
func (db *DB) Close() error {
	db.mu.RLock()
	defer db.mu.RUnlock()
	for _, t := range db.tables {
		t.Close()
	}
	return nil
}

// Table returns a registered table.
func (db *DB) Table(name string) (*Table, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, ok := db.tables[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSuchTable, name)
	}
	return t, nil
}

// Table is one relation: primary key -> row of uint64 columns.
type Table struct {
	name    string
	columns int

	primary index.Concurrent // pk -> row handle
	rows    *arena

	// stripes serialise writers per primary key so a row's primary
	// repoint and its secondary-index maintenance are atomic together.
	stripes [64]sync.Mutex

	imu        sync.RWMutex
	secondary  map[string]*Secondary
	liveRows   atomic.Int64
	deadHandle atomic.Int64 // stale row versions awaiting vacuum
}

func newTable(name string, columns int) *Table {
	if columns < 1 {
		columns = 1
	}
	return &Table{
		name:      name,
		columns:   columns,
		primary:   core.New(core.Options{}),
		rows:      newArena(columns),
		secondary: map[string]*Secondary{},
	}
}

// Close stops the retraining workers of the primary and every secondary
// index after draining any in-flight rebuilds. Reads remain valid.
func (t *Table) Close() {
	closeIndex(t.primary)
	t.imu.RLock()
	defer t.imu.RUnlock()
	for _, s := range t.secondary {
		closeIndex(s.ix)
	}
}

// closeIndex settles and stops an index's background machinery when the
// implementation has any (the ALT retraining pool).
func closeIndex(ix index.Concurrent) {
	if q, ok := ix.(interface{ Quiesce() }); ok {
		q.Quiesce()
	}
	if c, ok := ix.(interface{ Close() error }); ok {
		_ = c.Close()
	}
}

// Name returns the table name; Columns its user column count.
func (t *Table) Name() string { return t.name }

// Columns returns the number of user columns per row.
func (t *Table) Columns() int { return t.columns }

// Len returns the number of live rows.
func (t *Table) Len() int { return int(t.liveRows.Load()) }

// stripe returns the writer lock covering pk.
func (t *Table) stripe(pk uint64) *sync.Mutex {
	return &t.stripes[(pk*0x9e3779b97f4a7c15)>>58]
}

// Insert stores a new row. The row slice is copied. Inserting an existing
// primary key returns ErrDuplicateKey (use Update for overwrites).
func (t *Table) Insert(pk uint64, row []uint64) error {
	if len(row) != t.columns {
		return fmt.Errorf("%w: got %d columns, want %d", ErrBadColumn, len(row), t.columns)
	}
	t.stripe(pk).Lock()
	defer t.stripe(pk).Unlock()
	if _, ok := t.primary.Get(pk); ok {
		return fmt.Errorf("%w: %d", ErrDuplicateKey, pk)
	}
	h := t.rows.alloc(row)
	if err := t.primary.Insert(pk, h); err != nil {
		return err
	}
	t.liveRows.Add(1)
	t.imu.RLock()
	defer t.imu.RUnlock()
	for _, sec := range t.secondary {
		if err := sec.add(pk, row[sec.column]); err != nil {
			return err
		}
	}
	return nil
}

// Get returns a copy of the row for pk.
func (t *Table) Get(pk uint64) ([]uint64, error) {
	h, ok := t.primary.Get(pk)
	if !ok {
		return nil, fmt.Errorf("%w: pk %d", ErrRowNotFound, pk)
	}
	return t.rows.read(h), nil
}

// Update overwrites the row for pk (copy-on-write: a fresh row version is
// written and the primary index is repointed atomically).
func (t *Table) Update(pk uint64, row []uint64) error {
	if len(row) != t.columns {
		return fmt.Errorf("%w: got %d columns, want %d", ErrBadColumn, len(row), t.columns)
	}
	t.stripe(pk).Lock()
	defer t.stripe(pk).Unlock()
	h, ok := t.primary.Get(pk)
	if !ok {
		return fmt.Errorf("%w: pk %d", ErrRowNotFound, pk)
	}
	old := t.rows.read(h)
	nh := t.rows.alloc(row)
	if !t.primary.Update(pk, nh) {
		return fmt.Errorf("%w: pk %d", ErrRowNotFound, pk)
	}
	t.deadHandle.Add(1)
	t.imu.RLock()
	defer t.imu.RUnlock()
	for _, sec := range t.secondary {
		if old[sec.column] != row[sec.column] {
			sec.remove(pk, old[sec.column])
			if err := sec.add(pk, row[sec.column]); err != nil {
				return err
			}
		}
	}
	return nil
}

// Delete removes the row for pk.
func (t *Table) Delete(pk uint64) error {
	t.stripe(pk).Lock()
	defer t.stripe(pk).Unlock()
	h, ok := t.primary.Get(pk)
	if !ok {
		return fmt.Errorf("%w: pk %d", ErrRowNotFound, pk)
	}
	old := t.rows.read(h)
	if !t.primary.Remove(pk) {
		return fmt.Errorf("%w: pk %d", ErrRowNotFound, pk)
	}
	t.liveRows.Add(-1)
	t.deadHandle.Add(1)
	t.imu.RLock()
	defer t.imu.RUnlock()
	for _, sec := range t.secondary {
		sec.remove(pk, old[sec.column])
	}
	return nil
}

// SelectRange visits up to limit rows with pk >= start in primary-key
// order. The row slice passed to fn is only valid during the call.
func (t *Table) SelectRange(start uint64, limit int, fn func(pk uint64, row []uint64) bool) int {
	return t.SelectRangeBounded(start, ^uint64(0), limit, fn)
}

// SelectRangeBounded visits up to limit rows with start <= pk < end in
// primary-key order — the pushdown shape relational operators consume.
// end == ^uint64(0) means no upper bound (including pk MaxUint64). Rows
// are pulled from the primary index in bounded batches by index.Walk, so
// arbitrarily large windows never materialise at once; each batch is an
// internally consistent snapshot.
func (t *Table) SelectRangeBounded(start, end uint64, limit int, fn func(pk uint64, row []uint64) bool) int {
	return index.Walk(t.primary, start, end, limit, func(pk, h uint64) bool {
		return fn(pk, t.rows.read(h))
	})
}

// MemoryUsage approximates retained bytes across the primary index, row
// arena and secondary indexes.
func (t *Table) MemoryUsage() uintptr {
	total := t.primary.MemoryUsage() + t.rows.memory()
	t.imu.RLock()
	for _, sec := range t.secondary {
		total += sec.ix.MemoryUsage()
	}
	t.imu.RUnlock()
	return total
}

// Stats returns engine counters.
func (t *Table) Stats() map[string]int64 {
	st := map[string]int64{
		"rows":         t.liveRows.Load(),
		"dead_rows":    t.deadHandle.Load(),
		"arena_chunks": int64(t.rows.chunks()),
	}
	if s, ok := t.primary.(index.Stats); ok {
		for k, v := range s.StatsMap() {
			st["primary_"+k] = v
		}
	}
	return st
}
