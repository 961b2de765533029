// Package memdb is a minimal concurrent in-memory table store built on
// ALT-index: each table maps a uint64 primary key to a row of uint64
// columns held in an append-only chunked row arena, and reads are
// lock-free on the index hot path.
//
// memdb stays only for the benchmark ladder's memdb.* rungs (Insert, Get
// and SelectRange through a table's primary index) until ROADMAP items
// 2(a) and 2(b) remove them; nothing else in the module uses it.
package memdb

import (
	"errors"
	"fmt"
	"sync"

	"altindex/internal/core"
	"altindex/internal/index"
)

// Errors returned by table operations.
var (
	ErrRowNotFound  = errors.New("memdb: row not found")
	ErrDuplicateKey = errors.New("memdb: duplicate primary key")
	ErrBadColumn    = errors.New("memdb: column out of range")
)

// DB is a named collection of tables.
type DB struct {
	mu     sync.Mutex
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
	t := newTable(columns)
	db.tables[name] = t
	return t
}

// Close stops every table's retraining worker after draining any
// in-flight rebuild. The data stays readable; Close is for reaping
// goroutines when a DB is discarded.
func (db *DB) Close() {
	db.mu.Lock()
	defer db.mu.Unlock()
	for _, t := range db.tables {
		t.primary.Quiesce()
		t.primary.Close()
	}
}

// Table is one relation: primary key -> row of uint64 columns.
type Table struct {
	columns int
	primary *core.ALT // pk -> row handle
	rows    *arena

	// stripes serialise inserts per primary key so Insert's duplicate
	// check and its index insert are atomic together.
	stripes [64]sync.Mutex
}

func newTable(columns int) *Table {
	if columns < 1 {
		columns = 1
	}
	return &Table{
		columns: columns,
		primary: core.New(core.Options{}),
		rows:    newArena(columns),
	}
}

// stripe returns the writer lock covering pk.
func (t *Table) stripe(pk uint64) *sync.Mutex {
	return &t.stripes[(pk*0x9e3779b97f4a7c15)>>58]
}

// Insert stores a new row. The row slice is copied. Inserting an existing
// primary key returns ErrDuplicateKey.
func (t *Table) Insert(pk uint64, row []uint64) error {
	if len(row) != t.columns {
		return fmt.Errorf("%w: got %d columns, want %d", ErrBadColumn, len(row), t.columns)
	}
	t.stripe(pk).Lock()
	defer t.stripe(pk).Unlock()
	if _, ok := t.primary.Get(pk); ok {
		return fmt.Errorf("%w: %d", ErrDuplicateKey, pk)
	}
	return t.primary.Insert(pk, t.rows.alloc(row))
}

// Get returns a copy of the row for pk.
func (t *Table) Get(pk uint64) ([]uint64, error) {
	h, ok := t.primary.Get(pk)
	if !ok {
		return nil, fmt.Errorf("%w: pk %d", ErrRowNotFound, pk)
	}
	return t.rows.read(h), nil
}

// SelectRange visits up to limit rows with pk >= start in primary-key
// order. Rows are pulled from the primary index in bounded batches by
// index.Walk, so a large window never materialises at once; each batch is
// an internally consistent snapshot.
func (t *Table) SelectRange(start uint64, limit int, fn func(pk uint64, row []uint64) bool) int {
	return index.Walk(t.primary, start, ^uint64(0), limit, func(pk, h uint64) bool {
		return fn(pk, t.rows.read(h))
	})
}
