package memdb

import (
	"errors"
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// TestInsertRefusesAndGetCopies: Insert refuses a duplicate key and a
// wrong column count, and Get returns a copy of the stored row.
func TestInsertRefusesAndGetCopies(t *testing.T) {
	db := NewDB()
	defer db.Close()
	tbl := db.CreateTable("t", 2)
	if err := tbl.Insert(1, []uint64{10, 20}); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Insert(1, []uint64{1, 1}); !errors.Is(err, ErrDuplicateKey) {
		t.Fatalf("dup err = %v", err)
	}
	if err := tbl.Insert(2, []uint64{10}); !errors.Is(err, ErrBadColumn) {
		t.Fatalf("width err = %v", err)
	}
	if _, err := tbl.Get(2); !errors.Is(err, ErrRowNotFound) {
		t.Fatalf("refused row readable: err = %v", err)
	}
	row, err := tbl.Get(1)
	if err != nil || row[0] != 10 || row[1] != 20 {
		t.Fatalf("Get: %v %v", row, err)
	}
	row[0] = 999
	if again, _ := tbl.Get(1); again[0] != 10 {
		t.Fatal("Get returned aliased storage")
	}
}

func TestSelectRangeOrdered(t *testing.T) {
	db := NewDB()
	defer db.Close()
	tbl := db.CreateTable("t", 1)
	for pk := uint64(100); pk > 0; pk-- {
		if err := tbl.Insert(pk*7, []uint64{pk}); err != nil {
			t.Fatal(err)
		}
	}
	var prev uint64
	n := tbl.SelectRange(0, 1000, func(pk uint64, row []uint64) bool {
		if pk <= prev {
			t.Fatalf("range out of order: %d <= %d", pk, prev)
		}
		if row[0]*7 != pk {
			t.Fatalf("row mismatch at %d", pk)
		}
		prev = pk
		return true
	})
	if n != 100 {
		t.Fatalf("visited %d", n)
	}
	if got := tbl.SelectRange(350, 3, func(uint64, []uint64) bool { return true }); got != 3 {
		t.Fatalf("limited select = %d", got)
	}
}

func TestConcurrentTableOps(t *testing.T) {
	db := NewDB()
	defer db.Close()
	tbl := db.CreateTable("t", 2)
	const workers = 8
	const perWorker = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < perWorker; i++ {
				pk := uint64(w*perWorker + i + 1)
				if err := tbl.Insert(pk, []uint64{pk * 2, pk * 3}); err != nil {
					t.Error(err)
					return
				}
				probe := uint64(r.Intn(w*perWorker+i+1) + 1)
				if row, err := tbl.Get(probe); err == nil {
					if row[0] != probe*2 || row[1] != probe*3 {
						t.Errorf("corrupt row %d: %v", probe, row)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	for pk := uint64(1); pk <= workers*perWorker; pk++ {
		row, err := tbl.Get(pk)
		if err != nil || row[0] != pk*2 {
			t.Fatalf("row %d lost: %v %v", pk, row, err)
		}
	}
}

// TestArenaGrowsByChunk: allocation grows the arena chunk by chunk, and a
// row written before the growth reads back unchanged after it.
func TestArenaGrowsByChunk(t *testing.T) {
	a := newArena(2)
	h1 := a.alloc([]uint64{1, 2})
	for i := 0; i < arenaChunkRows*2; i++ {
		a.alloc([]uint64{uint64(i), 0})
	}
	if n := len(*a.chunkV.Load()); n != 3 {
		t.Fatalf("chunks = %d, want 3", n)
	}
	if r := a.read(h1); r[0] != 1 || r[1] != 2 {
		t.Fatalf("first row reads %v after growth", r)
	}
}

// TestRowChunksHoldNoPointers pins the property the row store rests on:
// a chunk's element is a plain machine word, so chunk backing arrays are
// noscan allocations the collector never looks inside.
func TestRowChunksHoldNoPointers(t *testing.T) {
	chunk := reflect.TypeOf(*newArena(1).chunkV.Load()).Elem()
	if k := chunk.Elem().Kind(); k != reflect.Uint64 {
		t.Fatalf("row chunk element is %v, want a pointer-free uint64", k)
	}
}
