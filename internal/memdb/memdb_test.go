package memdb

import (
	"errors"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"
)

func TestCreateAndLookupTable(t *testing.T) {
	db := NewDB()
	tbl := db.CreateTable("users", 3)
	if tbl.Name() != "users" || tbl.Columns() != 3 {
		t.Fatal("table metadata")
	}
	if again := db.CreateTable("users", 5); again != tbl {
		t.Fatal("CreateTable not idempotent")
	}
	got, err := db.Table("users")
	if err != nil || got != tbl {
		t.Fatal("Table lookup")
	}
	if _, err := db.Table("nope"); !errors.Is(err, ErrNoSuchTable) {
		t.Fatalf("err = %v", err)
	}
}

func TestInsertGetUpdateDelete(t *testing.T) {
	tbl := NewDB().CreateTable("t", 2)
	if err := tbl.Insert(1, []uint64{10, 20}); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Insert(1, []uint64{1, 1}); !errors.Is(err, ErrDuplicateKey) {
		t.Fatalf("dup err = %v", err)
	}
	if err := tbl.Insert(2, []uint64{10}); !errors.Is(err, ErrBadColumn) {
		t.Fatalf("width err = %v", err)
	}
	row, err := tbl.Get(1)
	if err != nil || row[0] != 10 || row[1] != 20 {
		t.Fatalf("Get: %v %v", row, err)
	}
	// Returned rows are copies.
	row[0] = 999
	if again, _ := tbl.Get(1); again[0] != 10 {
		t.Fatal("Get returned aliased storage")
	}
	if err := tbl.Update(1, []uint64{11, 21}); err != nil {
		t.Fatal(err)
	}
	if row, _ = tbl.Get(1); row[0] != 11 || row[1] != 21 {
		t.Fatal("update lost")
	}
	if err := tbl.Update(9, []uint64{0, 0}); !errors.Is(err, ErrRowNotFound) {
		t.Fatalf("update missing err = %v", err)
	}
	if err := tbl.Delete(1); err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.Get(1); !errors.Is(err, ErrRowNotFound) {
		t.Fatalf("get deleted err = %v", err)
	}
	if err := tbl.Delete(1); !errors.Is(err, ErrRowNotFound) {
		t.Fatal("double delete")
	}
	if tbl.Len() != 0 {
		t.Fatalf("Len = %d", tbl.Len())
	}
}

func TestSelectRangeOrdered(t *testing.T) {
	tbl := NewDB().CreateTable("t", 1)
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

func TestSecondaryIndexWhere(t *testing.T) {
	tbl := NewDB().CreateTable("orders", 2) // col0 = customer, col1 = amount
	for pk := uint64(1); pk <= 300; pk++ {
		if err := tbl.Insert(pk, []uint64{pk % 10, pk * 100}); err != nil {
			t.Fatal(err)
		}
	}
	sec, err := tbl.CreateIndex("by_customer", 0, 40)
	if err != nil {
		t.Fatal(err)
	}
	if sec.Len() != 300 {
		t.Fatalf("backfill indexed %d", sec.Len())
	}
	// Every customer has exactly 30 orders.
	for cust := uint64(0); cust < 10; cust++ {
		var pks []uint64
		n := sec.SelectWhere(cust, 1000, func(pk uint64, row []uint64) bool {
			if row[0] != cust {
				t.Fatalf("wrong customer: %d", row[0])
			}
			pks = append(pks, pk)
			return true
		})
		if n != 30 || len(pks) != 30 {
			t.Fatalf("customer %d: %d rows", cust, n)
		}
	}
	// Limit respected.
	if n := sec.SelectWhere(3, 5, func(uint64, []uint64) bool { return true }); n != 5 {
		t.Fatalf("limit: %d", n)
	}
	// New inserts are indexed.
	if err := tbl.Insert(1000, []uint64{3, 42}); err != nil {
		t.Fatal(err)
	}
	count := 0
	sec.SelectWhere(3, 1000, func(uint64, []uint64) bool { count++; return true })
	if count != 31 {
		t.Fatalf("after insert: %d", count)
	}
	// Updates move the entry between column values.
	if err := tbl.Update(1000, []uint64{4, 42}); err != nil {
		t.Fatal(err)
	}
	c3, c4 := 0, 0
	sec.SelectWhere(3, 1000, func(uint64, []uint64) bool { c3++; return true })
	sec.SelectWhere(4, 1000, func(uint64, []uint64) bool { c4++; return true })
	if c3 != 30 || c4 != 31 {
		t.Fatalf("after update: c3=%d c4=%d", c3, c4)
	}
	// Deletes unindex.
	if err := tbl.Delete(1000); err != nil {
		t.Fatal(err)
	}
	c4 = 0
	sec.SelectWhere(4, 1000, func(uint64, []uint64) bool { c4++; return true })
	if c4 != 30 {
		t.Fatalf("after delete: c4=%d", c4)
	}
	if _, err := tbl.Index("nope"); !errors.Is(err, ErrNoSuchIndex) {
		t.Fatal("missing index lookup")
	}
}

func TestSecondaryOrdered(t *testing.T) {
	tbl := NewDB().CreateTable("t", 1)
	vals := []uint64{50, 10, 40, 20, 30}
	for i, v := range vals {
		if err := tbl.Insert(uint64(i+1), []uint64{v}); err != nil {
			t.Fatal(err)
		}
	}
	sec, err := tbl.CreateIndex("by_val", 0, 32)
	if err != nil {
		t.Fatal(err)
	}
	var got []uint64
	sec.SelectOrdered(15, 3, func(pk uint64, row []uint64) bool {
		got = append(got, row[0])
		return true
	})
	want := []uint64{20, 30, 40}
	if len(got) != 3 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Fatalf("ordered select = %v, want %v", got, want)
	}
}

func TestSecondaryColumnTooWide(t *testing.T) {
	tbl := NewDB().CreateTable("t", 1)
	if _, err := tbl.CreateIndex("i", 0, 8); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Insert(1, []uint64{1 << 20}); !errors.Is(err, ErrColumnTooWide) {
		t.Fatalf("err = %v", err)
	}
	if _, err := tbl.CreateIndex("bad", 0, 60); err == nil {
		t.Fatal("colBits 60 accepted")
	}
	if _, err := tbl.CreateIndex("bad2", 5, 32); !errors.Is(err, ErrBadColumn) {
		t.Fatal("bad column accepted")
	}
}

func TestConcurrentTableOps(t *testing.T) {
	tbl := NewDB().CreateTable("t", 2)
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
	if tbl.Len() != workers*perWorker {
		t.Fatalf("Len = %d", tbl.Len())
	}
	for pk := uint64(1); pk <= workers*perWorker; pk++ {
		row, err := tbl.Get(pk)
		if err != nil || row[0] != pk*2 {
			t.Fatalf("row %d lost: %v %v", pk, row, err)
		}
	}
	st := tbl.Stats()
	if st["rows"] != workers*perWorker {
		t.Fatalf("stats rows = %d", st["rows"])
	}
	if tbl.MemoryUsage() == 0 {
		t.Fatal("no memory reported")
	}
}

// TestArenaRecycling: allocation grows the arena chunk by chunk, and a
// row written before the growth reads back unchanged after it.
func TestArenaRecycling(t *testing.T) {
	a := newArena(2)
	h1 := a.alloc([]uint64{1, 2})
	// Force multiple chunks.
	for i := 0; i < arenaChunkRows*2; i++ {
		a.alloc([]uint64{uint64(i), 0})
	}
	if a.chunks() < 2 {
		t.Fatalf("chunks = %d", a.chunks())
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

func TestQuickTableVersusMap(t *testing.T) {
	f := func(seed int64) bool {
		tbl := NewDB().CreateTable("t", 1)
		ref := map[uint64]uint64{}
		r := rand.New(rand.NewSource(seed))
		for i := 0; i < 500; i++ {
			pk := uint64(r.Intn(100)) + 1
			switch r.Intn(4) {
			case 0:
				v := r.Uint64()
				err := tbl.Insert(pk, []uint64{v})
				_, existed := ref[pk]
				if (err == nil) == existed {
					return false
				}
				if err == nil {
					ref[pk] = v
				}
			case 1:
				row, err := tbl.Get(pk)
				want, ok := ref[pk]
				if (err == nil) != ok {
					return false
				}
				if err == nil && row[0] != want {
					return false
				}
			case 2:
				v := r.Uint64()
				err := tbl.Update(pk, []uint64{v})
				_, ok := ref[pk]
				if (err == nil) != ok {
					return false
				}
				if err == nil {
					ref[pk] = v
				}
			case 3:
				err := tbl.Delete(pk)
				_, ok := ref[pk]
				if (err == nil) != ok {
					return false
				}
				delete(ref, pk)
			}
		}
		return tbl.Len() == len(ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestVacuumReclaimsAndPreserves(t *testing.T) {
	tbl := NewDB().CreateTable("t", 2)
	for pk := uint64(1); pk <= 1000; pk++ {
		if err := tbl.Insert(pk, []uint64{pk * 2, pk * 3}); err != nil {
			t.Fatal(err)
		}
	}
	// Churn: updates and deletes create dead versions.
	for pk := uint64(1); pk <= 1000; pk += 2 {
		if err := tbl.Update(pk, []uint64{pk * 20, pk * 30}); err != nil {
			t.Fatal(err)
		}
	}
	for pk := uint64(2); pk <= 1000; pk += 10 {
		if err := tbl.Delete(pk); err != nil {
			t.Fatal(err)
		}
	}
	deadBefore := tbl.Stats()["dead_rows"]
	if deadBefore == 0 {
		t.Fatal("no dead rows to vacuum")
	}
	reclaimed := tbl.Vacuum()
	if int64(reclaimed) != deadBefore {
		t.Fatalf("reclaimed %d, want %d", reclaimed, deadBefore)
	}
	if tbl.Stats()["dead_rows"] != 0 {
		t.Fatal("dead counter not reset")
	}
	// All live rows intact, with updated values.
	for pk := uint64(1); pk <= 1000; pk++ {
		row, err := tbl.Get(pk)
		if pk%10 == 2 {
			if err == nil {
				t.Fatalf("deleted pk %d resurrected", pk)
			}
			continue
		}
		if err != nil {
			t.Fatalf("pk %d lost after vacuum: %v", pk, err)
		}
		wantA, wantB := pk*2, pk*3
		if pk%2 == 1 {
			wantA, wantB = pk*20, pk*30
		}
		if row[0] != wantA || row[1] != wantB {
			t.Fatalf("pk %d row %v after vacuum", pk, row)
		}
	}
	if tbl.Vacuum() != 0 {
		t.Fatal("second vacuum reclaimed something")
	}
}
