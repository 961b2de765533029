//go:build failpoint

// Chaos suite for the database layer: mixed row workloads over ALT-backed
// primary and secondary indexes while failpoints stretch the underlying
// seqlock/retrain windows, followed by a vacuum under injection. Build
// with -tags failpoint.
package memdb

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"altindex/internal/indextest"
	"altindex/internal/xrand"
)

const (
	chaosWriters = 4
	chaosBuckets = 97 // row[0] = pk % chaosBuckets, the secondary's column
)

// chaosRow is the row scheme: col0 is the indexed bucket, col1 a version
// counter, col2 a checksum binding pk and version. Any torn read — a row
// mixing two versions, or attributed to the wrong pk — breaks the checksum.
func chaosRow(pk, ver uint64) []uint64 {
	return []uint64{pk % chaosBuckets, ver, pk*31 ^ ver}
}

func chaosRowOK(pk uint64, row []uint64) bool {
	return len(row) == 3 && row[0] == pk%chaosBuckets && row[2] == pk*31^row[1]
}

// auditMemTable checks tbl against the expected pk -> version map: exact
// row contents, complete sorted primary scans, matching counts, and a
// secondary index whose buckets partition exactly the live rows.
func auditMemTable(tbl *Table, sec *Secondary, want map[uint64]uint64) []string {
	const maxViolations = 25
	var bad []string
	report := func(format string, args ...any) bool {
		bad = append(bad, fmt.Sprintf(format, args...))
		return len(bad) < maxViolations
	}

	for pk, ver := range want {
		row, err := tbl.Get(pk)
		if err != nil {
			if !report("lost acked row: Get(%d): %v", pk, err) {
				return bad
			}
			continue
		}
		if row[0] != pk%chaosBuckets || row[1] != ver || row[2] != pk*31^ver {
			if !report("row %d = %v, want ver %d (stale or torn)", pk, row, ver) {
				return bad
			}
		}
	}

	seen := 0
	var prev uint64
	tbl.SelectRange(0, len(want)+64, func(pk uint64, row []uint64) bool {
		if seen > 0 && pk <= prev {
			report("primary scan order violation: %d after %d", pk, prev)
		}
		prev = pk
		seen++
		if _, ok := want[pk]; !ok {
			report("ghost row in scan: pk %d", pk)
		}
		return len(bad) < maxViolations
	})
	if len(bad) >= maxViolations {
		return bad
	}
	if seen != len(want) {
		report("primary scan visited %d rows, want %d", seen, len(want))
	}
	if n := tbl.Len(); n != len(want) {
		report("Len = %d, want %d", n, len(want))
	}

	// The secondary's buckets must partition exactly the live rows.
	if sec != nil {
		total := 0
		for b := uint64(0); b < chaosBuckets; b++ {
			total += sec.SelectWhere(b, len(want)+64, func(pk uint64, row []uint64) bool {
				if pk%chaosBuckets != b {
					report("secondary bucket %d holds pk %d (bucket %d)", b, pk, pk%chaosBuckets)
				}
				if ver, ok := want[pk]; !ok {
					report("secondary bucket %d holds ghost pk %d", b, pk)
				} else if row[1] != ver {
					report("secondary read of pk %d sees ver %d, want %d", pk, row[1], ver)
				}
				return len(bad) < maxViolations
			})
			if len(bad) >= maxViolations {
				return bad
			}
		}
		if total != len(want) {
			report("secondary buckets hold %d rows total, want %d", total, len(want))
		}
	}
	return bad
}

// runMemChaos drives the writer/reader storm, checks that the insert
// seqlock site fired, and returns the table, its secondary and the exact
// expected pk -> version state. Ownership mirrors
// the core chaos suite: pk ≡ w (mod chaosWriters) belongs to writer w, so
// the final state is decided by each writer's own deterministic op stream.
func runMemChaos(t *testing.T, db *DB) (*Table, *Secondary, map[uint64]uint64) {
	t.Helper()
	const (
		pkSpace      = 1 << 14
		opsPerWriter = 2500
	)
	tbl := db.CreateTable("events", 3)
	sec, err := tbl.CreateIndex("by_bucket", 0, 16)
	if err != nil {
		t.Fatal(err)
	}
	// Seed rows so readers have a population from the first instant.
	for pk := uint64(0); pk < pkSpace; pk += 2 {
		if err := tbl.Insert(pk, chaosRow(pk, 0)); err != nil {
			t.Fatal(err)
		}
	}

	hits, disarm := indextest.Arm(t, indextest.Schedule{
		"core/insert/locked": func(n int64) {
			if n%100 == 0 {
				runtime.Gosched()
			}
		},
		"core/retrain/freeze":  func(int64) { time.Sleep(50 * time.Microsecond) },
		"core/retrain/publish": func(int64) { runtime.Gosched() },
	})
	defer disarm()

	type rowState struct {
		ver  uint64
		live bool
	}
	finals := make([]map[uint64]rowState, chaosWriters)
	var writerWg, readerWg sync.WaitGroup
	stop := make(chan struct{})

	for w := 0; w < chaosWriters; w++ {
		writerWg.Add(1)
		go func(w int) {
			defer writerWg.Done()
			rng := xrand.New(uint64(0xDB + w*7919))
			mine := make(map[uint64]rowState)
			// Local view of liveness starts from the even-pk seed.
			for pk := uint64(0); pk < pkSpace; pk += 2 {
				if int(pk%chaosWriters) == w {
					mine[pk] = rowState{ver: 0, live: true}
				}
			}
			finals[w] = mine
			for op := 0; op < opsPerWriter; op++ {
				pk := uint64(rng.Intn(pkSpace/chaosWriters))*chaosWriters + uint64(w)
				st := mine[pk]
				ver := uint64(op + 1)
				switch {
				case !st.live:
					if err := tbl.Insert(pk, chaosRow(pk, ver)); err != nil {
						t.Errorf("Insert(%d): %v", pk, err)
						return
					}
					mine[pk] = rowState{ver: ver, live: true}
				case rng.Intn(4) == 0:
					if err := tbl.Delete(pk); err != nil {
						t.Errorf("Delete(%d): %v", pk, err)
						return
					}
					mine[pk] = rowState{}
				default:
					if err := tbl.Update(pk, chaosRow(pk, ver)); err != nil {
						t.Errorf("Update(%d): %v", pk, err)
						return
					}
					mine[pk] = rowState{ver: ver, live: true}
				}
			}
		}(w)
	}

	for r := 0; r < 3; r++ {
		readerWg.Add(1)
		go func(r int) {
			defer readerWg.Done()
			rng := xrand.New(uint64(0xCAFE + r))
			for {
				select {
				case <-stop:
					return
				default:
				}
				// Torn-row check: any readable row must be internally
				// consistent, mid-update and mid-retrain included.
				for j := 0; j < 64; j++ {
					pk := uint64(rng.Intn(pkSpace))
					if row, err := tbl.Get(pk); err == nil && !chaosRowOK(pk, row) {
						t.Errorf("torn row: pk %d = %v", pk, row)
						return
					}
				}
				var prev uint64
				n := 0
				tbl.SelectRange(uint64(rng.Intn(pkSpace)), 128, func(pk uint64, row []uint64) bool {
					if n > 0 && pk <= prev {
						t.Errorf("mid-flight scan order violation: %d after %d", pk, prev)
						return false
					}
					prev = pk
					n++
					if !chaosRowOK(pk, row) {
						t.Errorf("torn row in scan: pk %d = %v", pk, row)
						return false
					}
					return true
				})
				sec.SelectWhere(uint64(rng.Intn(chaosBuckets)), 64, func(pk uint64, row []uint64) bool {
					// Bucket membership can lag an in-flight update (the
					// repoint and the index move are only atomic together
					// under the writer's stripe); the checksum must hold
					// regardless.
					if len(row) == 3 && row[2] != pk*31^row[1] {
						t.Errorf("torn row via secondary: pk %d = %v", pk, row)
						return false
					}
					return true
				})
			}
		}(r)
	}

	writerWg.Wait()
	close(stop)
	readerWg.Wait()
	disarm()
	if hits("core/insert/locked") == 0 {
		t.Error("insert seqlock site never fired; workload did not stress the slot protocol")
	}

	want := make(map[uint64]uint64)
	for _, mine := range finals {
		for pk, st := range mine {
			if st.live {
				want[pk] = st.ver
			}
		}
	}
	return tbl, sec, want
}

func TestChaosMemDB(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos suite is not -short")
	}
	db := NewDB()
	tbl, sec, want := runMemChaos(t, db)
	if bad := auditMemTable(tbl, sec, want); len(bad) > 0 {
		for _, b := range bad {
			t.Error(b)
		}
	}

	// Vacuum under injection must not disturb any live row.
	_, disarm := indextest.Arm(t, indextest.Schedule{"memdb/vacuum/batch": func(int64) { runtime.Gosched() }})
	reclaimed := tbl.Vacuum()
	disarm()
	if reclaimed == 0 {
		t.Error("vacuum reclaimed nothing after an update-heavy run")
	}
	if bad := auditMemTable(tbl, sec, want); len(bad) > 0 {
		for _, b := range bad {
			t.Errorf("post-vacuum: %s", b)
		}
	}
}

// TestChaosMemDBAuditSelfTest is the negative control for auditMemTable.
func TestChaosMemDBAuditSelfTest(t *testing.T) {
	tbl := NewDB().CreateTable("events", 3)
	sec, err := tbl.CreateIndex("by_bucket", 0, 16)
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[uint64]uint64)
	for pk := uint64(0); pk < 2048; pk++ {
		if err := tbl.Insert(pk, chaosRow(pk, 7)); err != nil {
			t.Fatal(err)
		}
		want[pk] = 7
	}
	if bad := auditMemTable(tbl, sec, want); len(bad) != 0 {
		t.Fatalf("clean table audits dirty: %v", bad)
	}
	tamper := func(name string, mutate func(map[uint64]uint64)) {
		w := make(map[uint64]uint64, len(want))
		for k, v := range want {
			w[k] = v
		}
		mutate(w)
		if bad := auditMemTable(tbl, sec, w); len(bad) == 0 {
			t.Errorf("%s: audit failed to detect the violation", name)
		}
	}
	tamper("lost-row", func(w map[uint64]uint64) { w[1<<30] = 1 })
	tamper("stale-version", func(w map[uint64]uint64) { w[5] = 8 })
	tamper("ghost-row", func(w map[uint64]uint64) { delete(w, 5) })
}
