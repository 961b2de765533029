// orderdb demonstrates ALT-index as a memory database's index layer (the
// paper's target setting) via the memdb substrate: an orders table with a
// time-ordered primary key, a non-unique secondary index on customer, and
// concurrent OLTP traffic (placements, status updates, per-customer
// queries, time-window reports).
package main

import (
	"flag"
	"fmt"
	"log"
	"sync"
	"sync/atomic"
	"time"

	"altindex/internal/memdb"
	"altindex/internal/xrand"
)

// Column layout of the orders table.
const (
	colCustomer = iota
	colAmount
	colStatus
	numCols
)

// Order statuses.
const (
	statusPlaced uint64 = iota
	statusShipped
	statusDelivered
)

// orderID packs a timestamp and a sequence: range scans over the primary
// key are time-window queries.
func orderID(ts uint64, seq uint64) uint64 { return ts<<20 | seq&0xFFFFF }

func main() {
	var (
		customers = flag.Int("customers", 5000, "distinct customers")
		seconds   = flag.Int("span", 1000, "simulated seconds of history")
		workers   = flag.Int("workers", 4, "concurrent clients")
		perWorker = flag.Int("orders", 20000, "orders placed per worker")
	)
	flag.Parse()

	db := memdb.NewDB()
	orders := db.CreateTable("orders", numCols)
	byCustomer, err := orders.CreateIndex("by_customer", colCustomer, 40)
	if err != nil {
		log.Fatal(err)
	}

	// Concurrent OLTP phase.
	var placed, updated, queried atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := 0; w < *workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := xrand.New(uint64(w) + 1)
			for i := 0; i < *perWorker; i++ {
				ts := r.Uint64n(uint64(*seconds))
				id := orderID(ts, uint64(w**perWorker+i))
				cust := r.Uint64n(uint64(*customers))
				amount := 100 + r.Uint64n(100_000)
				if err := orders.Insert(id, []uint64{cust, amount, statusPlaced}); err != nil {
					log.Fatal(err)
				}
				placed.Add(1)
				switch i % 4 {
				case 0: // ship a random earlier order of this worker
					victim := orderID(r.Uint64n(uint64(*seconds)), uint64(w**perWorker+r.Intn(i+1)))
					if row, err := orders.Get(victim); err == nil {
						row[colStatus] = statusShipped
						if err := orders.Update(victim, row); err == nil {
							updated.Add(1)
						}
					}
				case 1: // customer history lookup
					byCustomer.SelectWhere(cust, 20, func(pk uint64, row []uint64) bool {
						return true
					})
					queried.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	dt := time.Since(t0)
	fmt.Printf("OLTP: %d orders, %d status updates, %d customer queries in %v (%.0f ktx/s)\n",
		placed.Load(), updated.Load(), queried.Load(), dt.Round(time.Millisecond),
		float64(placed.Load()+updated.Load()+queried.Load())/dt.Seconds()/1e3)

	// Report 1: revenue in a time window (primary-key range scan).
	winStart, winEnd := uint64(*seconds/4), uint64(*seconds/2)
	var revenue, count uint64
	orders.SelectRangeBounded(orderID(winStart, 0), orderID(winEnd, 0), 1<<30, func(pk uint64, row []uint64) bool {
		revenue += row[colAmount]
		count++
		return true
	})
	fmt.Printf("report: window [%d,%d)s has %d orders, revenue %d\n",
		winStart, winEnd, count, revenue)

	// Report 2: top customer activity via the secondary index.
	busiest, busiestCount := uint64(0), 0
	for c := uint64(0); c < 25; c++ {
		n := byCustomer.SelectWhere(c, 1<<20, func(uint64, []uint64) bool { return true })
		if n > busiestCount {
			busiest, busiestCount = c, n
		}
	}
	fmt.Printf("report: busiest of the first 25 customers is #%d with %d orders\n",
		busiest, busiestCount)

	// Report 3: engine internals — the ALT-index underneath.
	st := orders.Stats()
	fmt.Printf("engine: rows=%d dead=%d | primary: models=%d learned=%d art=%d retrains=%d | %.1f MB\n",
		st["rows"], st["dead_rows"], st["primary_models"],
		st["primary_learned_keys"], st["primary_art_keys"], st["primary_retrains"],
		float64(orders.MemoryUsage())/1e6)
}
