package bench

import (
	"bufio"
	"fmt"
	"net"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"altindex/internal/dataset"
	"altindex/internal/histogram"
	"altindex/internal/server"
	"altindex/internal/workload"
)

// netKeysCap bounds the preloaded keyspace of the net-path experiment: the
// experiment measures the network hot path (syscalls, parsing, flush
// amortization, cross-connection coalescing), not index scaling, and a
// compact resident set keeps row-to-row variance in the protocol loop.
const netKeysCap = 200_000

// NetPath measures the served (TCP) hot path end to end: a closed-loop
// multi-connection load generator drives the balanced workload over the
// line protocol against an in-process altdb server, one fresh server per
// row. Two sweeps:
//
//   - depth sweep at -net-conns connections, pipeline depths 1..64: reply
//     flushes amortize (Fl/op ~ 1/depth) and deeper bursts ride the batched
//     index fast path.
//   - connection sweep at -net-depth depth: shows the adaptive coalescing
//     gate engaging at >= 8 connections (CoRounds > 0, CoMean > 1) while a
//     single connection stays on the direct path.
//
// Latency percentiles are per-burst round trips (one burst = depth
// commands written in one syscall, depth replies read back); flushes/op
// and the coalescing counters come from the server's own STATS reply over
// the wire.
func NetPath(p Params) {
	p = p.withDefaults()
	nkeys := p.Keys
	if nkeys > netKeysCap {
		nkeys = netKeysCap
	}
	header(p, "Net path: pipelined protocol loop + cross-connection coalescing over TCP")
	fmt.Fprintf(p.Out, "(balanced mix, %d preloaded keys, burst-RTT percentiles)\n", nkeys)
	keys := dataset.Generate(dataset.OSM, nkeys, p.Seed)

	tw := newTable(p.Out)
	const cols = "Conns\tDepth\tKops\tP50us\tP99us\tP99.9us\tFl/op\tCoRounds\tCoMean\tCoP50"
	fmt.Fprintln(tw, cols)
	row := func(conns, depth int) {
		// Scheduling noise on shared hosts swings single closed-loop TCP
		// runs wildly; report the median of three (same convention as the
		// shard-scaling sweep).
		const reps = 3
		runs := make([]Result, 0, reps)
		for rep := 0; rep < reps; rep++ {
			runs = append(runs, runNet(p, keys, conns, depth))
		}
		sort.Slice(runs, func(i, j int) bool { return runs[i].Mops < runs[j].Mops })
		r := runs[reps/2]
		p.record(r)
		flop := float64(r.Stats["net_flushes"]) / float64(max64(r.Stats["net_cmds"], 1))
		comean := 0.0
		if b := r.Stats["coalesce_batches"]; b > 0 {
			comean = float64(r.Stats["coalesce_ops"]) / float64(b)
		}
		fmt.Fprintf(tw, "%d\t%d\t%.1f\t%s\t%s\t%s\t%.3f\t%d\t%.1f\t%d\n",
			conns, depth, r.Mops*1e3, us(r.P50), us(r.P99), us(r.P999),
			flop, r.Stats["coalesce_batches"], comean, r.Stats["coalesce_p50_batch"])
	}

	for _, d := range dedupInts([]int{1, 4, 16, 64, p.NetDepth}) {
		row(p.NetConns, d)
	}
	tw.Flush()

	fmt.Fprintf(p.Out, "\n-- connection sweep at depth %d (coalescing gate 8) --\n", p.NetDepth)
	tw = newTable(p.Out)
	fmt.Fprintln(tw, cols)
	for _, c := range dedupInts([]int{1, 2, 4, 8, 16, p.NetConns}) {
		row(c, p.NetDepth)
	}
	tw.Flush()
}

// runNet runs one grid cell: fresh server, preload, closed-loop drive,
// STATS scrape, shutdown.
func runNet(p Params, keys []uint64, conns, depth int) Result {
	srv, err := server.NewServerWith(server.Config{ReadTimeout: time.Minute, WriteTimeout: time.Minute})
	if err != nil {
		panic(fmt.Sprintf("bench: net server: %v", err))
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		panic(fmt.Sprintf("bench: net listen: %v", err))
	}
	go srv.Serve(ln)
	defer srv.Shutdown()
	if err := srv.Preload(dataset.Pairs(keys)); err != nil {
		panic(fmt.Sprintf("bench: net preload: %v", err))
	}

	wl := workload.New(workload.Config{Mix: workload.Balanced, Threads: conns, Seed: p.Seed}, keys, nil)
	target := p.Ops / 5
	if target < 10_000 {
		target = 10_000
	}
	perConn := (target + conns - 1) / conns
	var hist histogram.Histogram
	var done atomic.Int64
	var wg sync.WaitGroup
	errCh := make(chan error, conns)
	t0 := time.Now()
	var dl time.Time
	if p.Duration > 0 {
		dl = t0.Add(p.Duration)
	}
	for tid := 0; tid < conns; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			conn, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				errCh <- err
				return
			}
			defer conn.Close()
			st := wl.Stream(tid)
			buf := make([]byte, 0, depth*32)
			rbuf := make([]byte, 64*1024)
			sent := 0
			for {
				if p.Duration > 0 {
					if time.Now().After(dl) {
						break
					}
				} else if sent >= perConn {
					break
				}
				buf = buf[:0]
				for i := 0; i < depth; i++ {
					op := st.Next()
					switch op.Kind {
					case workload.Get:
						buf = append(buf, "GET "...)
						buf = strconv.AppendUint(buf, op.Key, 10)
					case workload.Remove:
						buf = append(buf, "DEL "...)
						buf = strconv.AppendUint(buf, op.Key, 10)
					default: // Insert/Update
						buf = append(buf, "SET "...)
						buf = strconv.AppendUint(buf, op.Key, 10)
						buf = append(buf, ' ')
						buf = strconv.AppendUint(buf, op.Value, 10)
					}
					buf = append(buf, '\n')
				}
				b0 := time.Now()
				if _, err := conn.Write(buf); err != nil {
					errCh <- err
					return
				}
				need := depth // every point command replies with exactly one line
				for need > 0 {
					n, err := conn.Read(rbuf)
					if err != nil {
						errCh <- err
						return
					}
					for _, c := range rbuf[:n] {
						if c == '\n' {
							need--
						}
					}
				}
				hist.Record(time.Since(b0))
				sent += depth
			}
			done.Add(int64(sent))
			errCh <- nil
		}(tid)
	}
	wg.Wait()
	elapsed := time.Since(t0)
	close(errCh)
	for err := range errCh {
		if err != nil {
			panic(fmt.Sprintf("bench: net client: %v", err))
		}
	}
	stats := netStatsOverWire(ln.Addr().String())

	ops := int(done.Load())
	return Result{
		Index:   "net-pipelined",
		Dataset: dataset.OSM,
		Mix:     fmt.Sprintf("net-balanced c%d d%d", conns, depth),
		Threads: conns,
		Ops:     ops,
		Elapsed: elapsed,
		Mops:    float64(ops) / elapsed.Seconds() / 1e6,
		Mean:    hist.Mean(),
		P50:     hist.Quantile(0.50),
		P99:     hist.Quantile(0.99),
		P999:    hist.Quantile(0.999),
		Stats:   stats,
	}
}

// netStatsOverWire scrapes the server's STATS reply the way an operator
// would, so the reported flush and coalescing counters are the served ones.
func netStatsOverWire(addr string) map[string]int64 {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		panic(fmt.Sprintf("bench: net stats dial: %v", err))
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(30 * time.Second))
	if _, err := conn.Write([]byte("STATS\n")); err != nil {
		panic(fmt.Sprintf("bench: net stats: %v", err))
	}
	m := map[string]int64{}
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 64*1024), 64*1024)
	for sc.Scan() {
		line := sc.Text()
		if line == "END" {
			return m
		}
		var k string
		var v int64
		if _, err := fmt.Sscanf(line, "STAT %s %d", &k, &v); err == nil {
			m[k] = v
		} else if strings.HasPrefix(line, "ERR") {
			panic(fmt.Sprintf("bench: net stats: %s", line))
		}
	}
	panic(fmt.Sprintf("bench: net stats: reply truncated: %v", sc.Err()))
}

func dedupInts(in []int) []int {
	var out []int
	for _, v := range in {
		if v <= 0 {
			continue
		}
		seen := false
		for _, o := range out {
			if o == v {
				seen = true
			}
		}
		if !seen {
			out = append(out, v)
		}
	}
	// Keep ascending order so tables read as sweeps.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
