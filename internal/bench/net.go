package bench

import (
	"bufio"
	"fmt"
	"net"
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

// netConns and netDepth anchor the net-path sweeps: the depth sweep runs at
// netConns connections, where the coalescing gate engages, and the
// connection sweep at netDepth pipelined commands per burst.
const (
	netConns = 8
	netDepth = 16
)

// netPath measures the served (TCP) hot path end to end: a closed-loop
// multi-connection load generator drives the balanced workload over the
// line protocol against an in-process altdb server, one fresh server per
// run. Two sweeps:
//
//   - depth sweep at netConns connections, pipeline depths 1..64: reply
//     flushes amortize (Fl/op ~ 1/depth) and deeper bursts ride the batched
//     index fast path.
//   - connection sweep at netDepth depth: shows the adaptive coalescing
//     gate engaging at >= 8 connections (CoRounds > 0, CoMean > 1) while a
//     single connection stays on the direct path.
//
// Latency percentiles are per-burst round trips (one burst = depth
// commands written in one syscall, depth replies read back); flushes/op
// and the coalescing counters come from the server's own STATS reply over
// the wire. Scheduling noise on shared hosts swings single closed-loop TCP
// runs wildly, so every row is the median of three.
var netPath = Experiment{ID: "net-path",
	Title: "Net path: pipelined protocol loop + cross-connection coalescing over TCP, depth and connection sweeps",
	head:  "Net path: pipelined protocol loop + cross-connection coalescing over TCP",
	note: func(p Params) string {
		return fmt.Sprintf("(balanced mix, %d preloaded keys, burst-RTT percentiles)", min(p.Keys, netKeysCap))
	},
	grids: []grid{
		netSweep(nil, &axis{name: "depth", format: "%.0f",
			values: func(Params) []float64 { return []float64{1, 4, 16, 64} },
			set:    func(c *Config, v float64) { c.BatchSize = int(v) }}),
		netSweep(func(Params) string {
			return fmt.Sprintf("connection sweep at depth %d (coalescing gate 8)", netDepth)
		}, &axis{name: "conns", format: "%.0f",
			values: func(Params) []float64 { return []float64{1, 2, 4, 8, 16} },
			set:    setThreads}),
	}}

// netSweep is one net-path table; the axis overrides one of the two
// anchors (Threads = connections, BatchSize = pipeline depth).
func netSweep(sub func(Params) string, ax *axis) grid {
	return grid{sub: sub, axis: ax, reps: 3,
		rows:     []variant{{NamedFactory: NamedFactory{Name: "net-pipelined"}, cell: runNet}},
		datasets: osmOnly,
		tune: func(p Params, c *Config) {
			c.Keys = min(p.Keys, netKeysCap)
			c.Ops = max(p.Ops/5, 10_000)
			c.Threads, c.BatchSize = netConns, netDepth
		},
		cols: "Conns\tDepth\tKops\tP50us\tP99us\tP99.9us\tFl/op\tCoRounds\tCoMean\tCoP50",
		row: func(c cell) string {
			st := c.Stats
			return fmt.Sprintf("%d\t%d\t%.1f\t%s\t%s\t%s\t%.3f\t%d\t%.1f\t%d", c.Threads, st["net_depth"], c.Mops*1e3,
				us(c.P50), us(c.P99), us(c.P999), float64(st["net_flushes"])/float64(max(st["net_cmds"], 1)), st["coalesce_batches"],
				float64(st["coalesce_ops"])/float64(max(st["coalesce_batches"], 1)), st["coalesce_p50_batch"])
		}}
}

// runNet runs one grid cell — c.Threads connections, bursts of c.BatchSize
// pipelined commands: fresh server, preload, closed-loop drive, STATS
// scrape, shutdown.
func runNet(c Config) Result {
	conns, depth := c.Threads, c.BatchSize
	keys := dataset.Generate(c.Dataset, c.Keys, c.Seed)
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

	wl := workload.New(workload.Config{Mix: workload.Balanced, Threads: conns, Seed: c.Seed}, keys, nil)
	perConn := (c.Ops + conns - 1) / conns
	var hist histogram.Histogram
	var done atomic.Int64
	var wg sync.WaitGroup
	errCh := make(chan error, conns)
	t0 := time.Now()
	var dl time.Time
	if c.Duration > 0 {
		dl = t0.Add(c.Duration)
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
				if c.Duration > 0 {
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
					for _, b := range rbuf[:n] {
						if b == '\n' {
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
	stats["net_depth"] = int64(depth)

	return Result{Dataset: c.Dataset, Mix: fmt.Sprintf("net-balanced c%d d%d", conns, depth),
		Threads: conns, Stats: stats}.measured(int(done.Load()), elapsed, &hist)
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
