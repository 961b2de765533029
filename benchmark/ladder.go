package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"altindex"
	"altindex/internal/art"
	"altindex/internal/core"
	"altindex/internal/dataset"
	"altindex/internal/gpl"
	"altindex/internal/index"
	"altindex/internal/memdb"
	"altindex/internal/netproto"
	"altindex/internal/opsched"
	"altindex/internal/server"
	"altindex/internal/shard"
	"altindex/internal/wal"
	"altindex/internal/xrand"
)

// The layer ladder times each package's public functions from outside, on
// the traced workload's own keys and on one shared list of generated
// positions, so that a rung minus the rung below it is that layer's tax.
// Op counts are fixed (scaled only by the smoke test) and every timing is
// a mean over the rung's ops; the end-to-end metrics never come from here.
const (
	ladderPointOps = 400_000 // Zipf point ops per rung
	ladderCalls    = 8_000   // scans and batches per rung
	ladderSmall    = 200_000 // key cap of the row, log and served rungs
)

// workloadData names each workload's generator and full key count; the
// workloads and the ladder both draw their keys through it.
func workloadData(name string) (dataset.Name, sizing) {
	switch name {
	case wlMemRead:
		return dataset.OSM, memReadSizing
	case wlMemChurn:
		return dataset.Libio, memChurnSizing
	case wlMemRange:
		return dataset.FB, memRangeSizing
	default:
		return dataset.OSM, netDurableSizing
	}
}

type ladder struct {
	cfg  sliceConfig
	rng  *xrand.Rng
	keys []uint64
	pos  []int // Zipf positions into keys, shared by every point rung
	out  map[string]float64
	sink uint64
}

// nsPer times f, which performs n operations, and returns ns per op.
func nsPer(n int, f func()) float64 {
	t0 := time.Now()
	f()
	return float64(time.Since(t0).Nanoseconds()) / float64(n)
}

func runLadder(cfg sliceConfig) (map[string]float64, error) {
	name, sz := workloadData(cfg.Workload)
	n, _, _ := sz.scaled(cfg)
	l := &ladder{
		cfg:  cfg,
		rng:  cfg.rng(),
		keys: dataset.Generate(name, n, cfg.Seed),
		out:  map[string]float64{},
	}
	pick := newZipfPicker(n, l.rng)
	l.pos = make([]int, max(int(ladderPointOps*cfg.Scale), 64))
	for i := range l.pos {
		l.pos[i] = pick.pick(l.rng)
	}
	l.gpl()
	l.art()
	coreGet, err := l.index("core", core.New(core.Options{}))
	if err != nil {
		return nil, err
	}
	shardGet, err := l.index("shard", shard.New(core.Options{Shards: 4}))
	if err != nil {
		return nil, err
	}
	l.out["shard.route_ns_per_op"] = shardGet - coreGet
	if err := l.memdb(); err != nil {
		return nil, err
	}
	l.netproto()
	l.opsched()
	if err := l.wal(); err != nil {
		return nil, err
	}
	if err := l.server(); err != nil {
		return nil, err
	}
	return l.out, nil
}

func (l *ladder) calls() int { return max(int(ladderCalls*l.cfg.Scale), 16) }

// small is the strided subset of the keys used by rungs whose per-key
// set-up (rows, WAL records, served preload) is too slow for 8 M keys.
func (l *ladder) small() []uint64 {
	limit := max(int(ladderSmall*l.cfg.Scale), 256)
	if len(l.keys) <= limit {
		return l.keys
	}
	out := make([]uint64, 0, limit)
	stride := float64(len(l.keys)) / float64(limit)
	for i := 0; i < limit; i++ {
		out = append(out, l.keys[int(float64(i)*stride)])
	}
	return out
}

func (l *ladder) gpl() {
	eps := max(float64(len(l.keys))/1000, 16) // core's default error bound
	var segs []gpl.Segment
	l.out["gpl.partition_ns_per_key"] = nsPer(len(l.keys), func() { segs = gpl.Partition(l.keys, eps) })
	l.out["gpl.segments"] = float64(len(segs))
	var acc float64
	l.out["gpl.predict_ns"] = nsPer(len(l.pos), func() {
		for _, p := range l.pos {
			k := l.keys[p]
			s := sort.Search(len(segs), func(i int) bool { return segs[i].First > k }) - 1
			acc += segs[s].Predict(k)
		}
	})
	l.sink += uint64(acc)
}

// victims returns distinct positions to remove and re-insert: the same
// re-insert-after-remove pattern mem-churn's pool produces.
func (l *ladder) victims() []int {
	n := min(len(l.pos)/2, len(l.keys)/4)
	seen := make(map[int]struct{}, n)
	out := make([]int, 0, n)
	for len(out) < n {
		p := l.rng.Intn(len(l.keys))
		if _, dup := seen[p]; !dup {
			seen[p] = struct{}{}
			out = append(out, p)
		}
	}
	return out
}

func (l *ladder) art() {
	t := art.New(nil)
	for _, k := range l.keys {
		t.Put(k, dataset.ValueFor(k))
	}
	l.out["art.get_ns"] = nsPer(len(l.pos), func() {
		for _, p := range l.pos {
			v, _ := t.Get(l.keys[p])
			l.sink += v
		}
	})
	vict := l.victims()
	l.out["art.remove_ns"] = nsPer(len(vict), func() {
		for _, p := range vict {
			t.Remove(l.keys[p])
		}
	})
	l.out["art.insert_ns"] = nsPer(len(vict), func() {
		for _, p := range vict {
			t.Put(l.keys[p], uint64(p))
		}
	})
	var dst []index.KV
	calls := l.calls()
	var got int
	d := nsPer(1, func() {
		for i := 0; i < calls; i++ {
			dst = t.AppendRange(dst[:0], l.keys[l.pos[i%len(l.pos)]], ^uint64(0), scanLen)
			got += len(dst)
		}
	})
	l.out["art.scan_ns_per_key"] = d / float64(max(got, 1))
	l.out["art.bytes_per_key"] = float64(t.MemoryUsage()) / float64(t.Len())
}

// index times one index layout (core.ALT or shard.ALT) through the public
// interface both share, and returns its get_ns for the route tax.
func (l *ladder) index(rung string, ix altindex.Index) (getNS float64, err error) {
	defer ix.Close()
	pairs := dataset.Pairs(l.keys)
	t0 := time.Now()
	if err := ix.Bulkload(pairs); err != nil {
		return 0, fmt.Errorf("%s bulkload: %w", rung, err)
	}
	l.out[rung+".bulkload_s"] = time.Since(t0).Seconds()
	pairs = nil

	getNS = nsPer(len(l.pos), func() {
		for _, p := range l.pos {
			v, _ := ix.Get(l.keys[p])
			l.sink += v
		}
	})
	l.out[rung+".get_ns"] = getNS

	calls := l.calls()
	dst := make([]index.KV, 0, scanLen)
	var got int
	d := nsPer(1, func() {
		for i := 0; i < calls; i++ {
			dst = ix.ScanAppend(dst[:0], l.keys[l.pos[i%len(l.pos)]], ^uint64(0), scanLen)
			got += len(dst)
		}
	})
	l.out[rung+".scan_ns_per_key"] = d / float64(max(got, 1))

	bkeys := make([]uint64, calls*batchSize)
	for i := range bkeys {
		bkeys[i] = l.keys[l.rng.Intn(len(l.keys))]
	}
	vals, found := make([]uint64, batchSize), make([]bool, batchSize)
	l.out[rung+".getbatch_ns_per_key"] = nsPer(len(bkeys), func() {
		for at := 0; at < len(bkeys); at += batchSize {
			ix.GetBatch(bkeys[at:at+batchSize], vals, found)
		}
	})
	if rung != "core" {
		return getNS, nil
	}

	// The write rungs are core's alone: the sharded layout runs the same
	// code below its router.
	l.out["core.update_ns"] = nsPer(len(l.pos), func() {
		for _, p := range l.pos {
			ix.Update(l.keys[p], uint64(p))
		}
	})
	bp := make([]index.KV, len(bkeys))
	for i, k := range bkeys {
		bp[i] = index.KV{Key: k, Value: uint64(i)}
	}
	l.out["core.insertbatch_ns_per_key"] = nsPer(len(bp), func() {
		for at := 0; at < len(bp); at += batchSize {
			if err := ix.InsertBatch(bp[at : at+batchSize]); err != nil {
				panic(err)
			}
		}
	})
	vict := l.victims()
	l.out["core.remove_ns"] = nsPer(len(vict), func() {
		for _, p := range vict {
			ix.Remove(l.keys[p])
		}
	})
	l.out["core.insert_ns"] = nsPer(len(vict), func() {
		for _, p := range vict {
			if err := ix.Insert(l.keys[p], uint64(p)); err != nil {
				panic(err)
			}
		}
	})
	return getNS, nil
}

func (l *ladder) memdb() error {
	keys := l.small()
	db := memdb.NewDB()
	defer db.Close()
	t := db.CreateTable("t", 4)
	row := make([]uint64, 4)
	var err error
	l.out["memdb.insert_ns"] = nsPer(len(keys), func() {
		for _, k := range keys {
			row[0], row[1], row[2], row[3] = k, k+1, k+2, k+3
			if e := t.Insert(k, row); e != nil {
				err = e
			}
		}
	})
	if err != nil {
		return fmt.Errorf("memdb insert: %w", err)
	}
	l.out["memdb.get_ns"] = nsPer(len(l.pos), func() {
		for _, p := range l.pos {
			r, _ := t.Get(keys[p%len(keys)])
			l.sink += uint64(len(r))
		}
	})
	calls := l.calls()
	var rows int
	d := nsPer(1, func() {
		for i := 0; i < calls; i++ {
			rows += t.SelectRange(keys[l.pos[i%len(l.pos)]%len(keys)], scanLen, func(_ uint64, r []uint64) bool {
				l.sink += r[3]
				return true
			})
		}
	})
	l.out["memdb.selectrange_ns_per_row"] = d / float64(max(rows, 1))
	return nil
}

func (l *ladder) netproto() {
	n := len(l.pos)
	var buf []byte
	ends := make([]int, 0, n)
	for i, p := range l.pos {
		if i%2 == 0 {
			buf = fmt.Appendf(buf, "GET %d", l.keys[p])
		} else {
			buf = fmt.Appendf(buf, "SET %d %d", l.keys[p], uint64(p))
		}
		ends = append(ends, len(buf))
	}
	line := func(i int) []byte {
		if i == 0 {
			return buf[:ends[0]]
		}
		return buf[ends[i-1]:ends[i]]
	}
	var fields [][]byte
	l.out["netproto.fields_ns_per_cmd"] = nsPer(n, func() {
		for i := 0; i < n; i++ {
			fields = netproto.Fields(fields[:0], line(i))
			l.sink += uint64(len(fields))
		}
	})
	l.out["netproto.parse_ns_per_cmd"] = nsPer(n, func() {
		for i := 0; i < n; i++ {
			fields = netproto.Fields(fields[:0], line(i))
			if !netproto.EqFold(fields[0], "GET") && !netproto.EqFold(fields[0], "SET") {
				panic("netproto: generated command did not match")
			}
			for _, tok := range fields[1:] {
				v, _ := netproto.ParseUint(tok)
				l.sink += v
			}
		}
	})
	var reply []byte
	l.out["netproto.format_ns_per_reply"] = nsPer(n, func() {
		for _, p := range l.pos {
			reply = netproto.AppendPair(reply[:0], l.keys[p], uint64(p))
		}
	})
	l.sink += uint64(len(reply))
}

// coreBackend adapts an index to the coalescer's sink.
type coreBackend struct{ ix altindex.Index }

func (b coreBackend) GetBatch(k, v []uint64, f []bool) { b.ix.GetBatch(k, v, f) }
func (b coreBackend) SetBatch(p []index.KV) error      { return b.ix.InsertBatch(p) }
func (b coreBackend) Del(k uint64) (bool, error)       { return b.ix.Remove(k), nil }

// opsched times runs of 16 GETs from two submitters, once below the gate
// (direct calls) and once with a gate of one connection, which the default
// gate of 8 never reaches in this benchmark.
func (l *ladder) opsched() {
	keys := l.small()
	ix := core.New(core.Options{})
	defer ix.Close()
	if err := ix.Bulkload(dataset.Pairs(keys)); err != nil {
		panic(err)
	}
	const submitters = 2
	rounds := l.calls()
	drive := func(c *opsched.Coalescer) float64 {
		var wg sync.WaitGroup
		t0 := time.Now()
		for s := 0; s < submitters; s++ {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				ks, vs, fs := make([]uint64, burstLen), make([]uint64, burstLen), make([]bool, burstLen)
				for r := 0; r < rounds; r++ {
					for i := range ks {
						ks[i] = keys[l.pos[(r*burstLen+i+s*7)%len(l.pos)]%len(keys)]
					}
					if err := c.Gets(ks, vs, fs); err != nil {
						panic(err)
					}
				}
			}(s)
		}
		wg.Wait()
		return float64(time.Since(t0).Nanoseconds()) / float64(submitters*rounds*burstLen)
	}
	direct := opsched.New(coreBackend{ix}, opsched.Options{GateConns: -1})
	l.out["opsched.direct_ns_per_op"] = drive(direct)
	direct.Close()
	engaged := opsched.New(coreBackend{ix}, opsched.Options{GateConns: 1})
	engaged.ConnOpened()
	l.out["opsched.engaged_ns_per_op"] = drive(engaged)
	st := engaged.Stats()
	engaged.Close()
	l.out["opsched.mean_batch"] = float64(st["coalesce_ops"]) / float64(max(st["coalesce_batches"], 1))
}

func (l *ladder) wal() error {
	dir := filepath.Join(l.cfg.OutDir, fmt.Sprintf("ladder-wal-%d", os.Getpid()))
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	lg, err := wal.Open(dir, wal.Options{Sync: wal.SyncAlways})
	if err != nil {
		return err
	}
	payload := make([]byte, 17) // the size of the server's SET record
	appends, commits := len(l.small()), max(l.calls()/8, 16)
	var werr error
	l.out["wal.append_ns"] = nsPer(appends, func() {
		for i := 0; i < appends; i++ {
			if _, err := lg.Append(payload); err != nil {
				werr = err
			}
		}
	})
	if err := lg.Sync(); err != nil || werr != nil {
		lg.Close()
		return fmt.Errorf("wal append: %v %v", err, werr)
	}
	before := lg.Stats()
	l.out["wal.commit_ns"] = nsPer(commits, func() {
		for i := 0; i < commits; i++ {
			if _, err := lg.Commit(payload); err != nil {
				werr = err
			}
		}
	})
	after := lg.Stats()
	if err := lg.Close(); err != nil || werr != nil {
		return fmt.Errorf("wal commit: %v %v", err, werr)
	}
	l.out["wal.fsyncs_per_commit"] = float64(after.Fsyncs-before.Fsyncs) / float64(commits)
	l.out["wal.bytes_per_user_byte"] = float64(after.Bytes) / float64((appends+commits)*len(payload))

	lg, err = wal.Open(dir, wal.Options{Sync: wal.SyncAlways})
	if err != nil {
		return err
	}
	defer lg.Close()
	var records int
	d := nsPer(1, func() {
		records, err = lg.Replay(0, func(_ uint64, p []byte) error {
			l.sink += uint64(len(p))
			return nil
		})
	})
	if err != nil || records != appends+commits {
		return fmt.Errorf("wal replay: %d of %d records: %v", records, appends+commits, err)
	}
	l.out["wal.replay_ns_per_record"] = d / float64(records)
	return nil
}

// burstTimes sends n bursts built by mk and returns the median round trip
// in nanoseconds.
func burstTimes(cl *client, n, lines int, mk func(i int, req []byte) []byte) (float64, error) {
	base := time.Now()
	now := func() int64 { return int64(time.Since(base)) }
	times := make([]float64, 0, n)
	var req []byte
	for i := 0; i < n; i++ {
		req = mk(i, req[:0])
		t0 := now()
		if _, _, err := cl.roundTrip(req, lines, now); err != nil {
			return 0, err
		}
		times = append(times, float64(now()-t0))
	}
	return median(times), nil
}

func (l *ladder) server() error {
	keys := l.small()
	pairs := dataset.Pairs(keys)
	key := func(i int) uint64 { return keys[l.pos[i%len(l.pos)]%len(keys)] }
	getBurst := func(i int, req []byte) []byte {
		for j := 0; j < burstLen; j++ {
			req = fmt.Appendf(req, "GET %d\n", key(i*burstLen+j))
		}
		return req
	}
	setBurst := func(i int, req []byte) []byte {
		for j := 0; j < burstLen; j++ {
			req = fmt.Appendf(req, "SET %d %d\n", key(i*burstLen+j), uint64(i))
		}
		return req
	}
	bursts := l.calls() / 4

	// Rung 1: the served path without durability.
	plain, err := serve(server.Config{})
	if err != nil {
		return err
	}
	if err := plain.srv.Preload(pairs); err != nil {
		return err
	}
	cl, err := dial(plain.addr)
	if err != nil {
		return err
	}
	rtt, err := burstTimes(cl, bursts*4, 1, func(i int, req []byte) []byte {
		return fmt.Appendf(req, "GET %d\n", key(i))
	})
	if err != nil {
		return err
	}
	l.out["server.rtt_depth1_us"] = rtt / 1e3
	before, err := scrapeStats(cl)
	if err != nil {
		return err
	}
	served, err := burstTimes(cl, bursts, burstLen, getBurst)
	if err != nil {
		return err
	}
	plainSet, err := burstTimes(cl, bursts, burstLen, setBurst)
	if err != nil {
		return err
	}
	after, err := scrapeStats(cl)
	if err != nil {
		return err
	}
	// The second STATS command itself is one of the counted commands.
	cmds := float64(after["net_cmds"] - before["net_cmds"])
	l.out["server.cmds_per_flush"] = cmds / float64(max(after["net_flushes"]-before["net_flushes"], 1))
	l.out["server.bytes_in_per_op"] = float64(after["net_bytes_in"]-before["net_bytes_in"]) / cmds
	l.out["server.bytes_out_per_op"] = float64(after["net_bytes_out"]-before["net_bytes_out"]) / cmds
	cl.conn.Close()
	if err := plain.stop(); err != nil {
		return err
	}

	// The same GETs straight into a core index over the same keys: what
	// the socket, tokeniser, dispatcher and reply flush add per command.
	ix := core.New(core.Options{})
	if err := ix.Bulkload(pairs); err != nil {
		return err
	}
	direct := nsPer(bursts*burstLen, func() {
		for i := 0; i < bursts*burstLen; i++ {
			v, _ := ix.Get(key(i))
			l.sink += v
		}
	})
	ix.Close()
	l.out["server.net_tax_ns_per_op"] = served/burstLen - direct

	// Rung 2: the same SET bursts with the WAL committing before each ack.
	dir := filepath.Join(l.cfg.OutDir, fmt.Sprintf("ladder-srv-%d", os.Getpid()))
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	defer os.RemoveAll(dir + "-copy")
	durableCfg := server.Config{WALDir: dir, WALSync: "always", CheckpointInterval: -1}
	dur, err := serve(durableCfg)
	if err != nil {
		return err
	}
	t0 := time.Now()
	if err := dur.srv.Preload(pairs); err != nil {
		return err
	}
	l.out["server.preload_s"] = time.Since(t0).Seconds()
	if cl, err = dial(dur.addr); err != nil {
		return err
	}
	durSet, err := burstTimes(cl, bursts, burstLen, setBurst)
	if err != nil {
		return err
	}
	l.out["server.durable_tax_ns_per_write"] = (durSet - plainSet) / burstLen
	cl.conn.Close()
	// Recovery is measured on a copy taken before shutdown: a clean
	// shutdown checkpoints, which would leave nothing to replay.
	if err := copyDir(dir, dir+"-copy"); err != nil {
		return err
	}
	t0 = time.Now()
	if err := dur.stop(); err != nil {
		return err
	}
	l.out["server.shutdown_s"] = time.Since(t0).Seconds()

	durableCfg.WALDir = dir + "-copy"
	t0 = time.Now()
	rec, err := serve(durableCfg)
	if err != nil {
		return fmt.Errorf("recover: %w", err)
	}
	l.out["server.recover_s"] = time.Since(t0).Seconds()
	if cl, err = dial(rec.addr); err != nil {
		return err
	}
	st, err := scrapeStats(cl)
	if err != nil {
		return err
	}
	l.out["server.recover_records"] = float64(st["replayed_records"])
	cl.conn.Close()
	return rec.stop()
}
