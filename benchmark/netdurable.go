package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"syscall"
	"time"

	"altindex/internal/dataset"
	"altindex/internal/server"
	"altindex/internal/xrand"
)

// net-durable: a WAL-backed server (sync=always, no background
// checkpoints) on loopback TCP holding 200 K osm keys, so the index fits
// in cache and the served path dominates. One connection sends bursts of
// 16 same-kind commands, alternating a GET burst and a SET burst; a
// burst's round trip is the latency sample. Sizing counts commands.
var netDurableSizing = sizing{keys: 200_000, warmOps: 128_000, windows: 8, rate: 130_000, sampleEvery: 1}

const burstLen = 16

// burst is one generated request with the exact bytes the shadow model
// expects back.
type burst struct {
	req, want []byte
	set       bool
}

// served is a server with its listener and accept loop.
type served struct {
	srv  *server.Server
	addr string
	done chan error
}

func serve(cfg server.Config) (*served, error) {
	cfg.ReadTimeout, cfg.WriteTimeout = time.Minute, time.Minute
	srv, err := server.NewServerWith(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, errors.Join(err, srv.Shutdown())
	}
	s := &served{srv: srv, addr: ln.Addr().String(), done: make(chan error, 1)}
	go func() { s.done <- srv.Serve(ln) }()
	return s, nil
}

// stop shuts the server down and waits for its accept loop to return.
func (s *served) stop() error {
	err := s.srv.Shutdown()
	if serr := <-s.done; serr != nil && !errors.Is(serr, server.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return err
}

// client is one closed-loop connection.
type client struct {
	conn net.Conn
	rbuf []byte
}

func dial(addr string) (*client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &client{conn: conn, rbuf: make([]byte, 0, 64<<10)}, nil
}

// roundTrip writes req and reads until lines reply lines have arrived.
// The returned bytes are valid until the next call. wrote is when the
// request left, on the clock now supplies.
func (c *client) roundTrip(req []byte, lines int, now func() int64) (reply []byte, wrote int64, err error) {
	if err := c.conn.SetDeadline(time.Now().Add(time.Minute)); err != nil {
		return nil, 0, err
	}
	if _, err := c.conn.Write(req); err != nil {
		return nil, 0, err
	}
	wrote = now()
	c.rbuf = c.rbuf[:0]
	for lines > 0 {
		if len(c.rbuf) == cap(c.rbuf) {
			c.rbuf = append(c.rbuf, 0)[:len(c.rbuf)]
		}
		n, err := c.conn.Read(c.rbuf[len(c.rbuf):cap(c.rbuf)])
		if err != nil {
			return nil, wrote, err
		}
		lines -= bytes.Count(c.rbuf[len(c.rbuf):len(c.rbuf)+n], []byte{'\n'})
		c.rbuf = c.rbuf[:len(c.rbuf)+n]
	}
	return c.rbuf, wrote, nil
}

type netDurable struct {
	cfg    sliceConfig
	rng    *xrand.Rng
	keys   []uint64
	vals   []uint64 // shadow model: last acknowledged SET per key
	pick   zipfPicker
	dir    string
	sv     *served
	cl     *client
	bursts []burst
	buf    []byte // backing store of the window's request and reply bytes
	next   bool   // true when the next burst is a SET burst
}

func newNetDurable(cfg sliceConfig) *netDurable {
	return &netDurable{cfg: cfg, rng: cfg.rng()}
}

func (w *netDurable) build() ([]time.Duration, error) {
	n, _, _ := netDurableSizing.scaled(w.cfg)
	w.dir = filepath.Join(w.cfg.OutDir, fmt.Sprintf("wal-%d-%d", os.Getpid(), w.cfg.Round))
	if err := os.RemoveAll(w.dir); err != nil {
		return nil, err
	}
	t0 := time.Now()
	w.keys = dataset.Generate(dataset.OSM, n, w.cfg.Seed)
	pairs := dataset.Pairs(w.keys)
	t1 := time.Now()
	var err error
	w.sv, err = serve(server.Config{WALDir: w.dir, WALSync: "always", CheckpointInterval: -1})
	if err != nil {
		return nil, err
	}
	if err := w.sv.srv.Preload(pairs); err != nil {
		return nil, err
	}
	if w.cl, err = dial(w.sv.addr); err != nil {
		return nil, err
	}
	d := []time.Duration{t1.Sub(t0), time.Since(t1)}
	w.vals = make([]uint64, n)
	for i := range pairs {
		w.vals[i] = pairs[i].Value
	}
	w.pick = newZipfPicker(n, w.rng)
	return d, nil
}

func (w *netDurable) prepare(n int) {
	nb := n / burstLen
	w.bursts = w.bursts[:0]
	w.buf = w.buf[:0]
	// Offsets first, slices after: appends may move buf while it grows.
	type cut struct{ req, want, end int }
	cuts := make([]cut, 0, nb)
	for b := 0; b < nb; b++ {
		set := w.next
		w.next = !w.next
		reqAt := len(w.buf)
		var idx [burstLen]int
		for i := range idx {
			j := w.pick.pick(w.rng)
			idx[i] = j
			if set {
				w.vals[j] = w.rng.Next()
				w.buf = append(w.buf, "SET "...)
				w.buf = strconv.AppendUint(w.buf, w.keys[j], 10)
				w.buf = append(w.buf, ' ')
				w.buf = strconv.AppendUint(w.buf, w.vals[j], 10)
			} else {
				w.buf = append(w.buf, "GET "...)
				w.buf = strconv.AppendUint(w.buf, w.keys[j], 10)
			}
			w.buf = append(w.buf, '\n')
		}
		wantAt := len(w.buf)
		for _, j := range idx {
			if set {
				w.buf = append(w.buf, "OK\n"...)
			} else {
				w.buf = append(w.buf, "VALUE "...)
				w.buf = strconv.AppendUint(w.buf, w.vals[j], 10)
				w.buf = append(w.buf, '\n')
			}
		}
		cuts = append(cuts, cut{reqAt, wantAt, len(w.buf)})
		w.bursts = append(w.bursts, burst{set: set})
	}
	for b, c := range cuts {
		w.bursts[b].req, w.bursts[b].want = w.buf[c.req:c.want], w.buf[c.want:c.end]
	}
}

func (w *netDurable) run(r *recorder) int64 {
	for i := range w.bursts {
		b := &w.bursts[i]
		class, name := classRead, spGetBurst
		if b.set {
			class, name = classWrite, spSetBurst
		}
		t0 := r.now()
		reply, wrote, err := w.cl.roundTrip(b.req, burstLen, r.now)
		t1 := r.now()
		ok := err == nil && bytes.Equal(reply, b.want)
		id := r.sample(class, name, i, t0, t1)
		if id != 0 {
			r.child(spNetWrite, id, i, t0, wrote)
			r.child(spNetRead, id, i, wrote, t1)
		}
		if !ok {
			if err != nil {
				logf("net-durable: burst %d: %v", i, err)
			}
			r.failed += burstLen - 1
			r.fail(class, name)
		}
	}
	ops := int64(len(w.bursts)) * burstLen
	r.attempted += ops
	return ops
}

// finish is the durability check. The server is quiescent (the one
// connection is idle and every SET was acknowledged after its fsync), so
// the WAL directory is copied as it stands and a second server recovers
// from the copy alone; LEN and every key's value must match the shadow
// model. bytes per key here is what the durable state costs on disk.
func (w *netDurable) finish(r *recorder) (int, float64, error) {
	size, err := dirBytes(w.dir)
	if err != nil {
		return 0, 0, err
	}
	cp := w.dir + "-copy"
	defer os.RemoveAll(cp)
	if err := copyDir(w.dir, cp); err != nil {
		return 0, 0, err
	}
	sv, err := serve(server.Config{WALDir: cp, WALSync: "always", CheckpointInterval: -1})
	if err != nil {
		return 0, 0, fmt.Errorf("recover from copied WAL: %w", err)
	}
	defer sv.stop()
	cl, err := dial(sv.addr)
	if err != nil {
		return 0, 0, err
	}
	defer cl.conn.Close()
	noClock := func() int64 { return 0 }

	reply, _, err := cl.roundTrip([]byte("LEN\n"), 1, noClock)
	if err != nil {
		return 0, 0, err
	}
	r.attempted++
	if want := fmt.Sprintf("VALUE %d\n", len(w.keys)); string(reply) != want {
		r.failed++
		logf("FAIL recovered LEN = %q, shadow model holds %d keys", reply, len(w.keys))
	}
	const chunk = 1024
	var req, want []byte
	for at := 0; at < len(w.keys); at += chunk {
		end := min(at+chunk, len(w.keys))
		req, want = append(req[:0], "MGET"...), want[:0]
		for j := at; j < end; j++ {
			req = append(req, ' ')
			req = strconv.AppendUint(req, w.keys[j], 10)
			want = append(want, "VALUE "...)
			want = strconv.AppendUint(want, w.vals[j], 10)
			want = append(want, '\n')
		}
		req, want = append(req, '\n'), append(want, "END\n"...)
		reply, _, err := cl.roundTrip(req, end-at+1, noClock)
		if err != nil {
			return 0, 0, err
		}
		r.attempted += int64(end - at)
		if !bytes.Equal(reply, want) {
			r.failed += int64(end - at)
			logf("FAIL recovered values of keys %d..%d differ from the shadow model", at, end)
		}
	}
	return len(w.keys), float64(size) / float64(len(w.keys)), nil
}

func (w *netDurable) describe() (int, map[string]string) {
	return len(w.keys), map[string]string{"wal_fs": fsName(w.cfg.OutDir), "wal_sync": "always"}
}

// stats scrapes STATS over the wire, as an operator would.
func (w *netDurable) stats() map[string]int64 {
	st, err := scrapeStats(w.cl)
	if err != nil {
		logf("net-durable: STATS: %v", err)
	}
	return st
}

func scrapeStats(cl *client) (map[string]int64, error) {
	if _, err := cl.conn.Write([]byte("STATS\n")); err != nil {
		return nil, err
	}
	st := map[string]int64{}
	var all []byte
	buf := make([]byte, 16<<10)
	for !bytes.HasSuffix(all, []byte("END\n")) {
		n, err := cl.conn.Read(buf)
		if err != nil {
			return nil, err
		}
		all = append(all, buf[:n]...)
	}
	for _, line := range bytes.Split(all, []byte{'\n'}) {
		f := bytes.Fields(line)
		if len(f) == 3 && string(f[0]) == "STAT" {
			if v, err := strconv.ParseInt(string(f[2]), 10, 64); err == nil {
				st[string(f[1])] = v
			}
		}
	}
	return st, nil
}

func (w *netDurable) close() {
	if w.cl != nil {
		w.cl.conn.Close()
	}
	if w.sv != nil {
		if err := w.sv.stop(); err != nil {
			logf("net-durable: shutdown: %v", err)
		}
	}
	os.RemoveAll(w.dir)
}

func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		fi, err := d.Info()
		if err != nil {
			return err
		}
		total += fi.Size()
		return nil
	})
	return total, err
}

func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, p)
		if err != nil {
			return err
		}
		to := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(to, 0o755)
		}
		in, err := os.Open(p)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(to)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
}

// fsName names the filesystem under dir, so fsync latency is read as that
// filesystem's and not as a device's.
func fsName(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("fs-0x%x", uint32(st.Type))
}
