package server

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"strings"
	"sync"
	"testing"
	"time"
)

// scriptConn is a deterministic in-memory connection: Read returns the
// scripted input in exactly the chunk sizes given (forcing the protocol
// loop through every partial-line refill path), Write accumulates replies.
type scriptConn struct {
	chunks [][]byte
	i      int
	out    bytes.Buffer
}

func (c *scriptConn) Read(p []byte) (int, error) {
	if c.i >= len(c.chunks) {
		return 0, io.EOF
	}
	n := copy(p, c.chunks[c.i])
	if n < len(c.chunks[c.i]) {
		c.chunks[c.i] = c.chunks[c.i][n:]
	} else {
		c.i++
	}
	return n, nil
}

func (c *scriptConn) Write(p []byte) (int, error)      { return c.out.Write(p) }
func (c *scriptConn) SetReadDeadline(time.Time) error  { return nil }
func (c *scriptConn) SetWriteDeadline(time.Time) error { return nil }

// chunkBytes splits b into pseudo-random pieces (seeded; many of size
// 1-3, so lines split mid-token and mid-number).
func chunkBytes(b []byte, seed int64) [][]byte {
	rng := rand.New(rand.NewSource(seed))
	var chunks [][]byte
	for len(b) > 0 {
		n := 1 + rng.Intn(3)
		if rng.Intn(4) == 0 {
			n = 1 + rng.Intn(97)
		}
		if n > len(b) {
			n = len(b)
		}
		chunks = append(chunks, b[:n])
		b = b[n:]
	}
	return chunks
}

// conformanceStream exercises every command kind, case folding, separator
// layouts, structured errors and batching — everything except STATS
// (whose counters depend on how the stream was chunked).
func conformanceStream() []byte {
	cmds := []string{
		"SET 1 10",
		"get 1",
		"GeT 2",
		"SET 1 11",
		"GET 1",
		"DEL 1",
		"DEL 1",
		"set 3 30",
		"set 4 40",
		"set 5 50",
		"GET 3",
		"GET 4",
		"GET 99",
		"MPUT 6 60 7 70 8 80",
		"MGET 6 7 8 9",
		"mget 6",
		"LEN",
		"SCAN 0 100",
		"SCAN 4 2",
		"  SET   20   200  ",
		"\tGET\t20",
		"",
		"   ",
		"del 20",
		"SET x 1",
		"SET 1 x",
		"SET 1",
		"GET",
		"GET nope",
		"DEL nope",
		"MGET",
		"MGET 1 bad 3",
		"MPUT 1",
		"MPUT 1 2 3",
		"SCAN 0 many",
		"SCAN bad 3",
		"BOGUS 1 2",
		"fly",
		"SET 21 210",
		"GET 21",
		"DEL 3",
		"DEL 4",
		"DEL 5",
		"LEN",
		"QUIT",
	}
	// A long GET/SET run so run grouping actually kicks in mid-stream.
	var extra []string
	for i := 0; i < 40; i++ {
		extra = append(extra, fmt.Sprintf("SET %d %d", 1000+i, i))
	}
	for i := 0; i < 40; i++ {
		extra = append(extra, fmt.Sprintf("GET %d", 1000+i))
	}
	all := append(extra, cmds...)
	return []byte(strings.Join(all, "\n") + "\n")
}

// conformanceReplies is the exact reply stream conformanceStream must
// produce: 40 grouped SETs and GETs, then one reply block per command of
// the fixed tail (SCAN 0 100 lists the 40 run keys between the small ones).
func conformanceReplies() []byte {
	var b strings.Builder
	b.WriteString(strings.Repeat("OK\n", 40))
	for i := 0; i < 40; i++ {
		fmt.Fprintf(&b, "VALUE %d\n", i)
	}
	b.WriteString("OK\nVALUE 10\nNIL\nOK\nVALUE 11\nOK\nNIL\nOK\nOK\nOK\nVALUE 30\nVALUE 40\nNIL\n" +
		"OK 3\nVALUE 60\nVALUE 70\nVALUE 80\nNIL\nEND\nVALUE 60\nEND\nVALUE 46\n" +
		"PAIR 3 30\nPAIR 4 40\nPAIR 5 50\nPAIR 6 60\nPAIR 7 70\nPAIR 8 80\n")
	for i := 0; i < 40; i++ {
		fmt.Fprintf(&b, "PAIR %d %d\n", 1000+i, i)
	}
	b.WriteString("END\nPAIR 4 40\nPAIR 5 50\nEND\nOK\nVALUE 200\nOK\n" +
		"ERR BADINT \"x\" is not a uint64\n" +
		"ERR BADINT \"x\" is not a uint64\n" +
		"ERR USAGE SET <key> <value>\n" +
		"ERR USAGE GET <key>\n" +
		"ERR BADINT \"nope\" is not a uint64\n" +
		"ERR BADINT \"nope\" is not a uint64\n" +
		"ERR USAGE MGET <key> [key ...]\n" +
		"ERR BADINT \"bad\" is not a uint64\n" +
		"ERR USAGE MPUT <key> <value> [key value ...]\n" +
		"ERR USAGE MPUT <key> <value> [key value ...]\n" +
		"ERR BADINT \"many\" is not a row count\n" +
		"ERR BADINT \"bad\" is not a uint64\n" +
		"ERR UNKNOWN command \"BOGUS\"\n" +
		"ERR UNKNOWN command \"FLY\"\n" +
		"OK\nVALUE 210\nOK\nOK\nOK\nVALUE 44\nBYE\n")
	return []byte(b.String())
}

// runScripted drives one fresh server's protocol loop over the scripted
// chunks and returns every reply byte.
func runScripted(t *testing.T, chunks [][]byte) []byte {
	t.Helper()
	srv, err := NewServerWith(Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Shutdown() })
	sc := &scriptConn{chunks: chunks}
	cs := newConnState(srv, sc)
	defer cs.release()
	srv.servePipelined(cs)
	return sc.out.Bytes()
}

// ownChunks copies chunks that alias a shared stream, so a run owns its
// input (the loop compacts its read window in place).
func ownChunks(chunks [][]byte) [][]byte {
	out := make([][]byte, len(chunks))
	for i, c := range chunks {
		out[i] = append([]byte(nil), c...)
	}
	return out
}

// TestPipelinedConformance: the same command stream — delivered one command
// per read (no pipelining: every command is parsed, executed and flushed on
// its own), whole, or split at arbitrary byte boundaries (mid-token) —
// produces byte-identical replies, and those are the pinned golden bytes.
func TestPipelinedConformance(t *testing.T) {
	stream := conformanceStream()
	baseline := runScripted(t, ownChunks(bytes.SplitAfter(stream, []byte("\n"))))
	if want := conformanceReplies(); !bytes.Equal(baseline, want) {
		t.Fatalf("one-command-per-read replies differ from the golden bytes\n got: %q\nwant: %q", baseline, want)
	}
	for _, v := range []struct {
		name   string
		chunks [][]byte
	}{
		{"one-write", [][]byte{stream}},
		{"split-7", chunkBytes(stream, 7)},
		{"split-1301", chunkBytes(stream, 1301)},
		{"split-4", chunkBytes(stream, 4)},
	} {
		if got := runScripted(t, ownChunks(v.chunks)); !bytes.Equal(got, baseline) {
			t.Errorf("%s: replies differ from baseline\n got: %q\nwant: %q", v.name, got, baseline)
		}
	}
}

// TestConformanceTooLong: an overlong line split across arbitrary chunk
// boundaries still yields the in-order replies of every prior command,
// then the structured TOOLONG error, then connection close.
func TestConformanceTooLong(t *testing.T) {
	var sb bytes.Buffer
	sb.WriteString("SET 1 10\nGET 1\n")
	sb.WriteString("MGET ")
	for sb.Len() < maxLineBytes+100 {
		sb.WriteString("123456789 ")
	}
	sb.WriteString("\nGET 1\n") // after TOOLONG the stream is dead; must never be answered
	stream := sb.Bytes()

	want := fmt.Sprintf("OK\nVALUE 10\nERR %s line exceeds %d bytes\n", errTooLong, maxLineBytes)
	for name, chunks := range map[string][][]byte{
		"split-3": chunkBytes(stream, 3),
		"split-4": chunkBytes(stream, 4),
		"whole":   {stream},
	} {
		if got := string(runScripted(t, ownChunks(chunks))); got != want {
			t.Errorf("%s: got %q, want %q", name, got, want)
		}
	}
}

// pokeConn loses the race TestShutdownDuringReadArm is about: Shutdown's
// two steps — close done, poke the connection with an immediate read
// deadline — land just before the handler's own deadline stamp, which
// therefore overwrites the poke. Read blocks like a socket would.
type pokeConn struct {
	scriptConn
	srv      *Server
	deadline time.Time
}

func (c *pokeConn) SetReadDeadline(t time.Time) error {
	c.srv.shutOnce.Do(func() { close(c.srv.done) })
	c.deadline = t
	return nil
}

func (c *pokeConn) Read(p []byte) (int, error) {
	time.Sleep(time.Until(c.deadline))
	return 0, os.ErrDeadlineExceeded
}

// TestShutdownDuringReadArm: a handler that stamps its read deadline over
// Shutdown's poke must notice the shutdown instead of sitting out
// ReadTimeout (which blew the 10s drain about once in five suite runs).
func TestShutdownDuringReadArm(t *testing.T) {
	srv, err := NewServerWith(Config{ReadTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Shutdown() })
	cs := newConnState(srv, &pokeConn{srv: srv})
	defer cs.release()
	start := time.Now()
	srv.servePipelined(cs)
	if d := time.Since(start); d > time.Second {
		t.Fatalf("handler outlived the shutdown by %v", d)
	}
}

// TestPipelinedFlushAmortization: a pipelined burst of N commands costs a
// small number of reply flushes, not one per command — the syscall
// amortization the pipelined loop exists for.
func TestPipelinedFlushAmortization(t *testing.T) {
	srv, addr := startServerWith(t, Config{})
	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	const depth = 64
	var sb strings.Builder
	for i := 0; i < depth; i++ {
		fmt.Fprintf(&sb, "SET %d %d\n", i+1, (i+1)*2)
	}
	base := srv.net.flushes.Load()
	if _, err := conn.Write([]byte(sb.String())); err != nil {
		t.Fatal(err)
	}
	r := newReplyReader(conn)
	for i := 0; i < depth; i++ {
		if line := r.line(t); line != "OK" {
			t.Fatalf("reply %d = %q", i, line)
		}
	}
	flushes := srv.net.flushes.Load() - base
	if flushes > depth/4 {
		t.Fatalf("burst of %d commands took %d flushes, want <= %d", depth, flushes, depth/4)
	}
	if got := srv.net.cmds.Load(); got < depth {
		t.Fatalf("net_cmds = %d, want >= %d", got, depth)
	}
	t.Logf("depth-%d burst: %d flushes (%.3f flushes/op)", depth, flushes, float64(flushes)/depth)
}

// TestPipelinedReadYourWrites: grouped writes are visible to every later
// command in the same burst (the group flushes on kind switch), and
// replies come back in command order.
func TestPipelinedReadYourWrites(t *testing.T) {
	_, addr := startServerWith(t, Config{})
	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	burst := "SET 5 50\nSET 6 60\nGET 5\nLEN\nDEL 5\nGET 5\nGET 6\nQUIT\n"
	if _, err := conn.Write([]byte(burst)); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	got, err := io.ReadAll(conn)
	if err != nil {
		t.Fatal(err)
	}
	want := "OK\nOK\nVALUE 50\nVALUE 2\nOK\nNIL\nVALUE 60\nBYE\n"
	if string(got) != want {
		t.Fatalf("burst replies:\n got %q\nwant %q", got, want)
	}
}

// TestDispatchZeroAlloc pins the point-command hot path — tokenize, group,
// batched execute, reply format, flush — at zero heap allocations per
// command once connection scratch is warm.
func TestDispatchZeroAlloc(t *testing.T) {
	srv, err := NewServerWith(Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Shutdown() })
	for k := uint64(1); k <= 64; k++ {
		if err := srv.idx.Insert(k, k*10); err != nil {
			t.Fatal(err)
		}
	}
	sc := &scriptConn{}
	cs := newConnState(srv, sc)
	defer cs.release()

	set := []byte("SET 17 170")
	get := []byte("GET 17")
	del := []byte("DEL 9999999")
	cycle := func() {
		if !srv.processLine(cs, set) || !srv.processLine(cs, get) || !srv.processLine(cs, del) {
			t.Fatal("processLine failed")
		}
		if !srv.flushGroup(cs) || !cs.flush() {
			t.Fatal("flush failed")
		}
		sc.out.Reset()
	}
	cycle() // warm the scratch slices
	allocs := testing.AllocsPerRun(500, cycle)
	if allocs > 0 {
		t.Fatalf("hot path allocates %.2f per 3-command cycle, want 0", allocs)
	}
}

// TestIdleBufferRelease: a connection whose reads block longer than
// idleRelease parks bufferless — its pooled 64KiB read/reply buffers go
// back to the pool (net_buf_releases counts them) — and keeps working when
// traffic resumes.
func TestIdleBufferRelease(t *testing.T) {
	srv, err := NewServerWith(Config{})
	if err != nil {
		t.Fatal(err)
	}
	srv.idleRelease = 5 * time.Millisecond
	c := dial(t, serve(t, srv))
	if got := c.cmd(t, "SET 1 10"); got != "OK" {
		t.Fatal(got)
	}
	time.Sleep(40 * time.Millisecond) // the next read blocks > idleRelease
	if got := c.cmd(t, "GET 1"); got != "VALUE 10" {
		t.Fatalf("GET after idle = %q", got)
	}
	// The handler parks bufferless only when it next waits for input; poll
	// until the release is visible.
	deadline := time.Now().Add(5 * time.Second)
	for srv.net.bufReleases.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("idle connection never released its pooled buffers")
		}
		time.Sleep(10 * time.Millisecond)
	}
	// And the connection still serves correctly after reacquiring.
	if got := c.cmd(t, "GET 1"); got != "VALUE 10" {
		t.Fatalf("GET after buffer release = %q", got)
	}
}

// TestServerCoalescingGate: below CoalesceConns no cross-connection
// batches form; at or above it concurrent pipelined clients coalesce
// (batches > 0, mean batch > 1) with correct results throughout.
func TestServerCoalescingGate(t *testing.T) {
	srv, addr := startServerWith(t, Config{CoalesceConns: 3})

	// One connection: below the gate, direct calls only.
	c := dial(t, addr)
	if got := c.cmd(t, "SET 1 10"); got != "OK" {
		t.Fatal(got)
	}
	if st := srv.co.Stats(); st["coalesce_batches"] != 0 {
		t.Fatalf("coalescing engaged below gate: %v", st)
	}

	// Four concurrent pipelined clients: gate opens, rounds form.
	const clients, per = 4, 120
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for id := 0; id < clients; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			conn, err := net.Dial("tcp", addr.String())
			if err != nil {
				errs <- err
				return
			}
			defer conn.Close()
			r := newReplyReader(conn)
			base := 1000 * (id + 1)
			for i := 0; i < per; i += 8 {
				var sb strings.Builder
				for j := 0; j < 8; j++ {
					fmt.Fprintf(&sb, "SET %d %d\n", base+i+j, (base+i+j)*3)
				}
				for j := 0; j < 8; j++ {
					fmt.Fprintf(&sb, "GET %d\n", base+i+j)
				}
				if _, err := io.WriteString(conn, sb.String()); err != nil {
					errs <- err
					return
				}
				for j := 0; j < 8; j++ {
					if line := r.line(nil); line != "OK" {
						errs <- fmt.Errorf("client %d: SET -> %q", id, line)
						return
					}
				}
				for j := 0; j < 8; j++ {
					want := fmt.Sprintf("VALUE %d", (base+i+j)*3)
					if line := r.line(nil); line != want {
						errs <- fmt.Errorf("client %d: GET -> %q, want %q", id, line, want)
						return
					}
				}
			}
			errs <- nil
		}(id)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	st := srv.co.Stats()
	if st["coalesce_batches"] == 0 {
		t.Fatalf("no coalesced rounds at %d concurrent conns (gate 3): %v", clients+1, st)
	}
	mean := float64(st["coalesce_ops"]) / float64(st["coalesce_batches"])
	if mean <= 1 {
		t.Fatalf("mean coalesced batch %.2f, want > 1", mean)
	}
	t.Logf("coalescing: %d rounds, %d ops, mean %.1f, p50 %d",
		st["coalesce_batches"], st["coalesce_ops"], mean, st["coalesce_p50_batch"])
}

// replyReader reads newline-terminated replies without over-buffering
// complexities; nil t makes line() return the error text instead of
// failing the test (for use inside goroutines).
type replyReader struct {
	conn net.Conn
	buf  []byte
}

func newReplyReader(conn net.Conn) *replyReader { return &replyReader{conn: conn} }

func (r *replyReader) line(t *testing.T) string {
	r.conn.SetReadDeadline(time.Now().Add(20 * time.Second))
	for {
		if i := bytes.IndexByte(r.buf, '\n'); i >= 0 {
			line := string(r.buf[:i])
			r.buf = r.buf[i+1:]
			return line
		}
		chunk := make([]byte, 4096)
		n, err := r.conn.Read(chunk)
		if n > 0 {
			r.buf = append(r.buf, chunk[:n]...)
			continue
		}
		if err != nil {
			if t != nil {
				t.Fatalf("reading reply: %v", err)
			}
			return "read error: " + err.Error()
		}
	}
}
