package server

import (
	"bufio"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
)

// startTestServer runs the server on an ephemeral port.
func startTestServer(t *testing.T) net.Addr {
	t.Helper()
	srv, err := NewServerWith(Config{})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go srv.Serve(ln)
	return ln.Addr()
}

type client struct {
	conn net.Conn
	r    *bufio.Scanner
}

func dial(t *testing.T, addr net.Addr) *client {
	t.Helper()
	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return &client{conn: conn, r: bufio.NewScanner(conn)}
}

func (c *client) cmd(t *testing.T, line string) string {
	t.Helper()
	if _, err := fmt.Fprintln(c.conn, line); err != nil {
		t.Fatal(err)
	}
	if !c.r.Scan() {
		t.Fatalf("no reply to %q: %v", line, c.r.Err())
	}
	return c.r.Text()
}

// cmdMulti reads lines until END.
func (c *client) cmdMulti(t *testing.T, line string) []string {
	t.Helper()
	if _, err := fmt.Fprintln(c.conn, line); err != nil {
		t.Fatal(err)
	}
	var out []string
	for c.r.Scan() {
		l := c.r.Text()
		if l == "END" {
			return out
		}
		out = append(out, l)
	}
	t.Fatalf("stream ended before END: %v", c.r.Err())
	return nil
}

func TestProtocolBasics(t *testing.T) {
	addr := startTestServer(t)
	c := dial(t, addr)

	if got := c.cmd(t, "GET 5"); got != "NIL" {
		t.Fatalf("GET empty = %q", got)
	}
	if got := c.cmd(t, "SET 5 50"); got != "OK" {
		t.Fatalf("SET = %q", got)
	}
	if got := c.cmd(t, "GET 5"); got != "VALUE 50" {
		t.Fatalf("GET = %q", got)
	}
	if got := c.cmd(t, "SET 5 51"); got != "OK" {
		t.Fatal("overwrite")
	}
	if got := c.cmd(t, "GET 5"); got != "VALUE 51" {
		t.Fatalf("GET after overwrite = %q", got)
	}
	if got := c.cmd(t, "LEN"); got != "VALUE 1" {
		t.Fatalf("LEN = %q", got)
	}
	if got := c.cmd(t, "DEL 5"); got != "OK" {
		t.Fatalf("DEL = %q", got)
	}
	if got := c.cmd(t, "DEL 5"); got != "NIL" {
		t.Fatalf("double DEL = %q", got)
	}
	if got := c.cmd(t, "BOGUS"); !strings.HasPrefix(got, "ERR") {
		t.Fatalf("unknown command = %q", got)
	}
	if got := c.cmd(t, "SET x y"); !strings.HasPrefix(got, "ERR") {
		t.Fatalf("bad args = %q", got)
	}
	if got := c.cmd(t, "QUIT"); got != "BYE" {
		t.Fatalf("QUIT = %q", got)
	}
}

func TestScanOverWire(t *testing.T) {
	addr := startTestServer(t)
	c := dial(t, addr)
	for k := 10; k <= 100; k += 10 {
		if got := c.cmd(t, fmt.Sprintf("SET %d %d", k, k*2)); got != "OK" {
			t.Fatal(got)
		}
	}
	rows := c.cmdMulti(t, "SCAN 35 4")
	want := []string{"PAIR 40 80", "PAIR 50 100", "PAIR 60 120", "PAIR 70 140"}
	if len(rows) != len(want) {
		t.Fatalf("scan rows = %v", rows)
	}
	for i := range want {
		if rows[i] != want[i] {
			t.Fatalf("row %d = %q, want %q", i, rows[i], want[i])
		}
	}
	stats := c.cmdMulti(t, "STATS")
	if len(stats) == 0 || !strings.HasPrefix(stats[0], "STAT ") {
		t.Fatalf("stats = %v", stats)
	}
}

func TestBatchedCommands(t *testing.T) {
	addr := startTestServer(t)
	c := dial(t, addr)

	if got := c.cmd(t, "MPUT 1 10 2 20 3 30"); got != "OK 3" {
		t.Fatalf("MPUT = %q", got)
	}
	rows := c.cmdMulti(t, "MGET 2 9 1 3")
	want := []string{"VALUE 20", "NIL", "VALUE 10", "VALUE 30"}
	if len(rows) != len(want) {
		t.Fatalf("MGET rows = %v", rows)
	}
	for i := range want {
		if rows[i] != want[i] {
			t.Fatalf("MGET row %d = %q, want %q", i, rows[i], want[i])
		}
	}
	// Batched upsert overwrites.
	if got := c.cmd(t, "MPUT 2 21"); got != "OK 1" {
		t.Fatalf("MPUT upsert = %q", got)
	}
	if rows := c.cmdMulti(t, "MGET 2"); len(rows) != 1 || rows[0] != "VALUE 21" {
		t.Fatalf("MGET after upsert = %v", rows)
	}
	if got := c.cmd(t, "LEN"); got != "VALUE 3" {
		t.Fatalf("LEN = %q", got)
	}
	// Malformed requests.
	if got := c.cmd(t, "MPUT 1"); !strings.HasPrefix(got, "ERR") {
		t.Fatalf("odd MPUT = %q", got)
	}
	if got := c.cmd(t, "MGET"); !strings.HasPrefix(got, "ERR") {
		t.Fatalf("empty MGET = %q", got)
	}
	if got := c.cmd(t, "MGET x"); !strings.HasPrefix(got, "ERR") {
		t.Fatalf("bad MGET key = %q", got)
	}
}

func TestConcurrentClients(t *testing.T) {
	addr := startTestServer(t)
	const clients = 8
	const perClient = 500
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for cid := 0; cid < clients; cid++ {
		wg.Add(1)
		go func(cid int) {
			defer wg.Done()
			conn, err := net.Dial("tcp", addr.String())
			if err != nil {
				errs <- err
				return
			}
			defer conn.Close()
			r := bufio.NewScanner(conn)
			for i := 0; i < perClient; i++ {
				k := cid*perClient + i + 1
				fmt.Fprintf(conn, "SET %d %d\n", k, k*3)
				if !r.Scan() || r.Text() != "OK" {
					errs <- fmt.Errorf("client %d: SET %d -> %q", cid, k, r.Text())
					return
				}
				fmt.Fprintf(conn, "GET %d\n", k)
				if !r.Scan() || r.Text() != fmt.Sprintf("VALUE %d", k*3) {
					errs <- fmt.Errorf("client %d: GET %d -> %q", cid, k, r.Text())
					return
				}
			}
			errs <- nil
		}(cid)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	// Verify the total through a fresh connection.
	c := dial(t, addr)
	if got := c.cmd(t, "LEN"); got != fmt.Sprintf("VALUE %d", clients*perClient) {
		t.Fatalf("LEN = %q", got)
	}
}
