//go:build failpoint

package main

// The kill -9 crash matrix: an external harness that runs a real altdb
// child process armed (via ALTDB_FAILPOINTS) to SIGKILL itself at one
// exact durability edge — a WAL append, an fsync, a segment rotation, a
// log truncation, a checkpoint file flush/sync/rename, a checkpoint
// publish — while concurrent writers hammer it over TCP. After each
// crash the harness restarts the child over the same data directory and
// audits the recovered state against what the writers observed:
//
//   - no lost acked writes:  a key whose SET was answered "OK" holds an
//     attempt at least as new as the last acked one,
//   - no ghosts:             every recovered value decodes to its owning
//     key and to an attempt that was actually sent,
//   - no double-applies:     the key census matches the audit sweep (and
//     replay idempotence is separately fuzzed in internal/server).
//
// Values encode provenance as key<<32 | attempt, with each key owned by
// exactly one writer, so every recovered bit is attributable. State
// accumulates across iterations of a site — each recovery chains onto
// the survivors of the previous crash.

import (
	"bufio"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// killSites are the durability edges the matrix kills at. Rotation and
// truncation sites can also fire during the child's own recovery, so some
// iterations kill the child before it ever serves — those still audit.
var killSites = []string{
	"wal/append",
	"wal/sync",
	"wal/rotate",
	"wal/truncate",
	"snapio/flush",
	"snapio/sync",
	"snapio/rename",
	"altdb/checkpoint/publish",
}

const (
	matrixWriters      = 4
	matrixKeysPerOwner = 48
	matrixOpsPerRound  = 300 // per writer, upper bound if the child outlives its failpoint
)

func matrixIters() int {
	if s := os.Getenv("CRASH_MATRIX_ITERS"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			return n
		}
	}
	if testing.Short() {
		return 4
	}
	return 20
}

// writerState is one writer's ground truth, disjoint keys per writer so
// no locking is needed.
type writerState struct {
	acked   map[uint64]uint64 // key -> last acknowledged attempt
	maxSent map[uint64]uint64 // key -> highest attempt ever sent
}

func TestCrashMatrix(t *testing.T) {
	if testing.Short() && os.Getenv("CRASH_MATRIX_ITERS") == "" {
		t.Log("short mode: 4 iterations per site")
	}
	bin := buildAltdb(t)
	iters := matrixIters()
	for _, site := range killSites {
		site := site
		t.Run(strings.ReplaceAll(site, "/", "_"), func(t *testing.T) {
			dir := t.TempDir()
			writers := make([]*writerState, matrixWriters)
			for w := range writers {
				writers[w] = &writerState{
					acked:   map[uint64]uint64{},
					maxSent: map[uint64]uint64{},
				}
			}
			for iter := 0; iter < iters; iter++ {
				runCrashIteration(t, bin, dir, site, iter, writers)
				auditRecovery(t, bin, dir, writers, site, iter)
			}
		})
	}
}

// killSpec arms site to absorb `skip` hits and die on the next one.
func killSpec(site string, skip int) string {
	if skip <= 0 {
		return site + "=kill"
	}
	return fmt.Sprintf("%s=%d*off->kill", site, skip)
}

// hitBudget picks how many site hits to let pass before the kill, varying
// per iteration so the matrix samples different positions of the same
// edge (first batch vs mid-stream vs during rotation-heavy phases).
func hitBudget(site string, iter int) int {
	switch site {
	case "wal/append", "wal/sync":
		return (iter * 17) % 60
	case "wal/rotate":
		// Open itself rotates once per start; small budgets kill during
		// recovery, larger ones mid-stream.
		return iter % 5
	case "wal/truncate", "altdb/checkpoint/publish":
		// One hit per checkpoint; keep the budget tight so it trips.
		return iter % 3
	default: // snapio sites: two hits per checkpoint, one base and one meta.
		return iter % 8
	}
}

// runCrashIteration starts an armed child over dir, hammers it with the
// writers until it dies (or its op budget runs out, in which case it is
// killed externally — an equally valid crash point).
func runCrashIteration(t *testing.T, bin, dir, site string, iter int, writers []*writerState) {
	t.Helper()
	ch, err := startChild(bin, dir, killSpec(site, hitBudget(site, iter)))
	if err != nil {
		// Child died before serving (a kill during its own recovery).
		// Nothing new was acked; the audit pass still runs.
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < matrixWriters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			hammer(ch.addr, writers[w], uint64(w))
		}(w)
	}
	wg.Wait()
	ch.reap(5 * time.Second)
}

// hammer writes this writer's keys round-robin until the child dies or
// the op budget is spent. Every 16th op goes through the MPUT batch path.
func hammer(addr string, ws *writerState, owner uint64) {
	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		return // child already dead
	}
	defer conn.Close()
	cl := clientOf(conn)
	base := owner*matrixKeysPerOwner + 1
	for op := 0; op < matrixOpsPerRound; op++ {
		if op%16 == 15 {
			// Batch path: 8 keys in one MPUT, one group-commit record.
			var sb strings.Builder
			sb.WriteString("MPUT")
			keys := make([]uint64, 0, 8)
			for j := 0; j < 8; j++ {
				k := base + uint64((op+j)%matrixKeysPerOwner)
				a := ws.maxSent[k] + 1
				ws.maxSent[k] = a
				keys = append(keys, k)
				fmt.Fprintf(&sb, " %d %d", k, k<<32|a)
			}
			reply, err := cl.cmdE(sb.String())
			if err != nil || !strings.HasPrefix(reply, "OK") {
				return
			}
			for _, k := range keys {
				ws.acked[k] = ws.maxSent[k]
			}
			continue
		}
		k := base + uint64(op%matrixKeysPerOwner)
		a := ws.maxSent[k] + 1
		ws.maxSent[k] = a // recorded before the send: an unacked landing is legal
		reply, err := cl.cmdE(fmt.Sprintf("SET %d %d", k, k<<32|a))
		if err != nil || reply != "OK" {
			return
		}
		ws.acked[k] = a
	}
}

// auditRecovery restarts the child clean (no failpoints, no background
// checkpoints) over the crashed directory and checks every owned key
// against the writers' ground truth.
func auditRecovery(t *testing.T, bin, dir string, writers []*writerState, site string, iter int) {
	t.Helper()
	ch, err := startChild(bin, dir, "", "-checkpoint-interval", "-1s")
	if err != nil {
		t.Fatalf("%s iter %d: recovery failed to serve: %v", site, iter, err)
	}
	defer ch.reapKill()
	conn, err := net.DialTimeout("tcp", ch.addr, 2*time.Second)
	if err != nil {
		t.Fatalf("%s iter %d: audit dial: %v", site, iter, err)
	}
	defer conn.Close()
	cl := clientOf(conn)

	present := 0
	for w, ws := range writers {
		base := uint64(w)*matrixKeysPerOwner + 1
		for k := base; k < base+matrixKeysPerOwner; k++ {
			reply, err := cl.cmdE(fmt.Sprintf("GET %d", k))
			if err != nil {
				t.Fatalf("%s iter %d: audit read: %v", site, iter, err)
			}
			acked, wasAcked := ws.acked[k]
			switch {
			case reply == "NIL":
				if wasAcked {
					t.Fatalf("%s iter %d: LOST ACKED WRITE: key %d acked attempt %d, recovered nothing",
						site, iter, k, acked)
				}
			case strings.HasPrefix(reply, "VALUE "):
				present++
				v, perr := strconv.ParseUint(strings.TrimPrefix(reply, "VALUE "), 10, 64)
				if perr != nil {
					t.Fatalf("%s iter %d: unparseable audit value %q", site, iter, reply)
				}
				gotKey, gotAttempt := v>>32, v&0xffffffff
				if gotKey != k {
					t.Fatalf("%s iter %d: GHOST: key %d holds a value belonging to key %d",
						site, iter, k, gotKey)
				}
				if gotAttempt > ws.maxSent[k] {
					t.Fatalf("%s iter %d: GHOST: key %d recovered attempt %d, only %d were ever sent",
						site, iter, k, gotAttempt, ws.maxSent[k])
				}
				if wasAcked && gotAttempt < acked {
					t.Fatalf("%s iter %d: LOST ACKED WRITE: key %d recovered attempt %d < acked %d",
						site, iter, k, gotAttempt, acked)
				}
			default:
				t.Fatalf("%s iter %d: audit GET %d = %q", site, iter, k, reply)
			}
		}
	}
	// Census check: the index holds exactly the keys the sweep saw — a
	// double-apply that manufactured extra entries would show up here.
	lenReply, err := cl.cmdE("LEN")
	if err != nil {
		t.Fatalf("%s iter %d: LEN: %v", site, iter, err)
	}
	if lenReply != fmt.Sprintf("VALUE %d", present) {
		t.Fatalf("%s iter %d: census mismatch: LEN says %q, audit sweep found %d keys",
			site, iter, lenReply, present)
	}
}

// --- child process management ----------------------------------------------

type childProc struct {
	cmd  *exec.Cmd
	addr string
}

// startChild launches the altdb binary over dir, arming fps (empty = no
// failpoints), and waits for its listen line. An error means the child
// died before serving.
func startChild(bin, dir, fps string, extraArgs ...string) (*childProc, error) {
	args := append([]string{
		"-listen", "127.0.0.1:0",
		"-wal-dir", dir,
		"-wal-sync", "always",
		"-wal-segment-bytes", "2048",
		"-checkpoint-interval", "25ms",
	}, extraArgs...)
	cmd := exec.Command(bin, args...)
	cmd.Env = append(os.Environ(), "ALTDB_FAILPOINTS="+fps)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if rest, ok := strings.CutPrefix(line, "altdb listening on "); ok {
				addrCh <- strings.TrimSpace(rest)
			}
		}
		close(addrCh)
	}()
	select {
	case addr, ok := <-addrCh:
		if !ok {
			cmd.Wait()
			return nil, fmt.Errorf("child exited before listening")
		}
		// Keep draining stderr in the scanner goroutine above.
		return &childProc{cmd: cmd, addr: addr}, nil
	case <-time.After(10 * time.Second):
		cmd.Process.Kill()
		cmd.Wait()
		return nil, fmt.Errorf("child never printed its listen line")
	}
}

// reap waits for the child to die on its own (the armed kill); if it
// outlives the timeout the harness kills it — still a kill -9 at an
// arbitrary point, which the audit must survive too.
func (c *childProc) reap(timeout time.Duration) {
	done := make(chan struct{})
	go func() {
		c.cmd.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(timeout):
		c.cmd.Process.Kill()
		<-done
	}
}

// reapKill kills the (clean, write-free) audit child immediately.
func (c *childProc) reapKill() {
	c.cmd.Process.Kill()
	c.cmd.Wait()
}

// buildAltdb compiles the server binary once for the whole matrix.
func buildAltdb(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "altdb")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("building altdb: %v\n%s", err, out)
	}
	return bin
}
