package main

// The kill -9 smoke: an external harness builds the real altdb binary,
// runs it over a data directory while concurrent writers hammer it over
// TCP, and SIGKILLs it from outside mid-stream. After each kill it
// restarts the child over the same directory and audits the recovered
// state against what the writers observed:
//
//   - no lost acked writes:  a key whose SET was answered "OK" holds an
//     attempt at least as new as the last acked one,
//   - no ghosts:             every recovered value decodes to its owning
//     key and to an attempt that was actually sent,
//   - no double-applies:     the key census matches the audit sweep.
//
// Values encode provenance as key<<32 | attempt, with each key owned by
// exactly one writer, so every recovered bit is attributable. State
// accumulates across the kills: each recovery chains onto the survivors
// of the previous crash. Where in the durability protocol a crash lands
// is the crash-state enumerator's subject (internal/server,
// TestCrashImages), which builds every image a kill or a power loss can
// leave at every call that changes the disk; this run checks that the
// real process, its signals and its sockets keep the same promise.

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

const (
	matrixWriters      = 4
	matrixKeysPerOwner = 48
	matrixKills        = 3
)

// writerState is one writer's ground truth, disjoint keys per writer so
// no locking is needed.
type writerState struct {
	acked   map[uint64]uint64 // key -> last acknowledged attempt
	maxSent map[uint64]uint64 // key -> highest attempt ever sent
}

// TestCrashMatrix runs the smoke once per -wal-sync policy: both promise
// that an acked write survives kill -9.
func TestCrashMatrix(t *testing.T) {
	bin := buildAltdb(t)
	for _, policy := range []string{"always", "none"} {
		t.Run(policy, func(t *testing.T) {
			dir := t.TempDir()
			writers := make([]*writerState, matrixWriters)
			for w := range writers {
				writers[w] = &writerState{acked: map[uint64]uint64{}, maxSent: map[uint64]uint64{}}
			}
			for iter := 0; iter < matrixKills; iter++ {
				runCrashIteration(t, bin, dir, iter, writers, "-wal-sync", policy)
				auditRecovery(t, bin, dir, writers, iter, "-wal-sync", policy)
			}
		})
	}
}

// TestDeletedSyncPolicyRefused: -wal-sync interval names a deleted policy;
// altdb exits at startup, naming the policies that remain, and leaves
// the data directory empty.
func TestDeletedSyncPolicyRefused(t *testing.T) {
	bin := buildAltdb(t)
	dir := t.TempDir()
	out, err := exec.Command(bin, "-listen", "127.0.0.1:0", "-wal-dir", dir, "-wal-sync", "interval").CombinedOutput()
	if err == nil || !strings.Contains(string(out), "always, none") {
		t.Fatalf("altdb -wal-sync interval: %v, output %q; want a startup refusal naming always and none", err, out)
	}
	if ents, _ := os.ReadDir(dir); len(ents) > 0 {
		t.Fatalf("the refused start left %d entries in the data directory", len(ents))
	}
}

// runCrashIteration starts a child over dir, lets the writers hammer it
// and SIGKILLs it while they run; each kill lands later than the last,
// so the runs cross background checkpoints.
func runCrashIteration(t *testing.T, bin, dir string, iter int, writers []*writerState, args ...string) {
	t.Helper()
	ch, err := startChild(bin, dir, args...)
	if err != nil {
		t.Fatalf("iter %d: child failed to serve: %v", iter, err)
	}
	var wg sync.WaitGroup
	for w := 0; w < matrixWriters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			hammer(ch.addr, writers[w], uint64(w))
		}(w)
	}
	time.Sleep(time.Duration(100+100*iter) * time.Millisecond)
	ch.reapKill()
	wg.Wait()
}

// hammer writes this writer's keys round-robin until the child dies.
// Every 16th op goes through the MPUT batch path.
func hammer(addr string, ws *writerState, owner uint64) {
	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		return // child already dead
	}
	defer conn.Close()
	cl := clientOf(conn)
	base := owner*matrixKeysPerOwner + 1
	for op := 0; ; op++ {
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

// auditRecovery restarts the child (no background checkpoints) over the
// crashed directory and checks every owned key against the writers'
// ground truth.
func auditRecovery(t *testing.T, bin, dir string, writers []*writerState, iter int, args ...string) {
	t.Helper()
	ch, err := startChild(bin, dir, append(args, "-checkpoint-interval", "-1s")...)
	if err != nil {
		t.Fatalf("iter %d: recovery failed to serve: %v", iter, err)
	}
	defer ch.reapKill()
	conn, err := net.DialTimeout("tcp", ch.addr, 2*time.Second)
	if err != nil {
		t.Fatalf("iter %d: audit dial: %v", iter, err)
	}
	defer conn.Close()
	cl := clientOf(conn)

	present, ackedKeys := 0, 0
	for w, ws := range writers {
		ackedKeys += len(ws.acked)
		base := uint64(w)*matrixKeysPerOwner + 1
		for k := base; k < base+matrixKeysPerOwner; k++ {
			reply, err := cl.cmdE(fmt.Sprintf("GET %d", k))
			if err != nil {
				t.Fatalf("iter %d: audit read: %v", iter, err)
			}
			acked, wasAcked := ws.acked[k]
			switch {
			case reply == "NIL":
				if wasAcked {
					t.Fatalf("iter %d: LOST ACKED WRITE: key %d acked attempt %d, recovered nothing", iter, k, acked)
				}
			case strings.HasPrefix(reply, "VALUE "):
				present++
				v, perr := strconv.ParseUint(strings.TrimPrefix(reply, "VALUE "), 10, 64)
				if perr != nil {
					t.Fatalf("iter %d: unparseable audit value %q", iter, reply)
				}
				gotKey, gotAttempt := v>>32, v&0xffffffff
				if gotKey != k {
					t.Fatalf("iter %d: GHOST: key %d holds a value belonging to key %d", iter, k, gotKey)
				}
				if gotAttempt > ws.maxSent[k] {
					t.Fatalf("iter %d: GHOST: key %d recovered attempt %d, only %d were ever sent", iter, k, gotAttempt, ws.maxSent[k])
				}
				if wasAcked && gotAttempt < acked {
					t.Fatalf("iter %d: LOST ACKED WRITE: key %d recovered attempt %d < acked %d", iter, k, gotAttempt, acked)
				}
			default:
				t.Fatalf("iter %d: audit GET %d = %q", iter, k, reply)
			}
		}
	}
	if ackedKeys == 0 {
		t.Fatalf("iter %d: no write was acked before the kill, so the audit proves nothing", iter)
	}
	// Census check: the index holds exactly the keys the sweep saw — a
	// double-apply that manufactured extra entries would show up here.
	lenReply, err := cl.cmdE("LEN")
	if err != nil {
		t.Fatalf("iter %d: LEN: %v", iter, err)
	}
	if lenReply != fmt.Sprintf("VALUE %d", present) {
		t.Fatalf("iter %d: census mismatch: LEN says %q, audit sweep found %d keys", iter, lenReply, present)
	}
}

// --- child process management ----------------------------------------------

type childProc struct {
	cmd  *exec.Cmd
	addr string
}

// startChild launches the altdb binary over dir and waits for its listen
// line. An error means the child died before serving.
func startChild(bin, dir string, extraArgs ...string) (*childProc, error) {
	args := append([]string{
		"-listen", "127.0.0.1:0",
		"-wal-dir", dir,
		"-wal-sync", "always",
		"-wal-segment-bytes", "2048",
		"-checkpoint-interval", "25ms",
	}, extraArgs...)
	cmd := exec.Command(bin, args...)
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

// reapKill SIGKILLs the child and waits for it.
func (c *childProc) reapKill() {
	c.cmd.Process.Kill()
	c.cmd.Wait()
}

// buildAltdb compiles the server binary once for the whole run.
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
