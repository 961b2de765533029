// Command altdb serves a tiny in-memory key/value database over TCP, with
// ALT-index underneath — a minimal "memory database system" in the paper's
// sense, hardened for unattended operation: per-connection deadlines, a
// connection cap with accept backpressure, per-connection panic containment,
// graceful drain on SIGINT/SIGTERM, and (with -wal-dir) full durability:
// group-committed write-ahead logging, checkpoints that write a full base
// snapshot while writes keep flowing, and crash recovery that preserves
// every acknowledged write. Without -wal-dir the keyspace lives only in
// memory and is gone when the process exits.
//
// The network hot path is pipelined: replies are flushed once per socket
// wakeup rather than once per command, runs of point commands go through
// the index's batched fast path, and above -coalesce-conns concurrent
// connections the runs of different connections coalesce into shared
// batches (see internal/server and internal/opsched).
//
// Protocol: one command per line, space-separated, replies are single
// lines ("OK", "VALUE <v>", "NIL", "ERR <CODE> <detail>", or multi-line
// scans terminated by "END").
//
//	SET <key> <value>          store/overwrite
//	GET <key>                  read
//	DEL <key>                  delete
//	MGET <key> [key ...]       batched read (max 4096 keys)
//	MPUT <k> <v> [k v ...]     batched upsert (max 4096 pairs)
//	SCAN <start> <n>           up to n pairs with key >= start
//	LEN                        number of keys
//	STATS                      engine internals
//	QUIT
//
// Start with:  go run ./cmd/altdb -listen 127.0.0.1:7700 -wal-dir ./data
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"altindex/internal/failpoint"
	"altindex/internal/server"
)

func main() {
	var (
		listen        = flag.String("listen", "127.0.0.1:7700", "address to listen on")
		maxConns      = flag.Int("max-conns", 256, "max concurrent connections (excess dials wait in the accept backlog)")
		readTimeout   = flag.Duration("read-timeout", 5*time.Minute, "per-request read deadline")
		writeTimeout  = flag.Duration("write-timeout", 30*time.Second, "per-reply write deadline")
		drainTimeout  = flag.Duration("drain-timeout", 10*time.Second, "graceful-shutdown drain bound")
		coalesceConns = flag.Int("coalesce-conns", 0, "connection count at which cross-connection op coalescing engages (0 = 8, negative disables)")
		walDir        = flag.String("wal-dir", "", "durability directory: write-ahead log + full-base checkpoints; writes ack only after commit")
		walSync       = flag.String("wal-sync", "always", "WAL commit point: always (fsync per group commit), interval, none")
		walSegBytes   = flag.Int64("wal-segment-bytes", 0, "WAL segment size cap in bytes (0 = 64 MiB)")
		ckptInterval  = flag.Duration("checkpoint-interval", 0, "how often to check whether the log has grown to the last base's size and write a new base (0 = 15s, negative disables)")
	)
	flag.Parse()

	// ALTDB_FAILPOINTS arms fault-injection sites before anything touches
	// disk: "site=spec[;site=spec...]", e.g. "wal/sync=2*off->kill". This is
	// how the crash-matrix harness makes a child die at an exact durability
	// edge.
	if env := os.Getenv("ALTDB_FAILPOINTS"); env != "" {
		for _, part := range strings.Split(env, ";") {
			site, spec, ok := strings.Cut(strings.TrimSpace(part), "=")
			if !ok {
				log.Fatalf("event=bad_failpoint_env entry=%q", part)
			}
			if err := failpoint.Enable(site, spec); err != nil {
				log.Fatalf("event=bad_failpoint_env entry=%q error=%q", part, err.Error())
			}
		}
	}

	srv, err := server.NewServerWith(server.Config{
		MaxConns:           *maxConns,
		ReadTimeout:        *readTimeout,
		WriteTimeout:       *writeTimeout,
		DrainTimeout:       *drainTimeout,
		CoalesceConns:      *coalesceConns,
		WALDir:             *walDir,
		WALSync:            *walSync,
		WALSegmentBytes:    *walSegBytes,
		CheckpointInterval: *ckptInterval,
	})
	if err != nil {
		log.Fatal(err)
	}
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "altdb listening on %s\n", ln.Addr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	shutdownErr := make(chan error, 1)
	go func() {
		got := <-sig
		fmt.Fprintf(os.Stderr, "altdb: %v: draining\n", got)
		shutdownErr <- srv.Shutdown()
	}()

	if err := srv.Serve(ln); err != server.ErrServerClosed {
		log.Fatal(err)
	}
	// Serve returned because the signal handler started Shutdown; wait for
	// the drain and (with -wal-dir) the final checkpoint to finish. A failed
	// shutdown means the on-disk state may lag the served state — report it
	// structured and exit non-zero so supervisors and operators see it,
	// instead of a silent success.
	if err := <-shutdownErr; err != nil {
		log.Printf("event=shutdown_failed error=%q", err.Error())
		os.Exit(1)
	}
}
