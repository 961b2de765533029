package wal

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"altindex/internal/fsys"
)

var errDiskGone = errors.New("disk gone")

// failCalls fails, through the file-system seam, every call of op after
// the first skip ones, until the test ends or the returned func is called.
func failCalls(t *testing.T, op fsys.Op, skip int64) (restore func()) {
	var seen atomic.Int64
	restore = fsys.SetHook(func(c fsys.Call) error {
		if c.Op == op && seen.Add(1) > skip {
			return errDiskGone
		}
		return nil
	})
	t.Cleanup(restore)
	return restore
}

// TestWriteFaultWedgesLog: a failed segment write or fsync wedges the
// log — the failing commit and every later one return an error, so the
// engine above can never ack a write whose record was dropped. The
// records committed before the failure stay replayable.
func TestWriteFaultWedgesLog(t *testing.T) {
	for name, op := range map[string]fsys.Op{"write": fsys.OpWrite, "sync": fsys.OpSync} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			l := openT(t, dir, Options{Sync: SyncAlways})
			for i := 0; i < 10; i++ {
				if _, err := l.Commit([]byte{byte(i)}); err != nil {
					t.Fatal(err)
				}
			}
			restore := failCalls(t, op, 0)
			if _, err := l.Commit([]byte("doomed")); !errors.Is(err, errDiskGone) {
				t.Fatalf("commit across a failed %s = %v, want the fault", name, err)
			}
			restore()
			if _, err := l.Commit([]byte("after")); err == nil {
				t.Fatal("wedged log accepted a new commit")
			}
			l.Close()

			l2 := openT(t, dir, Options{})
			defer l2.Close()
			n, err := l2.Replay(0, func(seq uint64, p []byte) error {
				if seq <= 10 && len(p) != 1 {
					return fmt.Errorf("prefix record %d corrupted", seq)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if n < 10 {
				t.Fatalf("pre-failure records lost: %d/10 replayed", n)
			}
		})
	}
}

// TestRotateFaultWedgesLog: a rotation whose new segment cannot be
// created wedges the log rather than splitting history across a
// half-created segment.
func TestRotateFaultWedgesLog(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, Options{SegmentBytes: 128})
	restore := failCalls(t, fsys.OpCreate, 0)
	// Keep committing until a rotation is due (the first commit fits in
	// the segment Open created).
	var failedAt int
	for i := 0; i < 100; i++ {
		if _, err := l.Commit(bytes.Repeat([]byte{2}, 60)); err != nil {
			failedAt = i
			break
		}
	}
	if failedAt == 0 {
		t.Fatal("rotation failure never surfaced")
	}
	if _, err := l.Commit([]byte("after")); err == nil {
		t.Fatal("wedged log accepted a commit after rotate failure")
	}
	l.Close()
	restore()

	l2 := openT(t, dir, Options{})
	defer l2.Close()
	n, err := l2.Replay(0, func(uint64, []byte) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if n < failedAt {
		t.Fatalf("replay found %d records, %d were acked before the failure", n, failedAt)
	}
}

// TestTruncateFaultLeavesSuffix: a truncation that fails between segment
// removals leaves a clean prefix-removed state that reopens fine.
func TestTruncateFaultLeavesSuffix(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, Options{SegmentBytes: 128})
	const n = 40
	for i := 0; i < n; i++ {
		if _, err := l.Commit(bytes.Repeat([]byte{3}, 40)); err != nil {
			t.Fatal(err)
		}
	}
	if l.Stats().Segments < 4 {
		t.Fatalf("need ≥4 segments, have %d", l.Stats().Segments)
	}
	restore := failCalls(t, fsys.OpRemove, 1)
	err := l.TruncateBelow(uint64(n))
	restore()
	if !errors.Is(err, errDiskGone) {
		t.Fatalf("failed removal not surfaced: %v", err)
	}
	l.Close()

	// The partially truncated log still reopens and replays its suffix —
	// the audit invariant is only that no live record disappeared.
	l2 := openT(t, dir, Options{})
	defer l2.Close()
	last := uint64(0)
	if _, err := l2.Replay(0, func(seq uint64, _ []byte) error {
		last = seq
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if last != n {
		t.Fatalf("newest record after torn truncation = %d, want %d", last, n)
	}
}

// TestTruncateFaultKeepsSegmentsListed: a segment leaves the log's list
// only once its removal is durable, so after a failed removal the list
// still matches the files on disk and the next truncation removes the rest.
func TestTruncateFaultKeepsSegmentsListed(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, Options{SegmentBytes: 128})
	defer l.Close()
	const n = 40
	for i := 0; i < n; i++ {
		if _, err := l.Commit(bytes.Repeat([]byte{3}, 40)); err != nil {
			t.Fatal(err)
		}
	}
	onDisk := func() int64 {
		segs, err := filepath.Glob(filepath.Join(dir, "*"+segSuffix))
		if err != nil {
			t.Fatal(err)
		}
		return int64(len(segs))
	}
	before := onDisk()
	restore := failCalls(t, fsys.OpRemove, 1)
	err := l.TruncateBelow(n)
	restore()
	if !errors.Is(err, errDiskGone) {
		t.Fatalf("failed removal not surfaced: %v", err)
	}
	if got, files := l.Stats().Segments, onDisk(); got != files || files != before-1 {
		t.Fatalf("after a failed removal the log lists %d segments, %d of %d files are left; want one removed and every file listed", got, files, before)
	}
	if err := l.TruncateBelow(n); err != nil {
		t.Fatal(err)
	}
	if got, files := l.Stats().Segments, onDisk(); got != 1 || files != 1 {
		t.Fatalf("the retry left %d listed segments and %d files, want the active one", got, files)
	}
}

// TestWedgeUnblocksConcurrentWaiters: writers parked in WaitDurable when
// the disk dies must all wake with the error instead of hanging.
func TestWedgeUnblocksConcurrentWaiters(t *testing.T) {
	l := openT(t, t.TempDir(), Options{Sync: SyncAlways})
	defer l.Close()
	failCalls(t, fsys.OpSync, 0)
	var wg sync.WaitGroup
	errs := make([]error, 16)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = l.Commit([]byte{byte(i)})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, errDiskGone) {
			t.Fatalf("writer %d got %v, want the disk fault", i, err)
		}
	}
}
