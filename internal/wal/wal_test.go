package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

func openT(t *testing.T, dir string, opts Options) *Log {
	t.Helper()
	l, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return l
}

func replayAll(t *testing.T, l *Log, after uint64) []record {
	t.Helper()
	var recs []record
	n, err := l.Replay(after, func(seq uint64, payload []byte) error {
		recs = append(recs, record{seq: seq, payload: append([]byte(nil), payload...)})
		return nil
	})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if n != len(recs) {
		t.Fatalf("Replay reported %d records, delivered %d", n, len(recs))
	}
	return recs
}

func TestCommitReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, Options{})
	const n = 500
	for i := 0; i < n; i++ {
		seq, err := l.Commit([]byte(fmt.Sprintf("record-%04d", i)))
		if err != nil {
			t.Fatalf("Commit %d: %v", i, err)
		}
		if seq != uint64(i+1) {
			t.Fatalf("Commit %d assigned seq %d, want dense %d", i, seq, i+1)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2 := openT(t, dir, Options{})
	defer l2.Close()
	recs := replayAll(t, l2, 0)
	if len(recs) != n {
		t.Fatalf("replayed %d records, want %d", len(recs), n)
	}
	for i, r := range recs {
		if r.seq != uint64(i+1) || string(r.payload) != fmt.Sprintf("record-%04d", i) {
			t.Fatalf("record %d = (%d, %q)", i, r.seq, r.payload)
		}
	}
	// Replay from an offset skips the prefix.
	if got := replayAll(t, l2, 400); len(got) != 100 || got[0].seq != 401 {
		t.Fatalf("Replay(400) = %d records from %d", len(got), got[0].seq)
	}
}

// TestGroupCommit drives many concurrent committers under SyncAlways and
// asserts the committer coalesced them: every commit is durable, yet the
// fsync count is well below the commit count (the whole point of group
// commit).
func TestGroupCommit(t *testing.T) {
	l := openT(t, t.TempDir(), Options{Sync: SyncAlways})
	defer l.Close()
	const writers, perWriter = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if _, err := l.Commit([]byte{byte(w), byte(i)}); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	st := l.Stats()
	if st.Appends != writers*perWriter {
		t.Fatalf("appends = %d, want %d", st.Appends, writers*perWriter)
	}
	if st.DurableSeq != uint64(writers*perWriter) {
		t.Fatalf("durable = %d, want %d", st.DurableSeq, writers*perWriter)
	}
	if st.Fsyncs >= st.Appends {
		t.Fatalf("fsyncs (%d) not below commits (%d): group commit is not grouping", st.Fsyncs, st.Appends)
	}
	t.Logf("group commit: %d commits, %d fsyncs (%.1fx amortization)",
		st.Appends, st.Fsyncs, float64(st.Appends)/float64(st.Fsyncs))
}

func TestSyncPolicies(t *testing.T) {
	for _, pol := range []SyncPolicy{SyncAlways, SyncInterval, SyncNone} {
		t.Run(pol.String(), func(t *testing.T) {
			dir := t.TempDir()
			l := openT(t, dir, Options{Sync: pol, Interval: 5 * time.Millisecond})
			for i := 0; i < 100; i++ {
				if _, err := l.Commit([]byte{byte(i)}); err != nil {
					t.Fatal(err)
				}
			}
			if err := l.Sync(); err != nil {
				t.Fatal(err)
			}
			if got := l.DurableSeq(); got != 100 {
				t.Fatalf("after Sync, durable = %d, want 100", got)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			l2 := openT(t, dir, Options{})
			defer l2.Close()
			if got := replayAll(t, l2, 0); len(got) != 100 {
				t.Fatalf("policy %v lost records: replayed %d/100", pol, len(got))
			}
		})
	}
}

func TestParseSyncPolicy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want SyncPolicy
	}{{"always", SyncAlways}, {"interval", SyncInterval}, {"none", SyncNone}} {
		got, err := ParseSyncPolicy(tc.in)
		if err != nil || got != tc.want {
			t.Fatalf("ParseSyncPolicy(%q) = %v, %v", tc.in, got, err)
		}
	}
	if _, err := ParseSyncPolicy("fsync-sometimes"); err == nil {
		t.Fatal("bad policy accepted")
	}
}

// TestRotationAndTruncation forces tiny segments, checks records span
// them, then truncates below a checkpoint LSN and verifies exactly the
// right files disappear while replay still works from the LSN.
func TestRotationAndTruncation(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, Options{SegmentBytes: 256})
	payload := bytes.Repeat([]byte{0xAB}, 48)
	const n = 40
	for i := 0; i < n; i++ {
		if _, err := l.Commit(payload); err != nil {
			t.Fatal(err)
		}
	}
	st := l.Stats()
	if st.Segments < 3 {
		t.Fatalf("only %d segments after %d oversized records (SegmentBytes=256)", st.Segments, n)
	}

	const lsn = 25
	if err := l.TruncateBelow(lsn + 1); err != nil {
		t.Fatal(err)
	}
	st2 := l.Stats()
	if st2.Truncations == 0 {
		t.Fatal("truncation removed nothing")
	}
	if st2.Segments >= st.Segments {
		t.Fatalf("segments %d -> %d after truncation", st.Segments, st2.Segments)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2 := openT(t, dir, Options{})
	defer l2.Close()
	recs := replayAll(t, l2, lsn)
	if len(recs) != n-lsn {
		t.Fatalf("replayed %d records after LSN %d, want %d", len(recs), lsn, n-lsn)
	}
	if recs[0].seq != lsn+1 || recs[len(recs)-1].seq != n {
		t.Fatalf("replay covers [%d,%d], want [%d,%d]", recs[0].seq, recs[len(recs)-1].seq, lsn+1, n)
	}
}

// TestTornTailTolerated truncates the last segment at every byte offset
// inside its final record and asserts reopen succeeds, reports the torn
// bytes, and replays exactly the intact prefix — the kill -9 shape.
func TestTornTailTolerated(t *testing.T) {
	build := func(t *testing.T) (string, string, int64) {
		dir := t.TempDir()
		l := openT(t, dir, Options{})
		for i := 0; i < 10; i++ {
			if _, err := l.Commit([]byte(fmt.Sprintf("payload-%d", i))); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		segs, err := listSegments(dir)
		if err != nil || len(segs) == 0 {
			t.Fatalf("listSegments: %v (%d)", err, len(segs))
		}
		last := segs[len(segs)-1].path
		fi, err := os.Stat(last)
		if err != nil {
			t.Fatal(err)
		}
		return dir, last, fi.Size()
	}

	// One record is 16 (frame) + 9 (payload) bytes; cut at every offset
	// inside the final record, including mid-header and mid-payload.
	_, _, full := build(t)
	recBytes := int64(FrameHeader + len("payload-9"))
	for cut := full - recBytes; cut < full; cut++ {
		dir, last, size := build(t)
		if size != full {
			t.Fatalf("unstable build size %d vs %d", size, full)
		}
		if err := os.Truncate(last, cut); err != nil {
			t.Fatal(err)
		}
		l, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("cut at %d: reopen failed: %v", cut, err)
		}
		st := l.Stats()
		wantTorn := cut - (full - recBytes)
		if st.TruncatedTailBytes != wantTorn {
			t.Fatalf("cut at %d: torn bytes %d, want %d", cut, st.TruncatedTailBytes, wantTorn)
		}
		recs := replayAll(t, l, 0)
		if len(recs) != 9 {
			t.Fatalf("cut at %d: replayed %d records, want 9 intact", cut, len(recs))
		}
		// The next generation keeps appending and stays consistent.
		if _, err := l.Commit([]byte("next-gen")); err != nil {
			t.Fatal(err)
		}
		l.Close()
		l2 := openT(t, dir, Options{})
		if got := replayAll(t, l2, 0); len(got) != 10 || string(got[9].payload) != "next-gen" {
			t.Fatalf("cut at %d: post-recovery log replays %d records", cut, len(got))
		}
		l2.Close()
	}
}

// TestBitFlipDetected flips bytes across a sealed segment: a flip in a
// record's span must surface as a shorter replay (tail treated as torn,
// never garbage delivered) or a corruption error — never a silently
// altered payload.
func TestBitFlipDetected(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, Options{})
	want := make(map[uint64]string)
	for i := 0; i < 8; i++ {
		p := fmt.Sprintf("payload-%d", i)
		seq, err := l.Commit([]byte(p))
		if err != nil {
			t.Fatal(err)
		}
		want[seq] = p
	}
	l.Close()
	segs, _ := listSegments(dir)
	path := segs[0].path
	pristine, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for off := segHeaderSize; off < len(pristine); off += 7 {
		mut := append([]byte(nil), pristine...)
		mut[off] ^= 0x40
		if err := os.WriteFile(path, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := Open(dir, Options{})
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("flip at %d: unexpected error class %v", off, err)
			}
			continue
		}
		for _, r := range replayAll(t, l, 0) {
			if want[r.seq] != string(r.payload) {
				t.Fatalf("flip at %d: replay delivered corrupted payload %q for seq %d", off, r.payload, r.seq)
			}
		}
		l.Close()
		// Restore for the next flip (Open rotated a fresh tail segment;
		// remove it so the next iteration sees only the mutated file).
		now, _ := listSegments(dir)
		for _, s := range now {
			if s.path != path {
				os.Remove(s.path)
			}
		}
		if err := os.WriteFile(path, pristine, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestMissingSegmentRefusesLoad deletes a middle segment: the gap must be
// ErrCorrupt, not a silent hole in history.
func TestMissingSegmentRefusesLoad(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, Options{SegmentBytes: 128})
	for i := 0; i < 30; i++ {
		if _, err := l.Commit(bytes.Repeat([]byte{1}, 40)); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	segs, _ := listSegments(dir)
	if len(segs) < 3 {
		t.Fatalf("want ≥3 segments, got %d", len(segs))
	}
	os.Remove(segs[1].path)
	if _, err := Open(dir, Options{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("gap in segments loaded: %v", err)
	}
}

// TestForeignFileRefusesLoad: a full-sized file with the segment naming
// but wrong magic is someone else's data, not a torn header.
func TestForeignFileRefusesLoad(t *testing.T) {
	dir := t.TempDir()
	junk := make([]byte, 64)
	copy(junk, "definitely-not-a-wal-segment-header")
	if err := os.WriteFile(filepath.Join(dir, "wal-0000000000000001.seg"), junk, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("foreign file loaded: %v", err)
	}
}

// TestTornHeaderTolerated: a crash during segment creation leaves a file
// shorter than the header; reopen must tolerate it (it can hold no
// records) and keep the sequence intact.
func TestTornHeaderTolerated(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, Options{})
	for i := 0; i < 5; i++ {
		if _, err := l.Commit([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	// Simulate the crash: a half-written header for the would-be next
	// segment (firstSeq 6).
	if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("wal-%016x.seg", 6)), segMagic[:5], 0o644); err != nil {
		t.Fatal(err)
	}
	l2 := openT(t, dir, Options{})
	defer l2.Close()
	if st := l2.Stats(); st.TruncatedTailBytes != 5 {
		t.Fatalf("torn header bytes = %d, want 5", st.TruncatedTailBytes)
	}
	if got := replayAll(t, l2, 0); len(got) != 5 {
		t.Fatalf("replayed %d records, want 5", len(got))
	}
	if seq, err := l2.Commit([]byte("resume")); err != nil || seq != 6 {
		t.Fatalf("post-recovery commit = (%d, %v), want seq 6", seq, err)
	}
}

// TestCloseIsDurable: records committed under SyncNone are on disk after
// Close (the final drain fsyncs), so a clean shutdown never loses data.
func TestCloseIsDurable(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, Options{Sync: SyncNone})
	for i := 0; i < 50; i++ {
		if _, err := l.Commit([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2 := openT(t, dir, Options{})
	defer l2.Close()
	if got := replayAll(t, l2, 0); len(got) != 50 {
		t.Fatalf("clean close lost records: %d/50", len(got))
	}
}

func TestClosedLogRefusesWork(t *testing.T) {
	l := openT(t, t.TempDir(), Options{})
	l.Close()
	if _, err := l.Append([]byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("Append on closed log: %v", err)
	}
	if _, err := l.Commit([]byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("Commit on closed log: %v", err)
	}
}

// TestLastSeqIsCheckpointSafe: LastSeq must cover every record already
// appended, so a checkpoint at that LSN plus replay above it never loses
// anything.
func TestLastSeqIsCheckpointSafe(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, Options{})
	for i := 0; i < 20; i++ {
		if _, err := l.Commit([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	lsn := l.LastSeq()
	if lsn != 20 {
		t.Fatalf("LastSeq = %d, want 20", lsn)
	}
	for i := 0; i < 5; i++ {
		if _, err := l.Commit([]byte{0xFF, byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	l2 := openT(t, dir, Options{})
	defer l2.Close()
	if got := replayAll(t, l2, lsn); len(got) != 5 {
		t.Fatalf("replay above checkpoint LSN = %d records, want 5", len(got))
	}
}

// sanity-check the frame encoder against the reader's expectations.
func TestFrameRoundTrip(t *testing.T) {
	buf := appendFrame(nil, 7, []byte("hello"))
	if len(buf) != FrameHeader+5 {
		t.Fatalf("frame length %d", len(buf))
	}
	if binary.LittleEndian.Uint32(buf[0:4]) != 5 {
		t.Fatal("length field wrong")
	}
	if binary.LittleEndian.Uint64(buf[8:16]) != 7 {
		t.Fatal("seq field wrong")
	}
}

// FuzzReplay feeds one arbitrary segment file to the recovery reader —
// scan (what Open runs) then Replay. The log directory is outside input:
// whatever it holds, recovery returns an error or a dense run of records
// whose payloads lie inside the file, and never panics or sizes an
// allocation by a length field it has not checked against the file.
func FuzzReplay(f *testing.F) {
	seg := append(segMagic[:], 5, 0, 0, 0, 0, 0, 0, 0) // firstSeq 5
	seg = appendFrame(seg, 5, []byte("five"))
	seg = appendFrame(seg, 6, nil)
	seg = appendFrame(seg, 7, bytes.Repeat([]byte{7}, 40))
	f.Add(seg)
	f.Add(seg[:len(seg)-9])                                              // torn tail
	f.Add(seg[:11])                                                      // torn header
	f.Add(append(append([]byte{}, seg[:16]...), 0xff, 0xff, 0xff, 0xff)) // length past the file
	f.Add(appendFrame(append([]byte{}, seg...), 9, []byte("gap")))       // valid frame, wrong seq
	dir := f.TempDir()                                                   // one per fuzz worker process; each run removes its file
	f.Fuzz(func(t *testing.T, raw []byte) {
		// The file name carries the first sequence number too; take it
		// from the header so well-formed inputs get past the name check.
		first := uint64(1)
		if len(raw) >= segHeaderSize {
			first = binary.LittleEndian.Uint64(raw[8:16])
		}
		path := filepath.Join(dir, fmt.Sprintf("%s%016x%s", segPrefix, first, segSuffix))
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		defer os.Remove(path)
		l := &Log{dir: dir}
		if err := l.scan(); err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("scan failed outside ErrCorrupt: %v", err)
			}
			return
		}
		l.recovery = l.segs
		next, bytesSeen := uint64(0), 0
		n, err := l.Replay(0, func(seq uint64, payload []byte) error {
			if next != 0 && seq != next {
				t.Fatalf("replay jumped from seq %d to %d", next-1, seq)
			}
			next = seq + 1
			bytesSeen += FrameHeader + len(payload)
			return nil
		})
		if err != nil {
			t.Fatalf("scan accepted what Replay rejects: %v", err)
		}
		if n > 0 && next-1 != l.lastSeq {
			t.Fatalf("replay ended at seq %d, scan says %d", next-1, l.lastSeq)
		}
		if bytesSeen+int(l.tornTail) > len(raw) {
			t.Fatalf("%d record bytes + %d torn bytes out of a %d-byte file", bytesSeen, l.tornTail, len(raw))
		}
	})
}
