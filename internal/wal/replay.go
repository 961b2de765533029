package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// scan walks every segment in the directory at Open time, validates the
// record chain and records where it ends. The rules:
//
//   - segments must form one dense sequence: each segment's header
//     firstSeq equals the previous segment's last valid seq + 1;
//   - a torn tail (short frame, impossible length, CRC mismatch, or a
//     partially-written segment header) is tolerated at the point where a
//     crash could have left it — the end of any segment — iff the next
//     segment, when one exists, continues the sequence exactly (that is
//     the crash-then-rotate-on-recovery shape). The torn bytes are
//     counted, never parsed;
//   - a valid frame whose seq breaks the sequence, a foreign file, or a
//     gap between segments is ErrCorrupt: better to refuse startup than
//     to silently drop acked history.
func (l *Log) scan() error {
	names, err := listSegments(l.dir)
	if err != nil {
		return err
	}
	expect := uint64(0) // last valid seq seen; 0 = none yet
	for i, sm := range names {
		res, err := scanSegment(sm.path)
		if err != nil {
			return err
		}
		if res.headerTorn {
			// A crash mid-creation. Only the newest segment can be
			// half-created, so anything after it is a hole.
			if i != len(names)-1 {
				return fmt.Errorf("%w: %s has a torn header but is not the last segment", ErrCorrupt, sm.path)
			}
			l.tornTail += res.tornBytes
			break
		}
		if res.firstSeq != sm.firstSeq {
			return fmt.Errorf("%w: %s header says first seq %d, name says %d", ErrCorrupt, sm.path, res.firstSeq, sm.firstSeq)
		}
		if expect != 0 && res.firstSeq != expect+1 {
			return fmt.Errorf("%w: %s starts at seq %d, want %d (missing segment?)", ErrCorrupt, sm.path, res.firstSeq, expect+1)
		}
		if res.count > 0 {
			expect = res.firstSeq + uint64(res.count) - 1
		} else {
			expect = res.firstSeq - 1
		}
		l.tornTail += res.tornBytes
		if res.badSeq {
			return fmt.Errorf("%w: %s record sequence broken", ErrCorrupt, sm.path)
		}
		l.segs = append(l.segs, sm)
	}
	l.lastSeq = expect
	return nil
}

// Replay streams every recovered record with seq > after, in order, to
// fn. It reads the segments that existed when the log was opened —
// records appended afterwards are the new generation's and are not
// replayed. Call it once, before appending. A non-nil error from fn
// aborts and is returned; the int is the number of records delivered.
func (l *Log) Replay(after uint64, fn func(seq uint64, payload []byte) error) (int, error) {
	n := 0
	for _, sm := range l.recovery {
		res, err := scanSegment(sm.path)
		if err != nil {
			return n, err
		}
		if res.headerTorn {
			break
		}
		for _, rec := range res.records {
			if rec.seq <= after {
				continue
			}
			if err := fn(rec.seq, rec.payload); err != nil {
				return n, err
			}
			n++
		}
	}
	return n, nil
}

type record struct {
	seq     uint64
	payload []byte
}

type segScan struct {
	firstSeq   uint64
	count      int
	records    []record
	tornBytes  int64
	headerTorn bool
	badSeq     bool
}

// scanSegment parses one segment file fully, stopping at the first frame
// that cannot be a complete record (the torn tail).
func scanSegment(path string) (segScan, error) {
	var out segScan
	raw, err := os.ReadFile(path)
	if err != nil {
		return out, err
	}
	if len(raw) < segHeaderSize || [8]byte(raw[:8]) != segMagic {
		// Half-written header (or an empty file) from a crash during
		// segment creation; a full header with wrong magic is a foreign
		// file and refuses to load.
		if len(raw) >= segHeaderSize {
			return out, fmt.Errorf("%w: %s is not a WAL segment", ErrCorrupt, path)
		}
		out.headerTorn = true
		out.tornBytes = int64(len(raw))
		return out, nil
	}
	out.firstSeq = binary.LittleEndian.Uint64(raw[8:16])
	body := raw[segHeaderSize:]
	expect := out.firstSeq
	for len(body) > 0 {
		if len(body) < FrameHeader {
			out.tornBytes = int64(len(body))
			return out, nil
		}
		plen := binary.LittleEndian.Uint32(body[0:4])
		if plen > maxRecordBytes || int(plen) > len(body)-FrameHeader {
			out.tornBytes = int64(len(body))
			return out, nil
		}
		wantCRC := binary.LittleEndian.Uint32(body[4:8])
		seq := binary.LittleEndian.Uint64(body[8:16])
		payload := body[FrameHeader : FrameHeader+int(plen)]
		crc := crc32.NewIEEE()
		crc.Write(body[8:16])
		crc.Write(payload)
		if crc.Sum32() != wantCRC {
			out.tornBytes = int64(len(body))
			return out, nil
		}
		if seq != expect {
			// A structurally valid record in the wrong place is not a torn
			// tail — it means history was rewritten or interleaved.
			out.badSeq = true
			return out, nil
		}
		out.records = append(out.records, record{seq: seq, payload: payload})
		out.count++
		expect++
		body = body[FrameHeader+int(plen):]
	}
	return out, nil
}

// listSegments returns the directory's segment files sorted by the first
// sequence number encoded in their names. Non-segment files (checkpoint
// metadata, snapshots, snapio temp debris) are ignored.
func listSegments(dir string) ([]segMeta, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []segMeta
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
			continue
		}
		hexa := strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), segSuffix)
		first, err := strconv.ParseUint(hexa, 16, 64)
		if err != nil {
			return nil, fmt.Errorf("%w: unparseable segment name %q", ErrCorrupt, name)
		}
		out = append(out, segMeta{path: filepath.Join(dir, name), firstSeq: first})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].firstSeq < out[j].firstSeq })
	return out, nil
}
