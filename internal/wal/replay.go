package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Tail is what Read found in a log directory: the directory, its valid
// segments, the first seq its oldest segment is named for and the last
// valid seq (both 0 = no segment), the torn bytes the read skipped and the
// records it delivered. Tail.Open starts a log on it.
type Tail struct {
	dir       string
	segs      []segMeta
	FirstSeq  uint64
	LastSeq   uint64
	TornBytes int64
	Records   int
}

// scan walks segs (ascending firstSeq), validates the record chain and
// passes every record with seq > after, in order, to fn (nil: none). The
// rules:
//
//   - segments must form one dense sequence: each segment's firstSeq
//     equals the previous segment's last valid seq + 1;
//   - a torn tail (short frame, impossible length, CRC mismatch, or a
//     partially-written segment header) is tolerated at the point where a
//     crash could have left it — the end of any segment — iff the next
//     segment, when one exists, continues the sequence exactly (that is
//     the crash-then-rotate-on-recovery shape). The torn bytes are
//     counted, never parsed. A segment with a torn header holds no record
//     but stands where its name says: the last seq is at least its
//     firstSeq-1, so a log reopened over it never numbers below it;
//   - a valid frame whose seq breaks the sequence, a foreign file, or a
//     gap between segments is ErrCorrupt: better to refuse startup than
//     to silently drop acked history. A gap after bytes that are not a
//     whole record (a flipped bit, say) names the segment holding them.
func scan(segs []segMeta, after uint64, fn func(seq uint64, payload []byte) error) (Tail, error) {
	var c Tail
	var torn int64 // bytes after the previous segment's last whole record
	for i, sm := range segs {
		if sm.firstSeq == 0 {
			return c, fmt.Errorf("%w: %s is named for seq 0, which no log assigns", ErrCorrupt, sm.path)
		}
		switch {
		case i == 0:
			c.FirstSeq, c.LastSeq = sm.firstSeq, sm.firstSeq-1
		case sm.firstSeq == c.LastSeq+1:
		case torn > 0:
			// The earlier segment's tail is not a crash's: a later segment
			// follows above records it does not hold (rot, or a lost write).
			prev := segs[i-1]
			return c, fmt.Errorf("%w: %s holds %d bytes after seq %d that are not a whole record, but %s follows at seq %d",
				ErrCorrupt, prev.path, torn, c.LastSeq, filepath.Base(sm.path), sm.firstSeq)
		default:
			return c, fmt.Errorf("%w: %s starts at seq %d, want %d (missing segment?)", ErrCorrupt, sm.path, sm.firstSeq, c.LastSeq+1)
		}
		res, err := scanSegment(sm.path)
		if err != nil {
			return c, err
		}
		if res.headerTorn {
			// A crash mid-creation. Only the newest segment can be
			// half-created, so anything after it is a hole.
			if i != len(segs)-1 {
				return c, fmt.Errorf("%w: %s has a torn header but is not the last segment", ErrCorrupt, sm.path)
			}
			c.TornBytes += res.tornBytes
			break
		}
		if res.firstSeq != sm.firstSeq {
			return c, fmt.Errorf("%w: %s header says first seq %d, name says %d", ErrCorrupt, sm.path, res.firstSeq, sm.firstSeq)
		}
		c.LastSeq = res.firstSeq + uint64(res.count) - 1
		c.TornBytes += res.tornBytes
		torn = res.tornBytes
		if res.badSeq {
			return c, fmt.Errorf("%w: %s record sequence broken", ErrCorrupt, sm.path)
		}
		c.segs = append(c.segs, sm)
		for _, rec := range res.records {
			if rec.seq <= after || fn == nil {
				continue
			}
			if err := fn(rec.seq, rec.payload); err != nil {
				return c, err
			}
			c.Records++
		}
	}
	return c, nil
}

// Replay streams every recovered record with seq > after, in order, to
// fn. It scans the segments of the Tail the log was opened on — records
// appended afterwards are the new generation's and are not replayed. Call
// it once, before appending. A non-nil error from fn aborts and is
// returned; the int is the number of records delivered.
func (l *Log) Replay(after uint64, fn func(seq uint64, payload []byte) error) (int, error) {
	c, err := scan(l.tail.segs, after, fn)
	return c.Records, err
}

// Read is the log's one reader of a directory: it validates dir's segment
// chain and streams every record with seq > after, in order, to fn (nil:
// validate only), returning the Tail that Tail.Open starts a log on. It
// creates, writes and removes no file, and a missing dir reads as an
// empty log. fn sees a segment's records once that segment has passed, so
// it may see records of a chain a later segment refuses.
func Read(dir string, after uint64, fn func(seq uint64, payload []byte) error) (Tail, error) {
	segs, err := listSegments(dir)
	if err != nil {
		return Tail{}, err
	}
	t, err := scan(segs, after, fn)
	t.dir = dir
	return t, err
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
// metadata, snapshots, snapio temp debris) are ignored, and a missing
// dir holds none.
func listSegments(dir string) ([]segMeta, error) {
	ents, err := os.ReadDir(dir)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
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
