package altindex

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// buildSnapshot spells an ALTIX001 snapshot of 300 pairs and returns the
// framed file bytes.
func buildSnapshot() []byte {
	payload := binary.LittleEndian.AppendUint64([]byte("ALTIX001"), 300)
	for k := uint64(0); k < 300; k++ {
		payload = binary.LittleEndian.AppendUint64(payload, k*97)
		payload = binary.LittleEndian.AppendUint64(payload, k)
	}
	return snapFrame(payload)
}

// loadMutated writes a mutated snapshot and asserts Load rejects it with
// ErrBadSnapshot, never a partially loaded index.
func loadMutated(t *testing.T, path string, raw []byte, what string) {
	t.Helper()
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	idx, err := Load(path, Options{Shards: 4})
	if err == nil {
		t.Fatalf("%s: corrupt snapshot loaded without error", what)
	}
	if !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("%s: got %v, want an error wrapping ErrBadSnapshot", what, err)
	}
	if idx != nil {
		t.Fatalf("%s: Load returned a partially loaded index alongside its error", what)
	}
}

// TestV1SnapshotTruncatedTailFuzz cuts an ALTIX001 file at every byte
// offset and requires a clean ErrBadSnapshot each time.
func TestV1SnapshotTruncatedTailFuzz(t *testing.T) {
	raw := buildSnapshot()
	path := filepath.Join(t.TempDir(), "cut.snap")
	for n := 0; n < len(raw); n++ {
		loadMutated(t, path, raw[:n], "truncated")
	}
}

// TestV1SnapshotBitFlipFuzz flips one bit in every byte of an ALTIX001 file
// — magic, pair count, pair payload, CRC footer — and requires each
// mutation to be rejected rather than remapped into a silently different
// index.
func TestV1SnapshotBitFlipFuzz(t *testing.T) {
	raw := buildSnapshot()
	path := filepath.Join(t.TempDir(), "flip.snap")
	mut := make([]byte, len(raw))
	for i := 0; i < len(raw); i++ {
		copy(mut, raw)
		mut[i] ^= 1 << (i % 8)
		loadMutated(t, path, mut, "bit-flipped")
	}
}

// snapFrame appends the snapio footer (u64 length, u32 CRC32) to payload,
// so a fuzzed payload gets past the checksum and into the decoder.
func snapFrame(payload []byte) []byte {
	out := binary.LittleEndian.AppendUint64(bytes.Clone(payload), uint64(len(payload)))
	return binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(payload))
}

// FuzzLoad feeds Load arbitrary snapshot files, both raw (the checksum
// frame is the first line of defence) and with a valid frame around the
// fuzzed payload (the ALTIX001 decoder is the second). A snapshot file is
// outside input: Load returns an error wrapping ErrBadSnapshot or an index
// holding exactly the pairs the payload declares; it never panics and
// never sizes an allocation by a count it has not checked. Only an
// ALTIX001 payload loads: the ALTIX002 layout earlier builds wrote is
// refused like any other magic.
func FuzzLoad(f *testing.F) {
	pairs := func(n uint64) []byte {
		out := binary.LittleEndian.AppendUint64(nil, n)
		for k := uint64(1); k <= n; k++ {
			out = binary.LittleEndian.AppendUint64(out, k*1000)
			out = binary.LittleEndian.AppendUint64(out, k)
		}
		return out
	}
	v1 := append([]byte("ALTIX001"), pairs(5)...)
	v2 := append([]byte("ALTIX002"), 3, 0, 0, 0) // three shards, two boundaries
	v2 = binary.LittleEndian.AppendUint64(v2, 2000)
	v2 = binary.LittleEndian.AppendUint64(v2, 4000)
	v2 = append(v2, pairs(5)...)
	huge := append([]byte("ALTIX001"), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f) // 2^63 pairs declared
	for _, seed := range [][]byte{v1, v2, huge, v1[:20], v2[:13], append([]byte("ALTIX002"), 0xff, 0xff, 0xff, 0xff), nil} {
		f.Add(seed, false)
		f.Add(seed, true)
	}
	path := filepath.Join(f.TempDir(), "fuzz.snap")
	f.Fuzz(func(t *testing.T, payload []byte, sharded bool) {
		opts := Options{}
		if sharded {
			opts.Shards = 4
		}
		for _, file := range [][]byte{payload, snapFrame(payload)} {
			if err := os.WriteFile(path, file, 0o644); err != nil {
				t.Fatal(err)
			}
			idx, err := Load(path, opts)
			if err != nil {
				if !errors.Is(err, ErrBadSnapshot) || idx != nil {
					t.Fatalf("Load = (%v, %v), want a nil index and an error wrapping ErrBadSnapshot", idx, err)
				}
				continue
			}
			n := idx.Len()
			idx.Close()
			if !bytes.HasPrefix(file, []byte("ALTIX001")) {
				t.Fatalf("Load built %d pairs out of a file starting %q", n, file[:min(len(file), 8)])
			}
			if n > len(file)/16 {
				t.Fatalf("Load built %d pairs out of a %d-byte file", n, len(file))
			}
		}
	})
}
