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

// buildV2Snapshot saves a sharded index (the ALTIX002 layout, with shard
// boundaries prepended to the pair payload) and returns its bytes.
func buildV2Snapshot(t *testing.T) []byte {
	t.Helper()
	idx := New(Options{Shards: 4})
	defer func() {
		if c, ok := idx.(interface{ Close() error }); ok {
			c.Close()
		}
	}()
	for k := uint64(0); k < 300; k++ {
		if err := idx.Insert(k*97, k); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(t.TempDir(), "v2.snap")
	if err := Save(idx, path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(raw[:8]) != "ALTIX002" {
		t.Fatalf("sharded snapshot wrote magic %q, want ALTIX002", raw[:8])
	}
	return raw
}

// loadMutatedV2 writes a mutated snapshot and asserts Load rejects it
// with ErrBadSnapshot, never a partially loaded index.
func loadMutatedV2(t *testing.T, path string, raw []byte, what string) {
	t.Helper()
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	idx, err := Load(path, Options{Shards: 4})
	if err == nil {
		t.Fatalf("%s: corrupt v2 snapshot loaded without error", what)
	}
	if !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("%s: got %v, want an error wrapping ErrBadSnapshot", what, err)
	}
	if idx != nil {
		t.Fatalf("%s: Load returned a partially loaded index alongside its error", what)
	}
}

// TestV2SnapshotTruncatedTailFuzz cuts the ALTIX002 file at every byte
// offset and requires a clean ErrBadSnapshot each time.
func TestV2SnapshotTruncatedTailFuzz(t *testing.T) {
	raw := buildV2Snapshot(t)
	path := filepath.Join(t.TempDir(), "cut.snap")
	for n := 0; n < len(raw); n++ {
		loadMutatedV2(t, path, raw[:n], "truncated")
	}
}

// TestV2SnapshotBitFlipFuzz flips one bit in every byte — magic, shard
// boundaries, pair payload, CRC footer — and requires each mutation to be
// rejected rather than remapped into a silently different index.
func TestV2SnapshotBitFlipFuzz(t *testing.T) {
	raw := buildV2Snapshot(t)
	path := filepath.Join(t.TempDir(), "flip.snap")
	mut := make([]byte, len(raw))
	for i := 0; i < len(raw); i++ {
		copy(mut, raw)
		mut[i] ^= 1 << (i % 8)
		loadMutatedV2(t, path, mut, "bit-flipped")
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
// fuzzed payload (the ALTIX001/002 decoder is the second). A snapshot file
// is outside input: Load returns an error wrapping ErrBadSnapshot or an
// index holding exactly the pairs the payload declares; it never panics
// and never sizes an allocation by a count it has not checked.
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
			if n > len(file)/16 {
				t.Fatalf("Load built %d pairs out of a %d-byte file", n, len(file))
			}
		}
	})
}
