package altindex

import (
	"encoding/binary"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"altindex/internal/failpoint"
	"altindex/internal/index"
	"altindex/internal/shard"
	"altindex/internal/snapio"
)

func TestIndexSnapshotRoundTrip(t *testing.T) {
	idx := NewDefault()
	var pairs []KV
	for k := uint64(1); k <= 20000; k++ {
		pairs = append(pairs, KV{Key: k * 7, Value: k * 11})
	}
	if err := idx.Bulkload(pairs); err != nil {
		t.Fatal(err)
	}
	for k := uint64(30000); k < 30500; k++ {
		if err := idx.Insert(k*9, k); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(t.TempDir(), "idx.snap")
	if err := Save(idx, path); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != idx.Len() {
		t.Fatalf("Len = %d, want %d", loaded.Len(), idx.Len())
	}
	for _, kv := range pairs {
		if v, ok := loaded.Get(kv.Key); !ok || v != kv.Value {
			t.Fatalf("Get(%d) = (%d,%v)", kv.Key, v, ok)
		}
	}
	for k := uint64(30000); k < 30500; k++ {
		if v, ok := loaded.Get(k * 9); !ok || v != k {
			t.Fatalf("inserted key %d = (%d,%v)", k*9, v, ok)
		}
	}
}

// TestSnapshotShardRoundTrip covers the sharded (v2) snapshot format:
// saving a sharded index, restoring it into the same sharded layout with
// the exact stored boundaries, and loading it into layouts that disagree
// with the file — unsharded and differently-sharded configs — which must
// remap the data cleanly rather than fail or corrupt.
func TestSnapshotShardRoundTrip(t *testing.T) {
	idx := New(Options{Shards: 4})
	defer idx.Close()
	var pairs []KV
	for k := uint64(1); k <= 20000; k++ {
		pairs = append(pairs, KV{Key: k * 7, Value: k * 11})
	}
	if err := idx.Bulkload(pairs); err != nil {
		t.Fatal(err)
	}
	for k := uint64(30000); k < 30500; k++ {
		if err := idx.Insert(k*9, k); err != nil {
			t.Fatal(err)
		}
	}
	idx.Quiesce()
	wantBounds := idx.(interface{ Bounds() []uint64 }).Bounds()
	path := filepath.Join(t.TempDir(), "sharded.snap")
	if err := Save(idx, path); err != nil {
		t.Fatal(err)
	}

	verify := func(t *testing.T, loaded Index) {
		t.Helper()
		if loaded.Len() != idx.Len() {
			t.Fatalf("Len = %d, want %d", loaded.Len(), idx.Len())
		}
		for i := 0; i < len(pairs); i += 97 {
			kv := pairs[i]
			if v, ok := loaded.Get(kv.Key); !ok || v != kv.Value {
				t.Fatalf("Get(%d) = (%d,%v)", kv.Key, v, ok)
			}
		}
		for k := uint64(30000); k < 30500; k++ {
			if v, ok := loaded.Get(k * 9); !ok || v != k {
				t.Fatalf("inserted key %d = (%d,%v)", k*9, v, ok)
			}
		}
		// Scans must stitch identically regardless of layout.
		n := 0
		var prev uint64
		index.Walk(loaded, 0, ^uint64(0), idx.Len()+1, func(k, v uint64) bool {
			if n > 0 && k <= prev {
				t.Fatalf("scan order violation: %d after %d", k, prev)
			}
			prev = k
			n++
			return true
		})
		if n != idx.Len() {
			t.Fatalf("scan visited %d keys, want %d", n, idx.Len())
		}
	}

	t.Run("same-layout", func(t *testing.T) {
		loaded, err := Load(path, Options{Shards: 4})
		if err != nil {
			t.Fatal(err)
		}
		defer loaded.Close()
		gotBounds := loaded.(interface{ Bounds() []uint64 }).Bounds()
		if len(gotBounds) != len(wantBounds) {
			t.Fatalf("restored %d bounds, want %d", len(gotBounds), len(wantBounds))
		}
		for i := range wantBounds {
			if gotBounds[i] != wantBounds[i] {
				t.Fatalf("bound %d = %d, want %d (layout not reproduced)", i, gotBounds[i], wantBounds[i])
			}
		}
		verify(t, loaded)
	})
	t.Run("into-unsharded", func(t *testing.T) {
		loaded, err := Load(path, Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer loaded.Close()
		if _, ok := loaded.(interface{ Bounds() []uint64 }); ok {
			t.Fatal("unsharded config produced a sharded index")
		}
		verify(t, loaded)
	})
	t.Run("into-different-count", func(t *testing.T) {
		// The saved layout wins over opts.Shards: restore reproduces the
		// partitioning that was saved rather than re-quantile it.
		loaded, err := Load(path, Options{Shards: 7})
		if err != nil {
			t.Fatal(err)
		}
		defer loaded.Close()
		if got := loaded.StatsMap()["shards"]; got != 4 {
			t.Fatalf("shards = %d, want the saved 4 (stored layout must win)", got)
		}
		gotBounds := loaded.(interface{ Bounds() []uint64 }).Bounds()
		for i := range wantBounds {
			if gotBounds[i] != wantBounds[i] {
				t.Fatalf("bound %d = %d, want %d", i, gotBounds[i], wantBounds[i])
			}
		}
		verify(t, loaded)
	})
	t.Run("pinned-bounds", func(t *testing.T) {
		// A deliberately non-quantile layout whose shard count (6) is not
		// the loading config's (4) — what a file from a differently
		// configured server, or from a build that reshaped layouts online,
		// looks like. The v2 file must round-trip those exact boundaries.
		pinned := []uint64{7 * 1000, 7 * 1100, 7 * 9000, 7 * 9001, 7 * 15000}
		src, err := shard.NewWithBounds(Options{}, pinned)
		if err != nil {
			t.Fatal(err)
		}
		defer src.Close()
		all := make([]KV, 0, idx.Len())
		index.Walk(idx, 0, ^uint64(0), idx.Len()+1, func(k, v uint64) bool {
			all = append(all, KV{Key: k, Value: v})
			return true
		})
		if err := src.Bulkload(all); err != nil {
			t.Fatal(err)
		}
		p4 := filepath.Join(t.TempDir(), "pinned.snap")
		if err := Save(src, p4); err != nil {
			t.Fatal(err)
		}
		loaded, err := Load(p4, Options{Shards: 4})
		if err != nil {
			t.Fatal(err)
		}
		defer loaded.Close()
		gotBounds := loaded.(interface{ Bounds() []uint64 }).Bounds()
		if len(gotBounds) != len(pinned) {
			t.Fatalf("restored %d bounds, want %d", len(gotBounds), len(pinned))
		}
		for i := range pinned {
			if gotBounds[i] != pinned[i] {
				t.Fatalf("bound %d = %d, want %d (saved layout not reproduced)", i, gotBounds[i], pinned[i])
			}
		}
		verify(t, loaded)
	})
	t.Run("unsharded-file-into-sharded", func(t *testing.T) {
		flat := NewDefault()
		defer flat.Close()
		if err := flat.Bulkload(pairs); err != nil {
			t.Fatal(err)
		}
		p2 := filepath.Join(t.TempDir(), "flat.snap")
		if err := Save(flat, p2); err != nil {
			t.Fatal(err)
		}
		loaded, err := Load(p2, Options{Shards: 4})
		if err != nil {
			t.Fatal(err)
		}
		defer loaded.Close()
		if got := loaded.StatsMap()["shards"]; got != 4 {
			t.Fatalf("shards = %d, want 4", got)
		}
		if loaded.Len() != len(pairs) {
			t.Fatalf("Len = %d, want %d", loaded.Len(), len(pairs))
		}
	})
	t.Run("corrupt-bounds-rejected", func(t *testing.T) {
		// A well-framed (valid CRC) v2 file whose boundaries decrease must
		// be rejected by the semantic validation, not just the checksum.
		p3 := filepath.Join(t.TempDir(), "badbounds.snap")
		err := snapio.WriteFile(p3, func(w io.Writer) error {
			if _, err := w.Write([]byte("ALTIX002")); err != nil {
				return err
			}
			for _, v := range []any{uint32(4), []uint64{30, 20, 10}, uint64(0)} {
				if err := binary.Write(w, binary.LittleEndian, v); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Load(p3, Options{Shards: 4}); !errors.Is(err, ErrBadSnapshot) {
			t.Fatalf("decreasing bounds: %v, want ErrBadSnapshot", err)
		}
	})
}

func TestIndexSnapshotEmpty(t *testing.T) {
	path := filepath.Join(t.TempDir(), "empty.snap")
	if err := Save(NewDefault(), path); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(path, Options{})
	if err != nil || loaded.Len() != 0 {
		t.Fatalf("empty load: %v, len %d", err, loaded.Len())
	}
}

func TestIndexSnapshotCrashSafety(t *testing.T) {
	for _, site := range []string{"snapio/flush", "snapio/sync", "snapio/rename"} {
		defer failpoint.DisableAll()
		path := filepath.Join(t.TempDir(), "idx.snap")
		idx := NewDefault()
		for k := uint64(1); k <= 5000; k++ {
			if err := idx.Insert(k, k*2); err != nil {
				t.Fatal(err)
			}
		}
		if err := Save(idx, path); err != nil {
			t.Fatal(err)
		}
		if err := idx.Insert(999999, 1); err != nil {
			t.Fatal(err)
		}
		if err := failpoint.Enable(site, "error(kill -9)"); err != nil {
			t.Fatal(err)
		}
		if err := Save(idx, path); !errors.Is(err, failpoint.ErrInjected) {
			t.Fatalf("%s: injected crash not surfaced: %v", site, err)
		}
		failpoint.Disable(site)
		prev, err := Load(path, Options{})
		if err != nil {
			t.Fatalf("%s: previous checkpoint unloadable: %v", site, err)
		}
		if prev.Len() != 5000 {
			t.Fatalf("%s: previous checkpoint len %d", site, prev.Len())
		}
		if _, ok := prev.Get(999999); ok {
			t.Fatalf("%s: crashed save leaked post-checkpoint data", site)
		}
	}
}

func TestIndexSnapshotCorruptRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "idx.snap")
	idx := NewDefault()
	for k := uint64(1); k <= 1000; k++ {
		if err := idx.Insert(k, k); err != nil {
			t.Fatal(err)
		}
	}
	if err := Save(idx, path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/3] ^= 0x10
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path, Options{}); !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("corrupt snapshot: %v, want ErrBadSnapshot", err)
	}
	if _, err := Load(filepath.Join(t.TempDir(), "missing"), Options{}); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("missing snapshot: %v", err)
	}
}
