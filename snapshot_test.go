package altindex

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"altindex/internal/failpoint"
	"altindex/internal/index"
	"altindex/internal/shard"
	"altindex/internal/xrand"
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

// TestSaveWritesOneFormat pins the single snapshot writer: a 4-shard
// index and one core instance holding the same pairs save byte-identical
// v1 files.
func TestSaveWritesOneFormat(t *testing.T) {
	var raw [2][]byte
	for i, opts := range []Options{{Shards: 4}, {}} {
		idx := New(opts)
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
		path := filepath.Join(t.TempDir(), "idx.snap")
		if err := Save(idx, path); err != nil {
			t.Fatal(err)
		}
		var err error
		if raw[i], err = os.ReadFile(path); err != nil {
			t.Fatal(err)
		}
	}
	if string(raw[0][:8]) != "ALTIX001" {
		t.Fatalf("sharded index saved magic %q, want ALTIX001", raw[0][:8])
	}
	if !bytes.Equal(raw[0], raw[1]) {
		t.Fatalf("sharded save (%d bytes) differs from the unsharded save of the same pairs (%d bytes)", len(raw[0]), len(raw[1]))
	}
}

// TestSnapshotShardRoundTrip: an ALTIX001 file saved from an unsharded
// index loads into a sharded config with exactly its pairs, and the
// shards' scans stitch into the file's order.
func TestSnapshotShardRoundTrip(t *testing.T) {
	var pairs []KV
	for k := uint64(1); k <= 20000; k++ {
		pairs = append(pairs, KV{Key: k * 7, Value: k * 11})
	}
	for k := uint64(30000); k < 30500; k++ {
		pairs = append(pairs, KV{Key: k * 9, Value: k})
	}
	t.Run("unsharded-file-into-sharded", func(t *testing.T) {
		flat := NewDefault()
		defer flat.Close()
		if err := flat.Bulkload(pairs); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "flat.snap")
		if err := Save(flat, path); err != nil {
			t.Fatal(err)
		}
		loaded, err := Load(path, Options{Shards: 4})
		if err != nil {
			t.Fatal(err)
		}
		defer loaded.Close()
		if sh, ok := loaded.(*shard.ALT); !ok || sh.Shards() != 4 {
			t.Fatalf("loaded %T, want 4 shards: opts alone choose the layout", loaded)
		}
		if loaded.Len() != len(pairs) {
			t.Fatalf("Len = %d, want %d", loaded.Len(), len(pairs))
		}
		for _, kv := range pairs {
			if v, ok := loaded.Get(kv.Key); !ok || v != kv.Value {
				t.Fatalf("Get(%d) = (%d,%v)", kv.Key, v, ok)
			}
		}
		n := 0
		index.Walk(loaded, 0, ^uint64(0), len(pairs)+1, func(k, v uint64) bool {
			if n >= len(pairs) || (KV{Key: k, Value: v}) != pairs[n] {
				t.Fatalf("scan pair %d = (%d,%d), want %v", n, k, v, pairs[min(n, len(pairs)-1)])
			}
			n++
			return true
		})
		if n != len(pairs) {
			t.Fatalf("scan visited %d keys, want %d", n, len(pairs))
		}
	})
}

// TestSaveUnderWriters: Save walks a live index. While two writers insert
// and remove odd keys, every saved file loads, holds every even key (no
// writer touches them) with its value, and holds each odd key, if at all,
// with the value the writers store.
func TestSaveUnderWriters(t *testing.T) {
	const stable = 100000
	idx := NewDefault()
	defer idx.Close()
	pairs := make([]KV, stable)
	for i := range pairs {
		pairs[i] = KV{Key: uint64(2 * i), Value: uint64(2*i) + 7}
	}
	if err := idx.Bulkload(pairs); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(rng *xrand.Rng) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				k := 2*rng.Uint64n(stable) + 1
				if rng.Next()&1 == 0 {
					if err := idx.Insert(k, 3*k); err != nil {
						t.Error(err)
						return
					}
				} else {
					idx.Remove(k)
				}
			}
		}(xrand.New(uint64(w) + 1))
	}
	defer func() {
		close(stop)
		wg.Wait()
	}()
	path := filepath.Join(t.TempDir(), "idx.snap")
	for round := 0; round < 5; round++ {
		if err := Save(idx, path); err != nil {
			t.Fatalf("round %d: Save beside writers: %v", round, err)
		}
		loaded, err := Load(path, Options{})
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		even := 0
		for k, v := range Range(loaded, 0) {
			switch {
			case k%2 == 0 && v == k+7:
				even++
			case k%2 == 1 && v == 3*k:
			default:
				t.Fatalf("round %d: saved pair (%d, %d) no writer stored", round, k, v)
			}
		}
		loaded.Close()
		if even != stable {
			t.Fatalf("round %d: %d of %d untouched keys saved", round, even, stable)
		}
	}
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
