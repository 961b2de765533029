package finedex

import (
	"math/rand"
	"slices"
	"testing"

	"altindex/internal/dataset"
)

func TestLocateWindowAndWiden(t *testing.T) {
	keys := dataset.Generate(dataset.OSM, 3000, 1)
	ix := New()
	if err := ix.Bulkload(dataset.Pairs(keys)); err != nil {
		t.Fatal(err)
	}
	tb := ix.tab.Load()
	for _, k := range keys {
		m := tb.find(k)
		i, ok := m.locate(k)
		if !ok || m.keys[i] != k {
			t.Fatalf("locate(%d) failed", k)
		}
	}
	// Runtime keys outside the training set must locate their insertion
	// point even when the error window misses.
	for i := 1; i < len(keys); i += 100 {
		if gap := keys[i] - keys[i-1]; gap > 2 {
			probe := keys[i-1] + gap/2
			m := tb.find(probe)
			if _, ok := m.locate(probe); ok {
				t.Fatalf("phantom located: %d", probe)
			}
		}
	}
}

func TestBinGrowsByLevels(t *testing.T) {
	ix := New()
	if err := ix.Bulkload(dataset.KVs(dataset.Libio, 100, 2)); err != nil {
		t.Fatal(err)
	}
	tb := ix.tab.Load()
	m := tb.models[0]
	b := m.ensureBin(1)
	if len(b.keys) != binLevel0 {
		t.Fatalf("level-0 cap = %d", len(b.keys))
	}
	// Fill past several levels through the public path.
	base := m.keys[0]
	var inserted []uint64
	for i := 0; i < 37; i++ {
		k := base*1000000 + uint64(i)*2 + 1
		_ = ix.Insert(k, k)
		inserted = append(inserted, k)
	}
	for _, k := range inserted {
		if v, ok := ix.Get(k); !ok || v != k {
			t.Fatalf("bin key %d lost (%d,%v)", k, v, ok)
		}
	}
}

func TestTombstonesInArrayAndBin(t *testing.T) {
	keys := dataset.Generate(dataset.Libio, 500, 3)
	ix := New()
	if err := ix.Bulkload(dataset.Pairs(keys)); err != nil {
		t.Fatal(err)
	}
	// Array tombstone + revive via insert.
	if !ix.Remove(keys[10]) {
		t.Fatal("remove array key")
	}
	if _, ok := ix.Get(keys[10]); ok {
		t.Fatal("dead key visible")
	}
	_ = ix.Insert(keys[10], 777)
	if v, ok := ix.Get(keys[10]); !ok || v != 777 {
		t.Fatal("revive failed")
	}
	// Bin tombstone.
	fresh := keys[len(keys)-1] + 5
	_ = ix.Insert(fresh, 1)
	if !ix.Remove(fresh) {
		t.Fatal("remove bin key")
	}
	if _, ok := ix.Get(fresh); ok {
		t.Fatal("dead bin key visible")
	}
	if ix.Remove(fresh) {
		t.Fatal("double remove of bin key")
	}
}

func TestBinInOrder(t *testing.T) {
	ix := New()
	if err := ix.Bulkload(dataset.KVs(dataset.Libio, 50, 4)); err != nil {
		t.Fatal(err)
	}
	tb := ix.tab.Load()
	m := tb.models[0]
	b := m.ensureBin(0)
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 20; i++ {
		b.put(m, 0, uint64(r.Intn(10000)), 1)
	}
	// The bin pointer may have been swapped by growth.
	b = m.binAt(0)
	got := b.appendLive(nil, 0, ^uint64(0), 1<<10)
	for i := 1; i < len(got); i++ {
		if got[i].Key <= got[i-1].Key {
			t.Fatalf("bin out of order: %d <= %d", got[i].Key, got[i-1].Key)
		}
	}
	// A bounded window cuts inside the bin.
	if mid := len(got) / 2; len(got) > 0 {
		if cut := b.appendLive(nil, 0, got[mid].Key, 1<<10); !slices.Equal(cut, got[:mid+1]) {
			t.Fatalf("window [0, %d]: %v, want %v", got[mid].Key, cut, got[:mid+1])
		}
	}
	n := len(got)
	if n == 0 {
		t.Fatal("empty iteration")
	}
}
