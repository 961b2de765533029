package core

import (
	"testing"
)

// TestPinnedReaderNeverSeesReclaimedBlocks is the regression test for the
// epoch-reclamation contract: a reader pinned in an old epoch must be able
// to keep dereferencing a retired model's slot blocks — the spans sit on
// the limbo list, untouched, until the pin drops. If retirement ever
// released storage eagerly (the rely-on-GC code could not even express
// this bug; the arena can), the snapshot comparison below would read
// zeroed or recycled slots.
func TestPinnedReaderNeverSeesReclaimedBlocks(t *testing.T) {
	keys := make([]uint64, 2000)
	for i := range keys {
		keys[i] = uint64(i+1) * 64
	}
	alt := mustBulk(t, Options{ErrorBound: 16, DisableRetraining: true}, keys)

	// Snapshot the first model's occupied slots — the exact memory a
	// pinned reader of the old table is entitled to keep seeing.
	tab := alt.tab.Load()
	m0 := tab.dir[0].m
	type slotVal struct{ k, v uint64 }
	snap := map[int]slotVal{}
	for s := 0; s < m0.nslots; s++ {
		if m0.metaRef(s).Load()&slotOccupied != 0 {
			snap[s] = slotVal{m0.keyRef(s).Load(), m0.valRef(s).Load()}
		}
	}
	if len(snap) == 0 {
		t.Fatal("first model holds no keys; test setup broken")
	}

	// Pin, then retire the model by rebuilding its range through the
	// ordinary pipeline. The rebuild runs inline on this (pinned)
	// goroutine — exactly the writer-pinned case Retire must tolerate by
	// deferring, not skipping, reclamation.
	g := alt.ebr.Pin()
	m0.retrainArmed.Store(true)
	alt.ret.pending.Add(1)
	alt.processRetrain(m0)

	es := alt.ebr.Stats()
	if es.LimboCount == 0 {
		t.Fatal("rebuild retired nothing onto the limbo list")
	}

	// Drain attempts must not reclaim past the pinned epoch.
	alt.ebr.Drain(8)
	if got := alt.ebr.Stats(); got.LimboCount < es.LimboCount {
		t.Fatalf("limbo shrank from %d to %d items while a reader was pinned",
			es.LimboCount, got.LimboCount)
	}

	// The retired model's memory must be what the snapshot saw. The
	// rebuild froze these slots (meta gained the lock bit — that is how
	// old-table readers get redirected), but the key/value words are
	// untouched by freezing; only a wrongful arena recycle could zero
	// them. The meta word must still be frozen, never cleared.
	for s, want := range snap {
		k, v := m0.keyRef(s).Load(), m0.valRef(s).Load()
		meta := m0.metaRef(s).Load()
		if k != want.k || v != want.v {
			t.Fatalf("retired slot %d changed under a pinned reader: (%d,%d), want (%d,%d)",
				s, k, v, want.k, want.v)
		}
		if meta&slotLockBit == 0 {
			t.Fatalf("retired slot %d not frozen (meta %x) — memory recycled under a pinned reader?", s, meta)
		}
	}

	// Unpinning releases the limbo list on the next advances.
	g.Unpin()
	alt.ebr.Drain(64)
	after := alt.ebr.Stats()
	if after.LimboCount != 0 {
		t.Fatalf("limbo not drained after unpin: %d items", after.LimboCount)
	}
	if after.Reclaims == 0 {
		t.Fatal("no reclaims counted after unpin")
	}

	// And the rebuilt table serves every key.
	for _, k := range keys {
		if _, ok := alt.Get(k); !ok {
			t.Fatalf("Get(%d) lost after reclamation", k)
		}
	}
}
