package art

import (
	"testing"
	"testing/quick"
)

func TestKeyByte(t *testing.T) {
	k := uint64(0x0102030405060708)
	for i, want := range []byte{1, 2, 3, 4, 5, 6, 7, 8} {
		if got := keyByte(k, i); got != want {
			t.Fatalf("keyByte(%d) = %#x, want %#x", i, got, want)
		}
	}
	if keyByte(k, 8) != 0 || keyByte(k, -1) != 0 {
		t.Fatal("out-of-range depths must return 0")
	}
}

func TestPackedKeyBytes(t *testing.T) {
	keys, _ := newInner(kind48, 0).arrays()
	for i := 0; i < 256; i++ {
		setKeyAt(keys, i, byte(255-i))
	}
	for i := 0; i < 256; i++ {
		if got := keyAt(keys, i); got != byte(255-i) {
			t.Fatalf("keyAt(%d) = %d, want %d", i, got, 255-i)
		}
	}
	// Overwrites must not disturb neighbours.
	setKeyAt(keys, 8, 0xAA)
	if keyAt(keys, 7) != 255-7 || keyAt(keys, 9) != 255-9 || keyAt(keys, 8) != 0xAA {
		t.Fatal("setKeyAt disturbed neighbours")
	}
}

func TestMetaPacking(t *testing.T) {
	n := newInner(kind4, 3)
	n.storeMeta(5, 3, 2)
	pl, d, nc := n.loadMeta()
	if pl != 5 || d != 3 || nc != 2 {
		t.Fatalf("meta roundtrip: %d %d %d", pl, d, nc)
	}
	n.setNumChildren(4)
	if pl, d, nc = n.loadMeta(); pl != 5 || d != 3 || nc != 4 {
		t.Fatal("setNumChildren disturbed other fields")
	}
	if n.Depth() != 3 {
		t.Fatal("Depth accessor")
	}
}

func TestAddFindRemoveChildAllKinds(t *testing.T) {
	for _, kind := range []uint8{kind4, kind16, kind48, kind256} {
		n := newInner(kind, 0)
		capacity := map[uint8]int{kind4: 4, kind16: 16, kind48: 48, kind256: 256}[kind]
		// Add children with descending bytes to exercise sorted insert.
		for i := 0; i < capacity; i++ {
			b := byte(255 - i)
			n.addChild(b, newLeaf(uint64(b), uint64(b)))
		}
		if n.numChildren() != capacity {
			t.Fatalf("kind %d: %d children, want %d", kind, n.numChildren(), capacity)
		}
		if kind != kind256 && !n.full() {
			t.Fatalf("kind %d should be full", kind)
		}
		for i := 0; i < capacity; i++ {
			b := byte(255 - i)
			c := n.findChild(b)
			if c == nil || c.leaf().key != uint64(b) {
				t.Fatalf("kind %d: findChild(%d) wrong", kind, b)
			}
		}
		if n.findChild(byte(255-capacity)) != nil && capacity < 256 {
			t.Fatalf("kind %d: phantom child", kind)
		}
		// Replace and remove.
		n.replaceChild(255, newLeaf(999, 999))
		if n.findChild(255).leaf().key != 999 {
			t.Fatalf("kind %d: replaceChild failed", kind)
		}
		n.removeChild(255)
		if n.findChild(255) != nil {
			t.Fatalf("kind %d: removeChild failed", kind)
		}
		if n.numChildren() != capacity-1 {
			t.Fatalf("kind %d: count after remove", kind)
		}
		// Re-add into the freed space.
		n.addChild(255, newLeaf(1, 1))
		if n.findChild(255) == nil {
			t.Fatalf("kind %d: re-add failed", kind)
		}
	}
}

func TestGrowPreservesChildren(t *testing.T) {
	for _, kind := range []uint8{kind4, kind16, kind48} {
		n := newInner(kind, 2)
		n.storeMeta(3, 2, 0)
		n.in().prefixW.Store(0x030201)
		n.in().pathHi.Store(0xAABB << 48)
		capacity := map[uint8]int{kind4: 4, kind16: 16, kind48: 48}[kind]
		for i := 0; i < capacity; i++ {
			n.addChild(byte(i*5), newLeaf(uint64(i), uint64(i)))
		}
		big := n.grow()
		if big.kind != map[uint8]uint8{kind4: kind16, kind16: kind48, kind48: kind256}[kind] {
			t.Fatalf("grow kind %d -> %d", kind, big.kind)
		}
		pl, d, nc := big.loadMeta()
		if pl != 3 || d != 2 || nc != capacity {
			t.Fatalf("grow meta: %d %d %d", pl, d, nc)
		}
		if big.in().prefixW.Load() != 0x030201 || big.in().pathHi.Load() != 0xAABB<<48 {
			t.Fatal("grow lost prefix/path")
		}
		for i := 0; i < capacity; i++ {
			c := big.findChild(byte(i * 5))
			if c == nil || c.leaf().key != uint64(i) {
				t.Fatalf("grow lost child %d", i)
			}
		}
	}
}

func TestVersionLockProtocol(t *testing.T) {
	n := newLeaf(1, 1)
	v, ok := n.readLockOrRestart()
	if !ok {
		t.Fatal("fresh node unreadable")
	}
	if !n.checkOrRestart(v) {
		t.Fatal("immediate recheck failed")
	}
	if !n.upgradeToWriteLockOrRestart(v) {
		t.Fatal("upgrade failed")
	}
	if n.upgradeToWriteLockOrRestart(v) {
		t.Fatal("double upgrade")
	}
	if n.checkOrRestart(v) {
		t.Fatal("locked node passed recheck")
	}
	n.writeUnlock()
	v2, ok := n.readLockOrRestart()
	if !ok || v2 == v {
		t.Fatal("version did not advance")
	}
	// Obsolete marking.
	if !n.upgradeToWriteLockOrRestart(v2) {
		t.Fatal("second upgrade failed")
	}
	n.writeUnlockObsolete()
	if _, ok := n.readLockOrRestart(); ok {
		t.Fatal("obsolete node readable")
	}
}

func TestMaskForAndCovers(t *testing.T) {
	if maskFor(0) != 0 || maskFor(8) != ^uint64(0) || maskFor(9) != ^uint64(0) {
		t.Fatal("mask edges")
	}
	if maskFor(2) != 0xFFFF<<48 {
		t.Fatalf("maskFor(2) = %#x", maskFor(2))
	}
	n := newInner(kind4, 2)
	n.in().pathHi.Store(0x1122 << 48)
	if !n.coversKey(0x1122334455667788) {
		t.Fatal("matching key not covered")
	}
	if n.coversKey(0x1123334455667788) {
		t.Fatal("mismatching key covered")
	}
	root := newInner(kind4, 0)
	if !root.coversKey(0xDEADBEEF) {
		t.Fatal("depth-0 node must cover everything")
	}
}

func TestQuickPackedBytesRoundtrip(t *testing.T) {
	f := func(vals []byte) bool {
		if len(vals) > 256 {
			vals = vals[:256]
		}
		keys, _ := newInner(kind48, 0).arrays()
		for i, b := range vals {
			setKeyAt(keys, i, b)
		}
		for i, b := range vals {
			if keyAt(keys, i) != b {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
