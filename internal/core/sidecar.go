package core

import "unsafe"

// The overflow fingerprint sidecar.
//
// Every learned-layer miss that lands on a conflict slot (occupied by a
// different key, or tombstoned) pays a full ART traversal before it can
// answer "absent" — a chain of dependent pointer loads that dominates the
// lookup cost on fit-hard datasets. But the set of keys a model evicted
// to ART at build time is known exactly when the model is built, and it
// only grows through one path afterwards: a runtime conflict eviction
// under the model's slot lock.
//
// The sidecar exploits that: at build time the model records, per evicted
// key, an 8-bit fingerprint in a slot-indexed tag array. A lookup that
// reaches the conflict path first asks the sidecar; if the key's predicted
// slot carries no eviction tag — or a tag that cannot be this key's — the
// key cannot be ART-resident and the lookup answers "absent" without
// touching the tree. The probe is one byte load, so ART-resident lookups
// (which must still traverse) pay almost nothing for it. False positives
// (fingerprint collisions, multi-eviction slots, keys since removed from
// ART) cost one redundant traversal; false "absent" answers are made
// impossible by the spill bit below.
//
// Invalidation. The sidecar is immutable; what stales it is per slot.
// A runtime conflict eviction from slot s puts a key in ART that no tag
// records, so the evicting writer sets slotSpill in its release of s's
// meta word, after the tree insert, with the slot locked in between.
// Every later release and unfreeze carries the bit forward, so only a
// rebuild, which makes fresh slots and a fresh sidecar, clears it. A
// reader passes the meta word it seqlock-validated and trusts s's tag
// only while that word lacks the bit: its snapshot then predates the
// release that published the eviction, so the key was not yet in ART and
// linearizing the lookup before the eviction is sound. One eviction
// stales one slot's tag, not the model's: the other slots keep proving
// absence until the next rebuild.
//
// Removals from ART (Remove, retrain range drains) never invalidate: they
// only shrink the ART-resident set, and in-place updates (Update, upserts
// behind a tombstone) keep it, so a stale "maybe present" stays harmless.

// Sidecar tag values. A slot's tag is 0 when the build evicted nothing
// there, the evicted key's fingerprint (in [1, 0xFE]) for exactly one
// eviction, and scManyTag when several keys conflicted out of the same
// slot (any fingerprint would then lie for the others).
const scManyTag = uint8(0xFF)

// sidecar is one model's build-time conflict map: one tag byte per slot.
// A byte per slot is 5% on top of the 20 slot bytes, paid only by models
// whose build actually evicted keys; the payoff is an O(1), single-load
// membership test on the hottest miss path.
type sidecar struct {
	tags []uint8
}

func newSidecar(nslots int) *sidecar {
	return &sidecar{tags: make([]uint8, nslots)}
}

// add records one eviction at slot s.
func (sc *sidecar) add(s int, tag uint8) {
	switch cur := sc.tags[s]; {
	case cur == 0:
		sc.tags[s] = tag
	case cur != tag:
		sc.tags[s] = scManyTag
	}
}

func (sc *sidecar) memory() uintptr {
	return uintptr(cap(sc.tags)) + 24
}

// fp8 is the sidecar's 8-bit key fingerprint: a Fibonacci-hash mix folded
// into [1, 0xFE] so nearby keys (the common case among one slot's
// conflicts) still get distinct tags, and the 0 / scManyTag sentinels stay
// unambiguous.
func fp8(k uint64) uint8 {
	return uint8((k*0x9e3779b97f4a7c15)>>56)%254 + 1
}

// absentInART reports whether key — predicted to slot s of e, whose meta
// word meta showed another key or a tombstone — is provably absent from
// the ART layer, letting the caller skip the tree traversal.
//
// The proof needs two facts: no runtime eviction from s since the build
// (meta lacks slotSpill; with no sidecar that also covers a build that
// evicted nothing), and s's tag rules the key out. meta must be unlocked
// and loaded from s (a seqlock read, or the word the caller locked): it
// then shows every eviction released from s before it, and proves the
// model was not yet frozen, so evictions via any successor model are
// ordered after the caller's linearization point.
func (e *entry) absentInART(key uint64, s int, meta uint32) bool {
	if meta&slotSpill != 0 {
		return false // a runtime eviction from s; its tag is stale
	}
	if e.tags == nil {
		return true // built with zero conflicts and none added here since
	}
	tag := *(*uint8)(unsafe.Add(unsafe.Pointer(e.tags), s)) // s < nslots
	return tag == 0 || (tag != scManyTag && tag != fp8(key))
}
