package core

// Automatic initial training: an ALT built with New and never Bulkloaded
// routes everything to the ART layer. Once that layer crosses
// Options.AutoTrainThreshold keys, the index bootstraps a learned layer:
//
//  1. A one-slot bootstrap model holding the smallest key is swapped in
//     (under preMu, so no pre-table writer is mid-flight). Every other key
//     then predicts to that occupied slot and routes to ART — invariant 2
//     holds immediately.
//  2. The ordinary retraining machinery (§III-F) rebuilds the bootstrap
//     model's range — the whole keyspace — gathering the ART residents
//     into freshly trained GPL models under the freeze protocol.
//
// This generalises Bulkload to dynamically-grown tables (e.g. the memdb
// substrate) without any separate migration protocol.

// maybeTrainInitial triggers the bootstrap once the pre-table ART layer is
// large enough to be worth training.
func (t *ALT) maybeTrainInitial() {
	th := t.opts.AutoTrainThreshold
	if th < 0 {
		return
	}
	if th == 0 {
		th = 8192
	}
	if t.tree.Len() < th {
		return
	}
	t.trainInitial()
}

func (t *ALT) trainInitial() {
	if !t.bootMu.TryLock() {
		return
	}
	defer t.bootMu.Unlock()
	if len(t.tab.Load().dir) != 0 {
		return
	}
	var k0, v0 uint64
	got := false
	t.tree.Scan(0, 1, func(k, v uint64) bool {
		k0, v0 = k, v
		got = true
		return false
	})
	if !got {
		return
	}
	if t.eps <= 0 {
		eps := float64(t.opts.ErrorBound)
		if eps <= 0 {
			eps = float64(t.tree.Len()) / 1000
		}
		if eps < 16 {
			eps = 16
		}
		t.eps = eps
	}
	boot := emptyModel(k0)
	boot.place(0, k0, v0)
	// The bootstrap model has no sidecar yet every pre-table key except k0
	// is ART-resident; stamp the epoch so absentInART can never prove
	// absence against it. The immediate rebuild below replaces it with
	// properly-built models (and fresh sidecars).
	boot.artEpoch.Store(1)
	newTab := newTable([]uint64{k0}, []entry{newEntry(boot)})
	// The swap must not interleave with a pre-table tree mutation whose
	// key could otherwise end up unreachable behind fresh empty slots.
	t.preMu.Lock()
	t.tab.Store(newTab)
	t.preMu.Unlock()
	// k0 momentarily lives in both layers; the rebuild gathers and dedups
	// it (the model copy wins) while retraining the whole keyspace. The
	// bootstrap rebuild runs synchronously through the ordinary pipeline —
	// arming the model first so writer triggers cannot double-queue it.
	boot.retrainArmed.Store(true)
	t.ret.pending.Add(1)
	t.processRetrain(boot)
}
