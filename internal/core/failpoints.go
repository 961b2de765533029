package core

import "altindex/internal/failpoint"

// Failpoint sites on the hot edges of the §III-E concurrency protocol.
// Disabled they cost one atomic load each (see internal/failpoint); armed
// they force the interleavings ordinary tests never hit:
//
//	core/insert/locked    fires with a slot write-locked in insertAt
//	                      (all four branches: upsert, conflict eviction,
//	                      free-slot claim, tombstone update/claim). delay/yield
//	                      simulates a writer descheduled mid-seqlock,
//	                      forcing readers through backoff and retries.
//	core/retrain/freeze   fires after a model's slots are frozen and
//	                      before its entries are gathered — stretches the
//	                      §III-F freeze window while every operation on
//	                      the range spins.
//	core/retrain/publish  fires after the rebuilt models exist and before
//	                      the copy-on-write table swap — the window where
//	                      ART holds migrated keys and spinners must not
//	                      escape early.
//	core/retrain/enqueue  fires on the writer's trigger path, after the
//	                      model is armed and before the trigger enters the
//	                      bounded queue — stretching it piles triggers up
//	                      and forces the queue-overflow drop/re-arm path.
//	core/retrain/splice   fires after a rebuild has filled its new models
//	                      and before it absorbs placeholder neighbours and
//	                      builds the new table — stretching it holds a
//	                      splice open against live writers (which may
//	                      claim an absorbable placeholder meanwhile) and
//	                      routing on the old table.
//	core/fpbuf/register   fires inside the fast-pointer buffer's append
//	                      lock (§III-C), stalling concurrent registrations
//	                      from lazy linking and retraining.
//	core/batch/reload     fires right after a batched operation loads the
//	                      model table, widening the window in which the
//	                      batch works on a table that retraining replaces
//	                      mid-flight.
var (
	fpInsertLocked   = failpoint.New("core/insert/locked")
	fpRetrainFreeze  = failpoint.New("core/retrain/freeze")
	fpRetrainPublish = failpoint.New("core/retrain/publish")
	fpRetrainEnqueue = failpoint.New("core/retrain/enqueue")
	fpRetrainSplice  = failpoint.New("core/retrain/splice")
	fpFPBufRegister  = failpoint.New("core/fpbuf/register")
	fpBatchReload    = failpoint.New("core/batch/reload")
)
