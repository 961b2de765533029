package shard

import "altindex/internal/failpoint"

// Failpoint site in the routing layer (active only under -tags failpoint;
// no-op stubs otherwise). Specs are armed by name via failpoint.Enable.
//
//	shard/route — fires after an operation loads the routing table and
//	before it resolves its target shard. Delaying or yielding here lets a
//	chaos test wedge a lookup between routing and the shard-local probe
//	while that shard's retrainer splices (core/retrain/splice), the race
//	the seqlock protocol must absorb across the sharding boundary.
var fpRoute = failpoint.New("shard/route")
