package faults

import "time"

// Admission pricing. PR 9 refactors the miss planners into *admission*
// planners: instead of treating the cloud as an instant oracle whose
// only failure modes are fault coins, each attempt that reaches the
// network is priced against a modeled backend replica — a server with
// finite capacity and a queue (internal/backend). The planner stays
// analytic and deterministic; the backend supplies, per dispatch, the
// queue wait the request would see, the service time it would consume,
// and whether the replica's bounded queue admits it at all.
//
// A nil Pricer (or a zero Admission) reproduces the legacy planner
// byte-for-byte: every added duration is zero and every attempt is
// admitted, so plans — and therefore fleet outcomes, reports and bench
// numbers — are unchanged. That equivalence is the refactor's safety
// rail, asserted by tests here and in internal/fleet and by
// cmd/loadtest's TestSmokes.

// Pricer prices one dispatch of a cloud miss against a modeled backend
// replica. Implementations MUST be pure with respect to model state:
// the same arguments return the same Admission regardless of call
// order or interleaving (internal/backend achieves this by simulating
// each replica's queue as a deterministic background process that
// observers read without mutating). attempt is 1-based, matching the
// fault hashes.
type Pricer interface {
	Price(replica int, at time.Duration, uid, qh, seq uint64, attempt int) Admission
}

// Admission is the priced outcome of one dispatch arriving at a
// backend replica.
type Admission struct {
	// Wait is the queueing delay before service begins (FIFO: the
	// unfinished work ahead of the request; PS: the slowdown stretch
	// beyond the request's own service time).
	Wait time.Duration
	// Service is the service time this request consumes at the replica.
	Service time.Duration
	// Rejected reports that the replica's bounded queue turned the
	// request away — an immediate, retryable failure that costs the
	// device one failed attempt but no backend time.
	Rejected bool
}

// ArrivalStatus classifies what became of one priced dispatch at its
// replica.
type ArrivalStatus uint8

const (
	// ArrivalServed: the replica completed the request's service (the
	// response may still have been discarded by the device, e.g. a
	// hedge loser that finished before cancellation).
	ArrivalServed ArrivalStatus = iota
	// ArrivalRejected: the bounded queue turned the request away.
	ArrivalRejected
	// ArrivalAbandoned: a hedge loser's request was still queued or in
	// service when the winner's answer canceled it.
	ArrivalAbandoned
)

// Arrival is one ledger entry of a plan's priced dispatches — what the
// fleet books into the backend's accounting after the plan replays.
// Only attempts that reach a replica appear: outage and lost attempts
// never arrive.
type Arrival struct {
	// Replica indexes the replica the dispatch arrived at; Attempt is
	// the 1-based ladder attempt that made the dispatch.
	Replica int
	Attempt int
	// At is the arrival instant in model time; Wait and Service are the
	// priced queue wait and service time (both zero for rejections).
	At, Wait, Service time.Duration
	// Status is the dispatch's fate.
	Status ArrivalStatus
	// Reclaimable is, for abandoned arrivals, the service time not yet
	// executed at cancellation — work a cancel-on-win backend gets back
	// and a fire-and-forget backend burns anyway.
	Reclaimable time.Duration
}
