package faults

import (
	"reflect"
	"testing"
	"time"

	"pocketcloudlets/internal/radio"
)

// repPricer prices every dispatch with a fixed per-replica admission,
// optionally rejecting the first rejectFirst attempts of every ladder.
type repPricer struct {
	adm         map[int]Admission
	rejectFirst int
}

func (f *repPricer) Price(replica int, at time.Duration, uid, qh, seq uint64, attempt int) Admission {
	if attempt <= f.rejectFirst {
		return Admission{Rejected: true}
	}
	return f.adm[replica]
}

// zeroPricer admits everything at zero cost — the Admission a disabled
// backend produces.
type zeroPricer struct{}

func (zeroPricer) Price(int, time.Duration, uint64, uint64, uint64, int) Admission {
	return Admission{}
}

// inert is an enabled injector with no failure sources: every attempt
// reaches the replica.
func inert() *Injector { return New(Options{Enabled: true}) }

// rejects counts the dispatches of a plan that a replica's bounded
// queue turned away.
func rejects(pl Plan) (n int) {
	for _, a := range pl.Arrivals {
		if a.Status == ArrivalRejected {
			n++
		}
	}
	return n
}

func TestPlanMissPricesFinalExchange(t *testing.T) {
	pr := &repPricer{adm: map[int]Admission{2: {Wait: 100 * time.Millisecond, Service: 50 * time.Millisecond}}}
	pl := PlanMiss(inert(), RetryPolicy{}.WithDefaults(), radio.ThreeG(), pr, 2, 0, false, 1, 2, 1)
	if !pl.Success || pl.Attempts != 1 {
		t.Fatalf("clean priced miss failed: %+v", pl)
	}
	if pl.FinalQueueWait != 100*time.Millisecond || pl.FinalService != 50*time.Millisecond {
		t.Fatalf("final admission not carried: %+v", pl)
	}
	if pl.BackendWait != 0 || rejects(pl) != 0 {
		t.Fatalf("clean miss accrued failure pricing: %+v", pl)
	}
	want := []Arrival{{Replica: 2, Attempt: 1, Wait: 100 * time.Millisecond, Service: 50 * time.Millisecond, Status: ArrivalServed}}
	if !reflect.DeepEqual(pl.Arrivals, want) {
		t.Fatalf("ledger = %+v, want %+v", pl.Arrivals, want)
	}
	if pl.FinalBackend() != 150*time.Millisecond {
		t.Fatalf("FinalBackend = %v", pl.FinalBackend())
	}
}

func TestPlanMissRejectionRetries(t *testing.T) {
	pr := &repPricer{adm: map[int]Admission{0: {Service: time.Millisecond}}, rejectFirst: 2}
	pol := RetryPolicy{MaxAttempts: 4}.WithDefaults()
	pl := PlanMiss(inert(), pol, radio.ThreeG(), pr, 0, 0, false, 1, 2, 1)
	if !pl.Success || pl.Attempts != 3 || rejects(pl) != 2 {
		t.Fatalf("rejection ladder wrong: %+v", pl)
	}
	if pl.FailedWait == 0 || pl.FailedActive == 0 {
		t.Fatalf("rejected attempts cost no radio: %+v", pl)
	}
	if pl.BackendWait != 0 {
		t.Fatalf("rejections charged backend time: %+v", pl)
	}
	if len(pl.Arrivals) != 3 ||
		pl.Arrivals[0].Status != ArrivalRejected || pl.Arrivals[1].Status != ArrivalRejected ||
		pl.Arrivals[2].Status != ArrivalServed {
		t.Fatalf("ledger statuses wrong: %+v", pl.Arrivals)
	}
	// A ladder of nothing but rejections exhausts like any other failure.
	pr.rejectFirst = 99
	pl = PlanMiss(inert(), pol, radio.ThreeG(), pr, 0, 0, false, 1, 2, 1)
	if pl.Success || rejects(pl) != pl.Attempts {
		t.Fatalf("all-rejected ladder did not exhaust: %+v", pl)
	}
}

func TestPlanMissEngineErrorBurnsBackendTime(t *testing.T) {
	in := New(Options{Enabled: true, EngineErrProb: 1})
	pr := &repPricer{adm: map[int]Admission{0: {Wait: 2 * time.Second, Service: time.Second}}}
	pol := RetryPolicy{MaxAttempts: 2}.WithDefaults()
	pl := PlanMiss(in, pol, radio.ThreeG(), pr, 0, 0, false, 1, 2, 1)
	if pl.Success || pl.Attempts != 2 {
		t.Fatalf("always-erroring engine succeeded: %+v", pl)
	}
	if pl.BackendWait != 2*(2*time.Second+time.Second) {
		t.Fatalf("engine errors burned %v backend time, want 6s", pl.BackendWait)
	}
	if pl.LadderWait() != pl.FailedWait+pl.BackendWait {
		t.Fatalf("LadderWait inconsistent: %+v", pl)
	}
	if len(pl.Arrivals) != 2 || pl.Arrivals[0].Status != ArrivalServed {
		t.Fatalf("engine-error exchanges not booked as served: %+v", pl.Arrivals)
	}
}

// TestPlanMissZeroPricerByteIdentity is the refactor's safety rail at
// the planner level: a pricer that admits everything at zero cost must
// reproduce the nil-pricer (legacy) plan exactly, ledger aside.
func TestPlanMissZeroPricerByteIdentity(t *testing.T) {
	in := New(Options{Enabled: true, Seed: 7, LossProb: 0.3, EngineErrProb: 0.2,
		OutageEvery: 30 * time.Second, OutageFor: 5 * time.Second})
	pol := RetryPolicy{MaxAttempts: 4}.WithDefaults()
	p := radio.ThreeG()
	for seq := uint64(1); seq <= 200; seq++ {
		legacy := PlanMiss(in, pol, p, nil, 0, time.Duration(seq)*time.Second, seq%2 == 0, 7, 1234, seq)
		priced := PlanMiss(in, pol, p, zeroPricer{}, 0, time.Duration(seq)*time.Second, seq%2 == 0, 7, 1234, seq)
		priced.Arrivals = nil
		if !reflect.DeepEqual(legacy, priced) {
			t.Fatalf("seq %d: zero pricer diverges from nil pricer:\n  nil:  %+v\n  zero: %+v", seq, legacy, priced)
		}
	}
}

// TestPlanHedgedBackendTimeDecidesWinner: with pricing on, the winner
// is the earliest *answer*, so a congested primary loses to a clone on
// a fast replica even though the primary's exchange started first —
// and the loser's mid-service exchange is reclassified abandoned with
// its unexecuted service recorded as reclaimable.
func TestPlanHedgedBackendTimeDecidesWinner(t *testing.T) {
	injs := Replicas(inert(), 2)
	pol := RetryPolicy{}.WithDefaults()
	hp := HedgePolicy{CloneFactor: 2, Delay: time.Second}
	p := radio.ThreeG()
	slow := Admission{Service: 30 * time.Second}
	fast := Admission{Service: 10 * time.Millisecond}

	// Find a seq whose rotated primary is replica 0 (deterministic).
	var seq uint64
	for s := uint64(1); s < 64; s++ {
		if hedgeStart(2, 1, 2, s) == 0 {
			seq = s
			break
		}
	}
	pr := &repPricer{adm: map[int]Admission{0: slow, 1: fast}}
	hplan := PlanHedged(injs, pol, hp, p, pr, 0, 0, 1, 2, seq)
	if hplan.Launches() != 2 {
		t.Fatalf("want 2 launches, got %+v", hplan)
	}
	if hplan.Winner != 1 {
		t.Fatalf("fast clone did not win: %+v", hplan)
	}
	// The inert primary failed nothing; its whole waste is the one
	// exchange it had in flight when the clone's answer arrived.
	if hplan.WastedAttempts != 0 || hplan.WastedActive != radio.ExchangeCost(p, 0, 0, true).RadioActive {
		t.Fatalf("slow primary not charged one abandoned exchange: %+v", hplan)
	}
	loser := hplan.Primary
	if len(loser.Plan.Arrivals) != 1 || loser.Plan.Arrivals[0].Status != ArrivalAbandoned {
		t.Fatalf("loser ledger not reclassified: %+v", loser.Plan.Arrivals)
	}
	rec := loser.Plan.Arrivals[0].Reclaimable
	if rec <= 0 || rec >= 30*time.Second {
		t.Fatalf("reclaimable %v outside (0, 30s): the exchange was mid-service at cancel", rec)
	}

	// Legacy ordering check: with zero pricing, the primary's earlier
	// exchange start must win as before.
	pr = &repPricer{adm: map[int]Admission{}}
	hplan = PlanHedged(injs, pol, hp, p, pr, 0, 0, 1, 2, seq)
	if hplan.Winner != 0 {
		t.Fatalf("zero-priced hedge changed the legacy winner: %+v", hplan)
	}
}
