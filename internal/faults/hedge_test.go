package faults

import (
	"reflect"
	"testing"
	"time"

	"pocketcloudlets/internal/radio"
)

// alwaysDown is an options set whose absolute window covers every
// instant the tests look at — the replica can never answer.
func alwaysDown(seed int64) Options {
	return Options{Enabled: true, Seed: seed, Windows: []Window{{Start: 0, End: time.Hour}}}
}

func TestReplicaOptions(t *testing.T) {
	base := Options{
		Enabled:     true,
		Seed:        7,
		LossProb:    0.2,
		OutageEvery: 30 * time.Second,
		OutageFor:   6 * time.Second,
		Windows:     []Window{{Start: time.Minute, End: 2 * time.Minute}},
	}
	if got := ReplicaOptions(base, 0); !reflect.DeepEqual(got, base) {
		t.Fatalf("replica 0 must be the base options, got %+v", got)
	}
	r1 := ReplicaOptions(base, 1)
	if r1.Seed == base.Seed {
		t.Error("replica 1 should draw from its own seed")
	}
	if r1.OutagePhase == base.OutagePhase {
		t.Error("replica 1's duty cycle should be phase-shifted")
	}
	if shift := r1.OutagePhase - base.OutagePhase; shift < 0 || shift >= base.OutageEvery {
		t.Errorf("phase shift %v outside [0, %v)", shift, base.OutageEvery)
	}
	// Absolute windows model client-side dead zones; replication must
	// not move them.
	if !reflect.DeepEqual(r1.Windows, base.Windows) {
		t.Errorf("windows shifted: %v", r1.Windows)
	}
	if got := ReplicaOptions(base, 1); !reflect.DeepEqual(got, r1) {
		t.Error("replica derivation is not deterministic")
	}
	if r2 := ReplicaOptions(base, 2); r2.Seed == r1.Seed {
		t.Error("replicas 1 and 2 share a seed")
	}

	// Without a duty cycle there is nothing to phase-shift.
	windowsOnly := Options{Enabled: true, Seed: 7, Windows: base.Windows}
	if got := ReplicaOptions(windowsOnly, 1); got.OutagePhase != 0 {
		t.Errorf("windows-only options grew a phase %v", got.OutagePhase)
	}
}

func TestReplicasBuild(t *testing.T) {
	if injs := Replicas(nil, 3); len(injs) != 1 || injs[0] != nil {
		t.Errorf("nil base should collapse to [nil], got %v", injs)
	}
	base := New(Options{Enabled: true, Seed: 1, LossProb: 0.5})
	if injs := Replicas(base, 0); len(injs) != 1 || injs[0] != base {
		t.Errorf("n<1 should yield just the base, got %v", injs)
	}
	injs := Replicas(base, 3)
	if len(injs) != 3 || injs[0] != base {
		t.Fatalf("want 3 injectors with the base first, got %v", injs)
	}
	// Independent draws: the replicas' loss streams must not be copies
	// of the base's.
	for r := 1; r < 3; r++ {
		same := true
		for seq := uint64(0); seq < 64; seq++ {
			if injs[r].LostAttempt(1, 2, seq, 1) != base.LostAttempt(1, 2, seq, 1) {
				same = false
				break
			}
		}
		if same {
			t.Errorf("replica %d's loss stream mirrors the base", r)
		}
	}
}

func TestHedgePolicyDefaults(t *testing.T) {
	if (HedgePolicy{}).Active() || (HedgePolicy{CloneFactor: 1}).Active() {
		t.Error("clone factors below 2 must not hedge")
	}
	if !(HedgePolicy{CloneFactor: 2}).Active() {
		t.Error("clone factor 2 should hedge")
	}
	h := HedgePolicy{CloneFactor: 3, Delay: -time.Second, MaxInflight: 9}.WithDefaults()
	if h.Delay != 0 || h.MaxInflight != 3 {
		t.Errorf("WithDefaults = %+v", h)
	}
}

func TestPlanHedgedDeterministic(t *testing.T) {
	base := New(Options{Enabled: true, Seed: 11, LossProb: 0.4, EngineErrProb: 0.1,
		OutageEvery: 20 * time.Second, OutageFor: 4 * time.Second})
	injs := Replicas(base, 3)
	pol := RetryPolicy{}.WithDefaults()
	hp := HedgePolicy{CloneFactor: 3, Delay: 50 * time.Millisecond}
	p := radio.ThreeG()
	for seq := uint64(0); seq < 200; seq++ {
		a := PlanHedged(injs, pol, hp, p, nil, time.Duration(seq)*time.Second, 0, 42, seq*13, seq)
		b := PlanHedged(injs, pol, hp, p, nil, time.Duration(seq)*time.Second, 0, 42, seq*13, seq)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seq %d: plans differ:\n%+v\n%+v", seq, a, b)
		}
	}
}

// TestPlanHedgedQuietBackends: with nothing failing and a launch delay
// longer than the answer path, the hedge is pure bookkeeping — one
// dispatch, primary wins, zero waste, and the delivered ladder is
// exactly the single-backend plan.
func TestPlanHedgedQuietBackends(t *testing.T) {
	base := New(Options{Enabled: true, Seed: 5})
	injs := Replicas(base, 2)
	pol := RetryPolicy{}.WithDefaults()
	p := radio.ThreeG()
	hp := HedgePolicy{CloneFactor: 2, Delay: 10 * time.Second}
	hplan := PlanHedged(injs, pol, hp, p, nil, 0, 0, 1, 2, 3)
	if hplan.Launches() != 1 {
		t.Fatalf("quiet backends launched %d dispatches, want 1", hplan.Launches())
	}
	if hplan.Winner != 0 || hplan.Wait != 0 || hplan.WastedAttempts != 0 || hplan.WastedActive != 0 {
		t.Errorf("quiet hedge accrued winner=%d wait=%v waste=%d/%v",
			hplan.Winner, hplan.Wait, hplan.WastedAttempts, hplan.WastedActive)
	}
	want := PlanMiss(injs[hplan.Primary.Replica], pol, p, nil, 0, 0, false, 1, 2, 3)
	if got := hplan.Delivered(); !reflect.DeepEqual(got, want) {
		t.Errorf("delivered ladder diverged from the single-backend plan:\n%+v\n%+v", got, want)
	}
}

// TestPlanHedgedCloneWins pins a dead primary against a healthy clone:
// the clone must win, the hedge wait must be its launch offset, and the
// dead primary's started attempts must be charged as waste.
func TestPlanHedgedCloneWins(t *testing.T) {
	dead := New(alwaysDown(3))
	healthy := New(Options{Enabled: true, Seed: 4})
	pol := RetryPolicy{}.WithDefaults()
	p := radio.ThreeG()
	hp := HedgePolicy{CloneFactor: 2, Delay: 100 * time.Millisecond}
	found := false
	for seq := uint64(0); seq < 16; seq++ {
		// hedgeStart rotates the primary; pick a seq whose primary is the
		// dead replica.
		if hedgeStart(2, 9, 7, seq) != 0 {
			continue
		}
		found = true
		hplan := PlanHedged([]*Injector{dead, healthy}, pol, hp, p, nil, 0, 0, 9, 7, seq)
		if hplan.Launches() != 2 {
			t.Fatalf("seq %d: want 2 launches, got %d", seq, hplan.Launches())
		}
		if hplan.Winner != 1 {
			t.Fatalf("seq %d: winner %d, want the clone", seq, hplan.Winner)
		}
		if hplan.Wait != hp.Delay {
			t.Errorf("seq %d: wait %v, want the clone's launch offset %v", seq, hplan.Wait, hp.Delay)
		}
		if hplan.WastedAttempts < 1 {
			t.Errorf("seq %d: dead primary charged no wasted attempts", seq)
		}
		if !hplan.Delivered().Success {
			t.Errorf("seq %d: delivered ladder did not succeed", seq)
		}
		break
	}
	if !found {
		t.Fatal("no seq with the dead replica as primary in 16 tries")
	}
}

func TestPlanHedgedAllFail(t *testing.T) {
	injs := []*Injector{New(alwaysDown(1)), New(alwaysDown(2))}
	pol := RetryPolicy{}.WithDefaults()
	p := radio.ThreeG()
	hp := HedgePolicy{CloneFactor: 2, Delay: 100 * time.Millisecond}
	hplan := PlanHedged(injs, pol, hp, p, nil, 0, 0, 1, 2, 3)
	if hplan.Winner != -1 {
		t.Fatalf("winner %d, want -1 with every replica down", hplan.Winner)
	}
	if hplan.Delivered().Success {
		t.Error("delivered ladder succeeded with every replica down")
	}
	if !reflect.DeepEqual(hplan.Delivered(), hplan.Primary.Plan) {
		t.Error("all-fail must deliver the primary's ladder (the user's replayed spine)")
	}
	clone := hplan.Launch(1)
	if int(hplan.WastedAttempts) != clone.Plan.Attempts || hplan.WastedActive != clone.Plan.FailedActive {
		t.Errorf("clone ladder %d attempts / %v active, wasted %d / %v",
			clone.Plan.Attempts, clone.Plan.FailedActive, hplan.WastedAttempts, hplan.WastedActive)
	}
	wantWait := clone.At + clone.Plan.FailedWait - hplan.Primary.Plan.FailedWait
	if wantWait < 0 {
		wantWait = 0
	}
	if hplan.Wait != wantWait {
		t.Errorf("wait %v, want %v (degrade only after the last ladder gives up)", hplan.Wait, wantWait)
	}
}

func TestPlanHedgedMaxInflight(t *testing.T) {
	injs := []*Injector{New(alwaysDown(1)), New(alwaysDown(2)), New(alwaysDown(3))}
	pol := RetryPolicy{}.WithDefaults()
	p := radio.ThreeG()
	hp := HedgePolicy{CloneFactor: 3, Delay: time.Millisecond, MaxInflight: 1}
	hplan := PlanHedged(injs, pol, hp, p, nil, 0, 0, 1, 2, 3)
	// The primary's failing ladder keeps the single inflight slot busy
	// past every clone's launch point, so no clone may launch.
	if hplan.Launches() != 1 {
		t.Fatalf("max_inflight 1 still launched %d dispatches", hplan.Launches())
	}
}
