package faults_test

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"pocketcloudlets/internal/backend"
	"pocketcloudlets/internal/faults"
	"pocketcloudlets/internal/radio"
)

// TestPlanHedgedOneLaunchOracle holds the plan's degenerate value
// against the ladder primitive it is made of. Under every setting that
// leaves nothing to hedge across — clone factor 0 or 1 on three
// replicas, clone factor 2 on one replica, no injector at all —
// PlanHedged must return the one-launch plan: its delivered ladder is
// exactly PlanMiss on replica 0 started warm iff the link's tail had
// time left, nothing is waited for, wasted or cloned, and
// the plan does not claim to have been planned across replicas. The
// fleet plans every miss through PlanHedged, so this is the check that
// a single-backend miss is still the single-backend ladder.
func TestPlanHedgedOneLaunchOracle(t *testing.T) {
	const draws = 1000
	injectors := []struct {
		name string
		base *faults.Injector
	}{
		{"nil", nil},
		{"inert", faults.New(faults.Options{Enabled: true})},
		{"lossy+outage", faults.New(faults.Options{
			Enabled: true, Seed: 7, LossProb: 0.3, EngineErrProb: 0.2,
			OutageEvery: 30 * time.Second, OutageFor: 6 * time.Second,
		})},
	}
	pricers := []struct {
		name string
		pr   faults.Pricer
	}{
		{"unpriced", nil},
		{"bounded-ps", backend.NewModel(backend.Options{
			Enabled: true, Seed: 3, Replicas: 3, ServiceRate: 30,
			QueueDepth: 4, Discipline: backend.PS, Offered: 60,
		})},
	}
	settings := []struct {
		cloneFactor, replicas int
		nilOnly               bool // hedges for any real injector
	}{
		{0, 3, false},
		{1, 3, false},
		{2, 1, false},
		{2, 3, true},
	}
	pol := faults.RetryPolicy{MaxAttempts: 4}.WithDefaults()
	link := radio.ThreeG()
	for _, in := range injectors {
		for _, pc := range pricers {
			for _, set := range settings {
				if set.nilOnly && in.base != nil {
					continue
				}
				injs := faults.Replicas(in.base, set.replicas)
				hedge := faults.HedgePolicy{CloneFactor: set.cloneFactor, Delay: 20 * time.Millisecond}
				rng := rand.New(rand.NewSource(int64(set.cloneFactor*10 + set.replicas)))
				var failed int
				for i := 0; i < draws; i++ {
					now := time.Duration(rng.Int63n(int64(10 * time.Minute)))
					tailLeft := time.Duration(0)
					if rng.Intn(2) == 0 {
						tailLeft = time.Duration(rng.Int63n(int64(link.TailDuration)) + 1)
					}
					uid, qh, seq := rng.Uint64()%500, rng.Uint64(), rng.Uint64()%64

					hp := faults.PlanHedged(injs, pol, hedge, link, pc.pr, now, tailLeft, uid, qh, seq)
					want := faults.PlanMiss(injs[0], pol, link, pc.pr, 0, now, tailLeft > 0, uid, qh, seq)
					if !reflect.DeepEqual(hp.Delivered(), want) {
						t.Fatalf("%s/%s/clone %d on %d: draw %d delivers\n  %+v\nwant the replica-0 ladder\n  %+v",
							in.name, pc.name, set.cloneFactor, set.replicas, i, hp.Delivered(), want)
					}
					wantWinner := int32(0)
					if !want.Success {
						wantWinner = -1
						failed++
					}
					if hp.Launches() != 1 || hp.Clones() != 0 || hp.Hedged || hp.Winner != wantWinner ||
						hp.Primary.Replica != 0 || hp.Primary.At != 0 ||
						hp.Wait != 0 || hp.WastedAttempts != 0 || hp.WastedActive != 0 {
						t.Fatalf("%s/%s/clone %d on %d: draw %d is not the one-launch plan: %+v",
							in.name, pc.name, set.cloneFactor, set.replicas, i, hp)
					}
				}
				// The lossy profile must actually exhaust ladders, or the
				// Winner = -1 half of the oracle proved nothing.
				if in.name == "lossy+outage" && failed == 0 {
					t.Errorf("%s/%s/clone %d on %d: no ladder exhausted in %d draws",
						in.name, pc.name, set.cloneFactor, set.replicas, draws)
				}
			}
		}
	}
}
