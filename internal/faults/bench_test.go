package faults_test

import (
	"testing"
	"time"

	"pocketcloudlets/internal/backend"
	"pocketcloudlets/internal/faults"
	"pocketcloudlets/internal/radio"
)

var benchClones, benchAttempts int

// cleanPlans are misses that have nothing to go wrong and nothing to
// hedge across — a cohort with no injector (whose resolved policy is the
// zero one), and an inert injector under clone factor 1, both on three
// replicas and unpriced — planned through PlanHedged, the way the fleet
// plans every miss.
var cleanPlans = []struct {
	name  string
	injs  []*faults.Injector
	hedge faults.HedgePolicy
}{
	{"nil-injector", faults.Replicas(nil, 3), faults.HedgePolicy{}},
	{"inert", faults.Replicas(faults.New(faults.Options{Enabled: true}), 3), faults.HedgePolicy{CloneFactor: 1}},
}

var (
	cleanRetry = faults.RetryPolicy{}.WithDefaults()
	cleanLink  = radio.ThreeG()
)

// planClean plans the i-th miss of cleanPlans[c].
func planClean(c, i int) {
	hp := faults.PlanHedged(cleanPlans[c].injs, cleanRetry, cleanPlans[c].hedge, cleanLink, nil,
		time.Duration(i)*time.Second, 0, uint64(i%600), uint64(i)*0x9E3779B97F4A7C15, uint64(i))
	benchAttempts += hp.Primary.Plan.Attempts
}

// TestPlanCleanAllocatesNothing holds a clean miss's plan at 0
// allocations: its one-launch plan holds its only launch inline, and an
// unfailed, unpriced ladder has no slices to fill (DESIGN.md, "The miss
// path").
func TestPlanCleanAllocatesNothing(t *testing.T) {
	const ceiling = 0
	for c, bc := range cleanPlans {
		i := 0
		if n := testing.AllocsPerRun(20000, func() { planClean(c, i); i++ }); n > ceiling {
			t.Errorf("%s: a clean plan allocates %.0f objects, recorded %d", bc.name, n, ceiling)
		}
	}
}

// BenchmarkPlanClean times cleanPlans.
func BenchmarkPlanClean(b *testing.B) {
	for c, bc := range cleanPlans {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				planClean(c, i)
			}
		})
	}
}

// BenchmarkPlanHedgedPriced plans hedged misses against the queued
// backend under the fault_hedge profile of the repository benchmark
// (loss 0.1, a 6 s outage every 30 s, three bounded PS replicas, clone
// factor 2), one miss every 700 ms of a single model clock. One untimed
// pass explores the horizon first; what is left to allocate in the
// timed loop is the plans' own result slices.
func BenchmarkPlanHedgedPriced(b *testing.B) {
	const (
		misses = 8192
		step   = 700 * time.Millisecond
	)
	injs := faults.Replicas(faults.New(faults.Options{
		Enabled: true, Seed: 1, LossProb: 0.1,
		OutageEvery: 30 * time.Second, OutageFor: 6 * time.Second,
	}), 3)
	pricer := backend.NewModel(backend.Options{
		Enabled: true, Seed: 1, Replicas: 3, CloneFactor: 2,
		ServiceRate: 30, QueueDepth: 16, Discipline: backend.PS,
		Offered: 20, CancelOnWin: true,
	})
	retry := faults.RetryPolicy{MaxAttempts: 3}.WithDefaults()
	hedge := faults.HedgePolicy{CloneFactor: 2}
	link := radio.ThreeG()
	plan := func(i int) {
		k := i % misses
		hp := faults.PlanHedged(injs, retry, hedge, link, pricer, time.Duration(k)*step, 0,
			uint64(k%600), uint64(k)*0x9E3779B97F4A7C15, uint64(k))
		benchClones += hp.Clones()
	}
	for i := 0; i < misses; i++ {
		plan(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan(i)
	}
}
