package faults_test

import (
	"testing"
	"time"

	"pocketcloudlets/internal/backend"
	"pocketcloudlets/internal/faults"
	"pocketcloudlets/internal/radio"
)

var benchClones int

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
	retry := faults.RetryPolicy{MaxAttempts: 3, WallPauseScale: -1}.WithDefaults()
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
