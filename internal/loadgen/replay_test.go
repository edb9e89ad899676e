package loadgen_test

import (
	"reflect"
	"testing"
	"time"

	"pocketcloudlets/internal/autoscale"
	"pocketcloudlets/internal/fleet"
	"pocketcloudlets/internal/loadgen"
	"pocketcloudlets/internal/modeltime"
)

// TestReplayByHandMatchesRunOpen drives a fleet the way an out-of-tree
// driver (the benchmark's traced re-drive) does — Materialize, then
// Submit by hand with the exported Replay's Next/Fire as the only
// control plane — and requires the model state RunOpen leaves: per-user
// serve counts, the autoscaler's action log and the energy ledger. (No
// timeline events: a resize not preceded by a drain stamps the shards'
// idle-power clocks at whatever makespan the workers have reached.)
func TestReplayByHandMatchesRunOpen(t *testing.T) {
	g := loadgen.SmallGen(t, 64)
	content := loadgen.SmallContent(t, g)
	for _, seed := range []int64{1, 7} {
		cfg := loadgen.OpenConfig{
			QPS: 2000, Duration: 500 * time.Millisecond, Month: 1, Seed: seed,
			Classes: []loadgen.OpenClassConfig{{Hi: 64, QPSShare: 1, Arrivals: modeltime.Diurnal, DiurnalPeak: 6}},
			Autoscale: &autoscale.Config{
				Interval: 50 * time.Millisecond, Min: 2, Max: 12, RatePerShard: 600,
			},
		}

		rf, col := loadgen.NewRingRig(t, g, content, 4)
		report, err := loadgen.RunOpen(rf, col, g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if report.Shed != 0 || len(report.Autoscale.Actions) == 0 {
			t.Fatalf("seed %d: shed %d, %d autoscale actions; the comparison needs a shed-free run that resizes",
				seed, report.Shed, len(report.Autoscale.Actions))
		}

		hf, _ := loadgen.NewRingRig(t, g, content, 4)
		events, err := loadgen.OpenEvents(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		p, err := loadgen.NewReplay(hf, cfg, events)
		if err != nil {
			t.Fatal(err)
		}
		fire := func(through time.Duration) {
			for at, ok := p.Next(); ok && at <= through; at, ok = p.Next() {
				if err := p.Fire(); err != nil {
					t.Fatal(err)
				}
			}
		}
		for _, ev := range events {
			fire(ev.At)
			hf.Submit(fleet.Request{User: ev.User, Query: ev.Query, Click: ev.Click, Class: ev.Class})
		}
		fire(1<<63 - 1)
		hf.Drain()

		if !reflect.DeepEqual(hf.UserServeCounts(), rf.UserServeCounts()) {
			t.Errorf("seed %d: per-user serve counts diverge from RunOpen's", seed)
		}
		var actions []loadgen.AutoscaleAction
		for _, a := range p.Actions() {
			actions = append(actions, loadgen.AutoscaleAction{AtNS: int64(a.At), From: a.From, To: a.To, Occupancy: a.Occupancy})
		}
		if !reflect.DeepEqual(actions, report.Autoscale.Actions) {
			t.Errorf("seed %d: action log diverges:\n by hand %+v\n RunOpen %+v", seed, actions, report.Autoscale.Actions)
		}
		if hand, run := hf.EnergyStats(), rf.EnergyStats(); hand != run {
			t.Errorf("seed %d: energy ledgers diverge:\n by hand %+v\n RunOpen %+v", seed, hand, run)
		}
	}
}
