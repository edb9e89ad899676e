package fleet

import (
	"reflect"
	"testing"
	"time"

	"pocketcloudlets/internal/faults"
	"pocketcloudlets/internal/searchlog"
)

// hedgeBiteFaults is a fault scenario nasty enough that hedging has
// work to do: a 20% outage duty cycle that starts down plus per-attempt
// loss, so early misses exhaust and clones get to race their primaries.
func hedgeBiteFaults(seed int64) faults.Options {
	return faults.Options{
		Enabled:     true,
		Seed:        seed,
		LossProb:    0.25,
		OutageEvery: 30 * time.Second,
		OutageFor:   6 * time.Second,
	}
}

// hedgeAll makes every user hedge their cloud misses under hp: one
// cohort, inheriting the fleet-wide radio, faults and retry policy,
// covers the whole population.
func hedgeAll(cfg *Config, hp faults.HedgePolicy) {
	cfg.Cohorts = []Cohort{{Name: "hedged", Hedge: &hp}}
	cfg.CohortOf = func(searchlog.UserID) int { return 0 }
}

// TestHedgedDeterministicConcurrent extends the fault-determinism
// guarantee to the hedged path (run under -race by scripts/check.sh):
// two concurrent closed-loop runs over replicated backends with hedging
// on must produce byte-identical traces and counters, and the hedge
// telemetry must cross-foot — every hedged cloud serve won by exactly
// one dispatch, clone wins bounded by clones launched.
func TestHedgedDeterministicConcurrent(t *testing.T) {
	g := smallGen(t, 32)
	content := smallContent(t, g)
	users := g.Users()[:24]

	run := func() (map[searchlog.UserID]*faultTrace, Stats) {
		f := newTestFleet(t, g, content, func(cfg *Config) {
			cfg.QueueDepth = 4096
			cfg.Faults = hedgeBiteFaults(5)
			cfg.Retry = faults.RetryPolicy{MaxAttempts: 3}
			cfg.Replicas = 3
			hedgeAll(cfg, faults.HedgePolicy{CloneFactor: 2, Delay: 200 * time.Millisecond})
		})
		return runFaultTraces(t, f, g, users), f.Stats()
	}

	tr1, s1 := run()
	tr2, s2 := run()
	if !reflect.DeepEqual(s1, s2) {
		t.Errorf("hedged counters diverge across identical runs:\n  run 1: %+v\n  run 2: %+v", s1, s2)
	}
	if !reflect.DeepEqual(tr1, tr2) {
		t.Error("per-user traces diverge across identical hedged runs")
	}
	if s1.ClonesLaunched == 0 {
		t.Error("no clones launched; the hedge never engaged")
	}
	if s1.CloneWins == 0 {
		t.Error("no clone wins; phase-shifted replica outages should let clones rescue misses")
	}
	if s1.PrimaryWins+s1.CloneWins != s1.CloudMisses {
		t.Errorf("wins %d+%d do not partition the %d cloud serves",
			s1.PrimaryWins, s1.CloneWins, s1.CloudMisses)
	}
	if s1.CloneWins > s1.ClonesLaunched {
		t.Errorf("clone wins %d exceed clones launched %d", s1.CloneWins, s1.ClonesLaunched)
	}
}

// TestHedgingImprovesAvailability is the paper-facing claim: under a
// 20% outage duty cycle, dispatching each miss to two of three
// independently faulted replicas must answer strictly more requests
// than riding the single backend's retry ladder.
func TestHedgingImprovesAvailability(t *testing.T) {
	g := smallGen(t, 32)
	content := smallContent(t, g)
	users := g.Users()[:24]

	run := func(replicas int, hedge faults.HedgePolicy) Stats {
		f := newTestFleet(t, g, content, func(cfg *Config) {
			cfg.QueueDepth = 4096
			cfg.Faults = faults.Options{
				Enabled:     true,
				Seed:        5,
				OutageEvery: 30 * time.Second,
				OutageFor:   6 * time.Second,
			}
			cfg.Retry = faults.RetryPolicy{MaxAttempts: 2}
			cfg.Replicas = replicas
			hedgeAll(cfg, hedge)
		})
		runFaultTraces(t, f, g, users)
		return f.Stats()
	}

	plain := run(1, faults.HedgePolicy{})
	hedged := run(3, faults.HedgePolicy{CloneFactor: 2, Delay: 100 * time.Millisecond})
	if plain.Exhausted == 0 {
		t.Fatal("baseline outage did not bite; the comparison proves nothing")
	}
	if hedged.Exhausted >= plain.Exhausted {
		t.Errorf("hedging did not reduce exhaustion: %d hedged vs %d plain",
			hedged.Exhausted, plain.Exhausted)
	}
	if hedged.AnsweredRate() <= plain.AnsweredRate() {
		t.Errorf("hedging did not improve answered rate: %v hedged vs %v plain",
			hedged.AnsweredRate(), plain.AnsweredRate())
	}
}

// TestHedgedTotalLossWinsNothing: with every attempt on every replica
// lost, a hedged miss degrades, is booked once as served, and no
// dispatch — primary or clone — is credited with a win.
func TestHedgedTotalLossWinsNothing(t *testing.T) {
	g := smallGen(t, 16)
	content := smallContent(t, g)
	uid := g.Users()[0].ID

	f := newTestFleet(t, g, content, func(cfg *Config) {
		cfg.Shards = 1
		cfg.Workers = 1
		cfg.Faults = faults.Options{Enabled: true, LossProb: 1}
		cfg.Retry = faults.RetryPolicy{MaxAttempts: 4}
		cfg.Replicas = 3
		hedgeAll(cfg, faults.HedgePolicy{CloneFactor: 2})
	})

	miss := missBeyondContent(t, g, len(content.Triplets), uid)
	if resp := f.Do(miss); resp.Source != SourceUnavailable && resp.Source != SourceDegraded {
		t.Fatalf("all-lossy hedged miss = %+v, want a degraded serve", resp)
	}
	s := f.Stats()
	if s.Served != 1 || s.Shed != 0 || s.ClonesLaunched == 0 {
		t.Fatalf("want one served hedged miss: %+v", s)
	}
	if s.PrimaryWins+s.CloneWins != 0 || s.CloudMisses != 0 {
		t.Fatalf("wins through total loss: %+v", s)
	}
}
