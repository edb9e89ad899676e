package fleet

import (
	"context"
	"reflect"
	"sync"
	"testing"
	"time"

	"pocketcloudlets/internal/faults"
	"pocketcloudlets/internal/searchlog"
	"pocketcloudlets/internal/workload"
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
			cfg.Retry = faults.RetryPolicy{MaxAttempts: 3, WallPauseScale: -1}
			cfg.Breaker = BreakerOptions{Threshold: -1}
			cfg.Replicas = 3
			cfg.Hedge = faults.HedgePolicy{CloneFactor: 2, Delay: 200 * time.Millisecond}
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
			cfg.Retry = faults.RetryPolicy{MaxAttempts: 2, WallPauseScale: -1}
			cfg.Breaker = BreakerOptions{Threshold: -1}
			cfg.Replicas = replicas
			cfg.Hedge = hedge
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

// TestHedgedExactlyOnceWithCancels re-runs the caller-cancellation
// accounting with hedging in flight: canceled, served and shed must
// still sum to the submissions exactly once each.
func TestHedgedExactlyOnceWithCancels(t *testing.T) {
	g := smallGen(t, 16)
	content := smallContent(t, g)
	uid := g.Users()[0].ID

	f := newTestFleet(t, g, content, func(cfg *Config) {
		cfg.Shards = 1
		cfg.Workers = 1
		cfg.Faults = faults.Options{Enabled: true, LossProb: 1}
		cfg.Retry = faults.RetryPolicy{
			MaxAttempts:    4,
			WallPauseScale: 1,
			MaxWallPause:   100 * time.Millisecond,
		}
		cfg.Breaker = BreakerOptions{Threshold: -1}
		cfg.Replicas = 3
		cfg.Hedge = faults.HedgePolicy{CloneFactor: 2}
	})

	miss := missBeyondContent(t, g, len(content.Triplets), uid)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	if resp := f.DoContext(ctx, miss); !resp.Canceled {
		t.Fatalf("mid-pause cancel = %+v, want Canceled", resp)
	}
	if resp := f.Do(miss); resp.Source != SourceUnavailable && resp.Source != SourceDegraded {
		t.Fatalf("all-lossy hedged miss = %+v, want a degraded serve", resp)
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		s := f.Stats()
		if s.Served+s.Shed+s.Canceled == 2 {
			if s.Canceled != 1 || s.Served != 1 {
				t.Fatalf("cancel accounting off: %+v", s)
			}
			// Loss probability 1 on every replica: nothing may win.
			if s.PrimaryWins+s.CloneWins != 0 || s.CloudMisses != 0 {
				t.Fatalf("wins through total loss: %+v", s)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("submissions never fully booked: %+v", s)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestBreakerHalfOpenProbeConcurrent exercises the per-replica breaker
// state machine under concurrent misses (run under -race by
// scripts/check.sh): a dead zone opens the primary breakers and the
// cooldown/half-open cycle runs with real (tiny) pauses; once the model
// clocks escape the window, probes succeed, breakers close, and cloud
// serves resume. Per-replica opens must sum to the fleet total.
func TestBreakerHalfOpenProbeConcurrent(t *testing.T) {
	g := smallGen(t, 32)
	content := smallContent(t, g)
	users := g.Users()[:24]

	f := newTestFleet(t, g, content, func(cfg *Config) {
		cfg.QueueDepth = 4096
		cfg.Faults = faults.Options{
			Enabled: true,
			// Down for the first 20 model seconds, healthy after: every
			// user's early misses exhaust, later ones succeed.
			Windows: []faults.Window{{Start: 0, End: 20 * time.Second}},
		}
		cfg.Retry = faults.RetryPolicy{
			MaxAttempts:    2,
			WallPauseScale: 0.0001,
			MaxWallPause:   time.Millisecond,
		}
		cfg.Breaker = BreakerOptions{Threshold: 2, Cooldown: 3}
		cfg.Replicas = 2
	})

	var wg sync.WaitGroup
	for _, up := range users {
		wg.Add(1)
		go func(up workload.UserProfile) {
			defer wg.Done()
			for _, req := range requestsFor(g, up, 1) {
				if resp := f.Do(req); resp.Shed || resp.Err != nil {
					t.Errorf("user %d request failed: %+v", up.ID, resp)
					return
				}
			}
		}(up)
	}
	wg.Wait()

	s := f.Stats()
	if s.BreakerOpens == 0 {
		t.Error("breaker never opened against the dead zone")
	}
	if s.CloudMisses == 0 {
		t.Error("no cloud serve after recovery; half-open probes never closed the breaker")
	}
	if len(s.ReplicaBreakerOpens) != 2 {
		t.Fatalf("want 2 per-replica breaker rows, got %v", s.ReplicaBreakerOpens)
	}
	var sum int64
	for _, n := range s.ReplicaBreakerOpens {
		sum += n
	}
	if sum != s.BreakerOpens {
		t.Errorf("per-replica opens %v sum to %d, fleet total %d", s.ReplicaBreakerOpens, sum, s.BreakerOpens)
	}
}
