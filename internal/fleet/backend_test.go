package fleet

import (
	"reflect"
	"testing"
	"time"

	"pocketcloudlets/internal/backend"
	"pocketcloudlets/internal/engine"
	"pocketcloudlets/internal/faults"
	"pocketcloudlets/internal/searchlog"
)

// backendBiteFaults is a fault mix that sends plenty of ladders to the
// replicas without drowning the run in outages.
func backendBiteFaults(seed int64) faults.Options {
	return faults.Options{Enabled: true, Seed: seed, LossProb: 0.2, EngineErrProb: 0.1}
}

// TestBackendRequiresFaults: the admission planner lives on the faulted
// miss path, so enabling the backend without fault injection is a
// configuration error, not a silent no-op.
func TestBackendRequiresFaults(t *testing.T) {
	g := smallGen(t, 16)
	content := smallContent(t, g)
	cfg := Config{
		Engine:  engine.New(g.Config().Universe),
		Content: content,
		Shards:  1, Workers: 1,
		Backend: backend.Options{Enabled: true, ServiceRate: 10},
	}
	if _, err := New(cfg); err == nil {
		t.Fatal("backend without faults built a fleet")
	}
}

// TestBackendDeterministicConcurrent extends the byte-determinism
// guarantee to queued backends (run under -race by scripts/check.sh):
// two concurrent closed-loop runs over a congested, hedged, bounded
// backend must agree exactly — traces, counters and per-replica
// backend accounting — and the accounting must cross-foot: arrivals
// partition into served, rejected and abandoned on every replica.
func TestBackendDeterministicConcurrent(t *testing.T) {
	g := smallGen(t, 32)
	content := smallContent(t, g)
	users := g.Users()[:24]

	run := func() (map[searchlog.UserID]*faultTrace, Stats) {
		f := newTestFleet(t, g, content, func(cfg *Config) {
			cfg.QueueDepth = 4096
			cfg.Faults = backendBiteFaults(5)
			cfg.Retry = faults.RetryPolicy{MaxAttempts: 3, WallPauseScale: -1}
			cfg.Breaker = BreakerOptions{Threshold: -1}
			cfg.Replicas = 3
			cfg.Hedge = faults.HedgePolicy{CloneFactor: 2, Delay: 200 * time.Millisecond}
			cfg.Backend = backend.Options{
				Enabled: true, Seed: 11, ServiceRate: 5,
				Offered: 8, QueueDepth: 16, Discipline: backend.FIFO,
				CancelOnWin: true,
			}
		})
		return runFaultTraces(t, f, g, users), f.Stats()
	}

	tr1, s1 := run()
	tr2, s2 := run()
	if !reflect.DeepEqual(s1, s2) {
		t.Errorf("counters diverge across identical runs:\n  run 1: %+v\n  run 2: %+v", s1, s2)
	}
	if !reflect.DeepEqual(tr1, tr2) {
		t.Error("per-user traces diverge across identical queued-backend runs")
	}
	if len(s1.Backend) != 3 {
		t.Fatalf("want 3 replica stats, got %d", len(s1.Backend))
	}
	var arrivals, busy int64
	for r, bs := range s1.Backend {
		if bs.Arrivals != bs.Served+bs.Rejected+bs.Abandoned {
			t.Errorf("replica %d does not cross-foot: %+v", r, bs)
		}
		arrivals += bs.Arrivals
		busy += bs.BusyNs
	}
	if arrivals == 0 || busy == 0 {
		t.Fatalf("congested backend saw no work: arrivals %d, busy %d", arrivals, busy)
	}
}

// TestBackendCongestionIsVisible: a finite-rate backend under offered
// load must stretch the model — users wait out real queue and service
// time — and its replicas must report that time as busy.
func TestBackendCongestionIsVisible(t *testing.T) {
	g := smallGen(t, 32)
	content := smallContent(t, g)
	users := g.Users()[:24]

	run := func(bo backend.Options) (Stats, time.Duration) {
		f := newTestFleet(t, g, content, func(cfg *Config) {
			cfg.QueueDepth = 4096
			cfg.Faults = backendBiteFaults(5)
			cfg.Retry = faults.RetryPolicy{MaxAttempts: 3, WallPauseScale: -1}
			cfg.Breaker = BreakerOptions{Threshold: -1}
			cfg.Backend = bo
		})
		runFaultTraces(t, f, g, users)
		return f.Stats(), f.ModelMakespan()
	}

	// The queue bound matters: at offered 3 vs rate 2 an unbounded PS
	// queue's sojourn times diverge with the horizon (see
	// backend.taggedMaxArrivals); the bound keeps waits finite the way a
	// real admission-controlled server would.
	_, mkOff := run(backend.Options{})
	s, mkOn := run(backend.Options{
		Enabled: true, Seed: 11, ServiceRate: 2, Offered: 3,
		Discipline: backend.PS, QueueDepth: 8,
	})
	if mkOn <= mkOff {
		t.Errorf("queued backend did not stretch the model: %v vs %v", mkOn, mkOff)
	}
	bs := s.Backend[0]
	if bs.BusyNs == 0 || bs.WaitSumNs == 0 {
		t.Errorf("congested PS replica reports no busy/wait time: %+v", bs)
	}
	if bs.Utilization() <= 0 {
		t.Errorf("utilization not positive: %v", bs.Utilization())
	}
	if bs.MeanWait() <= 0 || bs.P99Wait() < bs.MeanWait() {
		t.Errorf("wait summary inconsistent: mean %v p99 %v", bs.MeanWait(), bs.P99Wait())
	}
}

// TestBackendCloneLoadFollowsResolvedPolicy: the backend's background
// load scales with the cloning the fleet really does, not with the
// clone factor somebody configured. On one replica a clone factor of 2
// resolves to no hedging — no miss ever clones — so the replica must
// simmer under the same background arrival rate, and every response
// must be identical, with the hedge policy set and with it zero. The
// same goes for three replicas whose only hedging cohort has no
// injector to hedge with.
func TestBackendCloneLoadFollowsResolvedPolicy(t *testing.T) {
	g := smallGen(t, 16)
	content := smallContent(t, g)
	users := g.Users()[:12]

	for _, tc := range []struct {
		name     string
		replicas int
		// hedge applies policy hp (zero for the unhedged twin) to the fleet.
		hedge func(cfg *Config, hp faults.HedgePolicy)
	}{
		{"one replica", 1, func(cfg *Config, hp faults.HedgePolicy) { cfg.Hedge = hp }},
		{"hedging cohort without an injector", 3, func(cfg *Config, hp faults.HedgePolicy) {
			cfg.Cohorts = []Cohort{{Name: "clean", Faults: &faults.Options{}, Hedge: &hp}}
			cfg.CohortOf = func(uid searchlog.UserID) int { return int(uid%2) - 1 }
		}},
	} {
		run := func(hp faults.HedgePolicy) (map[searchlog.UserID][]Response, Stats) {
			f := newTestFleet(t, g, content, func(cfg *Config) {
				cfg.QueueDepth = 4096
				cfg.Faults = backendBiteFaults(5)
				cfg.Retry = faults.RetryPolicy{MaxAttempts: 3, WallPauseScale: -1}
				cfg.Breaker = BreakerOptions{Threshold: -1}
				cfg.Replicas = tc.replicas
				cfg.Backend = backend.Options{
					Enabled: true, Seed: 11, ServiceRate: 2, Offered: 1.5,
					Discipline: backend.PS, QueueDepth: 8,
				}
				tc.hedge(cfg, hp)
			})
			return runResponses(t, f, g, users), f.Stats()
		}
		plain, plainStats := run(faults.HedgePolicy{})
		got, gotStats := run(faults.HedgePolicy{CloneFactor: 2, Delay: 50 * time.Millisecond})
		if plainStats.Backend[0].WaitSumNs == 0 {
			t.Fatalf("%s: the background load never queued anything", tc.name)
		}
		if !reflect.DeepEqual(plain, got) {
			t.Errorf("%s: an unhedgeable clone factor changed what users were served", tc.name)
		}
		if !reflect.DeepEqual(plainStats, gotStats) {
			t.Errorf("%s: an unhedgeable clone factor changed the fleet counters:\n  %+v\n  %+v", tc.name, plainStats, gotStats)
		}
	}
}
