package fleet

import (
	"reflect"
	"sync"
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

// TestBackendDeterministicConcurrent: a priced miss is planned by the
// goroutine serving it under no lock and replays the backend queue under
// no lock, yet what a user is served cannot depend on who else is
// pricing at the time (run under -race -count 3 by scripts/check.sh).
// Four closed-loop clients over a congested, hedged, bounded backend must
// serve every user exactly what one client serving them all does — the
// per-user responses, the model makespan and every Stats field,
// per-replica backend accounting included. Each route a priced miss
// takes is a row:
//   - caller-run: planned and then applied by the blocking caller, on a
//     FIFO backend;
//   - slow-priced: the same route on a PS backend, every Price of the
//     four-client run held open by a slowPricer, so misses of the other
//     clients' users plan and apply while each one is pending;
//   - batched: a dispatcher coalesces every miss. Batch composition
//     follows the clients and shifts model clocks, so this row's backend
//     has no background load (a price that no clock moves), and the two
//     runs compare fault traces and the counters sessions do not book.
//
// The accounting must cross-foot too: arrivals partition into served,
// rejected and abandoned on every replica.
func TestBackendDeterministicConcurrent(t *testing.T) {
	g := smallGen(t, 32)
	content := smallContent(t, g)
	users := g.Users()[:24]

	congested := func(disc backend.Discipline) backend.Options {
		return backend.Options{
			Enabled: true, Seed: 11, ServiceRate: 5,
			Offered: 8, QueueDepth: 16, Discipline: disc,
			CancelOnWin: true,
		}
	}
	for _, route := range []struct {
		name    string
		batch   bool
		sleep   time.Duration
		backend backend.Options
	}{
		{"caller-run", false, 0, congested(backend.FIFO)},
		{"slow-priced", false, 10 * time.Microsecond, congested(backend.PS)},
		{"batched", true, 0,
			backend.Options{Enabled: true, Seed: 11, ServiceRate: 4, Discipline: backend.PS, CancelOnWin: true}},
	} {
		run := func(clients int) missPathRun {
			f := newTestFleet(t, g, content, func(cfg *Config) {
				cfg.QueueDepth = 4096
				cfg.Faults = backendBiteFaults(5)
				cfg.Retry = faults.RetryPolicy{MaxAttempts: 3}
				cfg.Replicas = 3
				hedgeAll(cfg, faults.HedgePolicy{CloneFactor: 2, Delay: 200 * time.Millisecond})
				cfg.Backend = route.backend
				if route.batch {
					cfg.Batch = BatchOptions{Enabled: true, Linger: time.Millisecond}
				}
			})
			if route.sleep > 0 && clients > 1 {
				slowPricing(f, route.sleep)
			}
			return missPathRun{resps: runClients(t, f, g, users, clients), stats: f.Stats(), makespan: f.ModelMakespan()}
		}
		one, four := run(1), run(4)
		if diff := sameModel(one, four, !route.batch, false, func(*Stats) {}); diff != "" {
			t.Errorf("%s: four clients ≢ one: %s", route.name, diff)
		}
		s := four.stats
		if s.Retries == 0 || s.ClonesLaunched == 0 || route.batch != (s.Batches > 0) {
			t.Errorf("%s: the run did not take its route: %d retries, %d clones, %d batches",
				route.name, s.Retries, s.ClonesLaunched, s.Batches)
		}
		if len(s.Backend) != 3 {
			t.Fatalf("%s: want 3 replica stats, got %d", route.name, len(s.Backend))
		}
		var arrivals, busy, waited int64
		for r, bs := range s.Backend {
			if bs.Arrivals != bs.Served+bs.Rejected+bs.Abandoned {
				t.Errorf("%s: replica %d does not cross-foot: %+v", route.name, r, bs)
			}
			arrivals += bs.Arrivals
			busy += bs.BusyNs
			waited += bs.WaitSumNs
		}
		if arrivals == 0 || busy == 0 || (route.backend.Offered > 0) != (waited > 0) {
			t.Errorf("%s: backend saw arrivals %d, busy %d, queue wait %d", route.name, arrivals, busy, waited)
		}
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
			cfg.Retry = faults.RetryPolicy{MaxAttempts: 3}
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
		{"one replica", 1, hedgeAll},
		{"hedging cohort without an injector", 3, func(cfg *Config, hp faults.HedgePolicy) {
			cfg.Cohorts = []Cohort{{Name: "clean", Faults: &faults.Options{}, Hedge: &hp}}
			cfg.CohortOf = func(uid searchlog.UserID) int { return int(uid%2) - 1 }
		}},
	} {
		run := func(hp faults.HedgePolicy) (map[searchlog.UserID][]Response, Stats) {
			f := newTestFleet(t, g, content, func(cfg *Config) {
				cfg.QueueDepth = 4096
				cfg.Faults = backendBiteFaults(5)
				cfg.Retry = faults.RetryPolicy{MaxAttempts: 3}
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

// BenchmarkFleetDoPricedMiss is fault_hedge's miss path at layer scale:
// two goroutines send caller-run Do misses to a 2-shard fleet that
// prices every dispatch against the workload's queued backend (three PS
// replicas at 30/s, 16 deep, offered 20, cancel-on-win) under its
// faults (loss 0.1, a 6 s/30 s outage, three attempts, clone factor 2).
// Personal caches never expand, so each client replays the misses of
// its own users' first month over and over; every user's clock, and so
// the horizon the replicas replay, keeps moving forward as fault_hedge's
// does. ns/op is wall time per request over both clients.
func BenchmarkFleetDoPricedMiss(b *testing.B) {
	const clients, usersPerClient = 2, 100
	gen := smallGen(b, clients*usersPerClient)
	f := newTestFleet(b, gen, smallContent(b, gen), func(cfg *Config) {
		cfg.Shards = 2
		cfg.Options.DiscardResults = true
		cfg.Options.DisablePersonalization = true
		cfg.Faults = faults.Options{Enabled: true, Seed: 1, LossProb: 0.1, OutageEvery: 30 * time.Second, OutageFor: 6 * time.Second}
		cfg.Retry = faults.RetryPolicy{MaxAttempts: 3}
		cfg.Replicas = 3
		hedgeAll(cfg, faults.HedgePolicy{CloneFactor: 2})
		cfg.Backend = backend.Options{
			Enabled: true, Seed: 1, ServiceRate: 30, QueueDepth: 16,
			Discipline: backend.PS, Offered: 20, CancelOnWin: true,
		}
	})
	var tapes [clients][]Request
	for c := range tapes {
		for _, up := range gen.Users()[c*usersPerClient : (c+1)*usersPerClient] {
			for _, r := range requestsFor(gen, up, 0) {
				if !f.Do(r).Hit() {
					tapes[c] = append(tapes[c], r)
				}
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	for c := range tapes {
		n := b.N / clients
		if c == 0 {
			n += b.N % clients
		}
		wg.Add(1)
		go func(tape []Request, n int) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				if resp := f.Do(tape[i%len(tape)]); resp.Err != nil || resp.Hit() {
					b.Errorf("want a miss, got %+v", resp)
					return
				}
			}
		}(tapes[c], n)
	}
	wg.Wait()
}
