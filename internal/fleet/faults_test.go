package fleet

import (
	"maps"
	"reflect"
	"sync"
	"testing"
	"time"

	"pocketcloudlets/internal/faults"
	"pocketcloudlets/internal/searchlog"
	"pocketcloudlets/internal/workload"
)

// forever is the end of a permanent outage window.
const forever = time.Duration(1) << 60

// faultTrace is one user's per-request outcome sequence under fault
// injection — the unit of the fault-determinism guarantee.
type faultTrace struct {
	hits     []bool
	sources  []Source
	attempts []int
}

// runResponses drives every user's month-1 tape through the fleet
// closed-loop, each user from its own goroutine, and returns the per-user
// responses, with the measured wall latency — the one field that is not
// modeled — zeroed.
func runResponses(t *testing.T, f *Fleet, g *workload.Generator, users []workload.UserProfile) map[searchlog.UserID][]Response {
	t.Helper()
	return runClients(t, f, g, users, len(users))
}

// runClients drives every user's month-1 tape through the fleet
// closed-loop from the given number of client goroutines, the way the
// load generator's closed mode does: client c owns the users at
// positions c, c+clients, …, takes one request from each in turn and
// waits for every response. Wall latency is zeroed.
func runClients(t *testing.T, f *Fleet, g *workload.Generator, users []workload.UserProfile, clients int) map[searchlog.UserID][]Response {
	t.Helper()
	resps := make(map[searchlog.UserID][]Response, len(users))
	var mu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var tapes [][]Request
			for i := c; i < len(users); i += clients {
				tapes = append(tapes, requestsFor(g, users[i], 1))
			}
			mine := make(map[searchlog.UserID][]Response, len(tapes))
			for k, more := 0, true; more; k++ {
				more = false
				for _, tape := range tapes {
					if k >= len(tape) {
						continue
					}
					more = true
					resp := f.Do(tape[k])
					if resp.Shed || resp.Err != nil {
						t.Errorf("user %d request failed: %+v", tape[k].User, resp)
						return
					}
					resp.Wall = 0
					mine[resp.Req.User] = append(mine[resp.Req.User], resp)
				}
			}
			mu.Lock()
			maps.Copy(resps, mine)
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	return resps
}

// recorder is an Observer keeping every response per user in the order
// observed, wall latency zeroed — what runQueued reads back, and the
// apply order the caller-runs tests check submission order against.
type recorder struct {
	mu    sync.Mutex
	resps map[searchlog.UserID][]Response
}

func (r *recorder) Observe(resp Response) {
	resp.Wall = 0
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.resps == nil {
		r.resps = make(map[searchlog.UserID][]Response)
	}
	r.resps[resp.Req.User] = append(r.resps[resp.Req.User], resp)
}

// runQueued is runResponses through the other side of the who-runs-it
// selection: each user's goroutine Submits its whole tape without
// waiting, so every request crosses a worker queue, and the responses
// are read back from rec — which must be the fleet's Observer — after a
// Drain. A user's requests are finished in submission order, so the
// observed per-user sequence is the submitted one.
func runQueued(t *testing.T, f *Fleet, rec *recorder, g *workload.Generator, users []workload.UserProfile) map[searchlog.UserID][]Response {
	t.Helper()
	var wg sync.WaitGroup
	for _, up := range users {
		wg.Add(1)
		go func(up workload.UserProfile) {
			defer wg.Done()
			for _, req := range requestsFor(g, up, 1) {
				if !f.Submit(req) {
					t.Errorf("user %d request shed", up.ID)
					return
				}
			}
		}(up)
	}
	wg.Wait()
	f.Drain()
	rec.mu.Lock()
	defer rec.mu.Unlock()
	for uid, rs := range rec.resps {
		for _, resp := range rs {
			if resp.Err != nil {
				t.Errorf("user %d request failed: %+v", uid, resp)
			}
		}
	}
	return rec.resps
}

// faultTraces reduces per-user responses to their fault traces.
func faultTraces(resps map[searchlog.UserID][]Response) map[searchlog.UserID]*faultTrace {
	traces := make(map[searchlog.UserID]*faultTrace, len(resps))
	for uid, rs := range resps {
		tr := &faultTrace{}
		for _, resp := range rs {
			tr.hits = append(tr.hits, resp.Hit())
			tr.sources = append(tr.sources, resp.Source)
			tr.attempts = append(tr.attempts, resp.Attempts)
		}
		traces[uid] = tr
	}
	return traces
}

// runFaultTraces is runResponses reduced to the per-user fault traces.
func runFaultTraces(t *testing.T, f *Fleet, g *workload.Generator, users []workload.UserProfile) map[searchlog.UserID]*faultTrace {
	t.Helper()
	return faultTraces(runResponses(t, f, g, users))
}

// missBeyondContent returns a request the engine can answer that is a
// guaranteed cloud miss on a fresh fleet: its (query, click) pair sits
// just past the community content's selected triplet prefix.
func missBeyondContent(t *testing.T, g *workload.Generator, contentLen int, uid searchlog.UserID) Request {
	t.Helper()
	tbl := searchlog.ExtractTriplets(g.MonthLog(0).Entries)
	if contentLen >= len(tbl.Triplets) {
		t.Fatal("community content swallowed the whole triplet table")
	}
	u := g.Config().Universe
	pair := tbl.Triplets[contentLen].Pair
	return Request{
		User:  uid,
		Query: u.QueryText(u.QueryOf(pair)),
		Click: u.ResultURL(u.ResultOf(pair)),
	}
}

// TestFaultStatsDeterministicConcurrent is the fault-determinism
// regression (run under -race by scripts/check.sh): two closed-loop
// concurrent runs with the same fault seed, scenario and workload must
// produce byte-identical fleet counters — including the retry,
// exhausted and degradation counters — and identical per-user
// hit/source/attempt sequences. Real wall pauses are disabled and the
// breaker is off, so nothing about goroutine scheduling can leak into
// the model.
func TestFaultStatsDeterministicConcurrent(t *testing.T) {
	g := smallGen(t, 32)
	content := smallContent(t, g)
	users := g.Users()[:24]

	run := func() (map[searchlog.UserID]*faultTrace, Stats) {
		f := newTestFleet(t, g, content, func(cfg *Config) {
			cfg.QueueDepth = 4096
			cfg.Faults = faults.Options{
				Enabled:       true,
				Seed:          5,
				LossProb:      0.35,
				EngineErrProb: 0.15,
				OutageEvery:   30 * time.Second,
				OutageFor:     6 * time.Second,
			}
			cfg.Retry = faults.RetryPolicy{MaxAttempts: 3, WallPauseScale: -1}
			cfg.Breaker = BreakerOptions{Threshold: -1}
		})
		return runFaultTraces(t, f, g, users), f.Stats()
	}

	tr1, s1 := run()
	tr2, s2 := run()
	if !reflect.DeepEqual(s1, s2) {
		t.Errorf("fleet counters diverge across identical faulted runs:\n  run 1: %+v\n  run 2: %+v", s1, s2)
	}
	if !reflect.DeepEqual(tr1, tr2) {
		t.Error("per-user outcome traces diverge across identical faulted runs")
	}
	// The scenario must actually bite, or the test proves nothing.
	if s1.Retries == 0 {
		t.Error("no retries recorded; loss scenario did not bite")
	}
	if s1.Exhausted == 0 || s1.Degraded+s1.Unavailable == 0 {
		t.Errorf("no degradation recorded (exhausted %d, degraded %d, unavailable %d)",
			s1.Exhausted, s1.Degraded, s1.Unavailable)
	}
	if s1.Degraded+s1.Unavailable != s1.Exhausted {
		t.Errorf("every exhausted miss must degrade: exhausted %d, degraded %d + unavailable %d",
			s1.Exhausted, s1.Degraded, s1.Unavailable)
	}
	if rate := s1.AnsweredRate(); rate <= 0 || rate >= 1 {
		t.Errorf("AnsweredRate = %v, want in (0, 1) under this scenario", rate)
	}
}

// TestFaultStatsDeterministicSequential covers the breaker-enabled
// configuration: pacing decisions depend on cross-user arrival order,
// so the counter-determinism guarantee holds for a sequential driver.
// A permanent outage exhausts every cloud-tier miss, the breaker must
// open, and no miss may ever complete against the cloud.
func TestFaultStatsDeterministicSequential(t *testing.T) {
	g := smallGen(t, 16)
	content := smallContent(t, g)
	users := g.Users()[:6]

	run := func() Stats {
		f := newTestFleet(t, g, content, func(cfg *Config) {
			cfg.Shards = 1
			cfg.Workers = 1
			cfg.QueueDepth = 4096
			cfg.Faults = faults.Options{
				Enabled: true,
				Windows: []faults.Window{{Start: 0, End: forever}},
			}
			cfg.Retry = faults.RetryPolicy{MaxAttempts: 2, WallPauseScale: -1}
			cfg.Breaker = BreakerOptions{Threshold: 3, Cooldown: 4}
		})
		for _, up := range users {
			for _, req := range requestsFor(g, up, 1) {
				if resp := f.Do(req); resp.Shed || resp.Err != nil {
					t.Fatalf("user %d request failed: %+v", up.ID, resp)
				}
			}
		}
		return f.Stats()
	}

	s1 := run()
	s2 := run()
	if !reflect.DeepEqual(s1, s2) {
		t.Errorf("fleet counters diverge across identical sequential runs:\n  run 1: %+v\n  run 2: %+v", s1, s2)
	}
	if s1.BreakerOpens == 0 {
		t.Error("breaker never opened against a permanent outage")
	}
	if s1.CloudMisses != 0 {
		t.Errorf("%d cloud misses completed through a permanent outage", s1.CloudMisses)
	}
	if s1.Degraded+s1.Unavailable == 0 || s1.Degraded+s1.Unavailable != s1.Exhausted {
		t.Errorf("degradation accounting off: exhausted %d, degraded %d, unavailable %d",
			s1.Exhausted, s1.Degraded, s1.Unavailable)
	}
}

// TestDegradationLadder walks the three rungs end to end against a
// crafted outage: a cloud miss that succeeds before the dead zone
// seeds the personal cache, then every later miss degrades — stale
// from the personal component, stale from the community replica, or
// the explicit unavailable page — with the failed attempts' costs
// riding along in the outcome.
func TestDegradationLadder(t *testing.T) {
	g := smallGen(t, 16)
	content := smallContent(t, g)
	uid := g.Users()[0].ID

	f := newTestFleet(t, g, content, func(cfg *Config) {
		cfg.Shards = 1
		cfg.Workers = 1
		cfg.Faults = faults.Options{
			Enabled: true,
			// The radio works for the first model second, then never again.
			Windows: []faults.Window{{Start: time.Second, End: forever}},
		}
		cfg.Retry = faults.RetryPolicy{MaxAttempts: 2, WallPauseScale: -1}
		cfg.Breaker = BreakerOptions{Threshold: -1}
	})

	// Rung 0: before the outage a cloud miss completes normally and
	// seeds the personal cache (a 3G miss advances the user's model
	// clock well past the window start).
	seed := missBeyondContent(t, g, len(content.Triplets), uid)
	resp := f.Do(seed)
	if resp.Err != nil || resp.Source != SourceCloud {
		t.Fatalf("seeding miss = %+v, want a successful cloud miss", resp)
	}

	// Rung 1: same query, unknown click — a cloud miss again, but now
	// inside the outage. The personal component has the query cached
	// and serves it stale.
	resp = f.Do(Request{User: uid, Query: seed.Query, Click: "http://ladder.test/unknown-click"})
	if resp.Source != SourceDegraded {
		t.Fatalf("personal rung = %+v, want SourceDegraded", resp)
	}
	if resp.Attempts != 2 || !resp.Outcome.Radio.Failed {
		t.Errorf("degraded response must carry its failed attempts: attempts %d, radio %+v",
			resp.Attempts, resp.Outcome.Radio)
	}
	if len(resp.Outcome.Results) == 0 || resp.Outcome.Network == 0 {
		t.Errorf("stale personal serve should return results and the failed wait: %+v", resp.Outcome)
	}
	if st := f.CommunityStats(); st.Stale != 0 {
		t.Errorf("personal rung must not touch the community replica, got %d community stale serves", st.Stale)
	}

	// Rung 2: a query the user never issued but the community caches.
	u := g.Config().Universe
	var commQuery string
	for _, tr := range content.Triplets {
		if q := u.QueryText(u.QueryOf(tr.Pair)); q != seed.Query {
			commQuery = q
			break
		}
	}
	if commQuery == "" {
		t.Fatal("no community query distinct from the seed query")
	}
	resp = f.Do(Request{User: uid, Query: commQuery, Click: "http://ladder.test/unknown-click"})
	if resp.Source != SourceDegraded || len(resp.Outcome.Results) == 0 {
		t.Fatalf("community rung = %+v, want a degraded serve with results", resp)
	}
	if st := f.CommunityStats(); st.Stale != 1 {
		t.Errorf("community replica should have served exactly one stale answer, got %d", st.Stale)
	}

	// Rung 3: a query nobody caches — the explicit unavailable page.
	resp = f.Do(Request{User: uid, Query: "ladder query nobody ever cached", Click: "http://ladder.test/x"})
	if resp.Source != SourceUnavailable {
		t.Fatalf("bottom rung = %+v, want SourceUnavailable", resp)
	}
	if len(resp.Outcome.Results) != 0 || resp.Outcome.Render == 0 {
		t.Errorf("unavailable page must render locally with no results: %+v", resp.Outcome)
	}

	s := f.Stats()
	if s.CloudMisses != 1 || s.Degraded != 2 || s.Unavailable != 1 || s.Exhausted != 3 || s.Retries != 3 {
		t.Errorf("ladder counters off: %+v", s)
	}
	if want := 3.0 / 4.0; s.AnsweredRate() != want {
		t.Errorf("AnsweredRate = %v, want %v", s.AnsweredRate(), want)
	}
}
