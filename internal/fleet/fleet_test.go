package fleet

import (
	"reflect"
	"sync"
	"testing"

	"pocketcloudlets/internal/cachegen"
	"pocketcloudlets/internal/engine"
	"pocketcloudlets/internal/replay"
	"pocketcloudlets/internal/searchlog"
	"pocketcloudlets/internal/workload"
)

// smallGen builds a fast generator: a modest universe and population
// (the replay harness's test dimensions).
func smallGen(t testing.TB, users int) *workload.Generator {
	t.Helper()
	u, err := engine.NewUniverse(engine.Config{
		NavPairs:    8000,
		NonNavPairs: 40000,
		NonNavSegments: []engine.Segment{
			{Queries: 50, ResultsPerQuery: 6},
			{Queries: 200, ResultsPerQuery: 3},
			{Queries: 2000, ResultsPerQuery: 2},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := workload.DefaultConfig(u, users, 7)
	cfg.FavNavRanks = 2000
	cfg.FavNonNavRanks = 6000
	g, err := workload.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func smallContent(t testing.TB, g *workload.Generator) cachegen.Content {
	t.Helper()
	tbl := searchlog.ExtractTriplets(g.MonthLog(0).Entries)
	n, err := cachegen.SelectByShare(tbl, 0.55)
	if err != nil {
		t.Fatal(err)
	}
	return cachegen.Generate(tbl, g.Config().Universe, n)
}

func newTestFleet(t testing.TB, g *workload.Generator, content cachegen.Content, mutate func(*Config)) *Fleet {
	t.Helper()
	cfg := Config{
		Engine:  engine.New(g.Config().Universe),
		Content: content,
		Shards:  4,
		Workers: 2,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	return f
}

// requestsFor materializes one user's month stream as fleet requests.
func requestsFor(g *workload.Generator, up workload.UserProfile, month int) []Request {
	u := g.Config().Universe
	stream := g.UserStream(up, month)
	reqs := make([]Request, len(stream))
	for i, e := range stream {
		reqs[i] = Request{
			User:  e.User,
			Query: u.QueryText(u.QueryOf(e.Pair)),
			Click: u.ResultURL(u.ResultOf(e.Pair)),
		}
	}
	return reqs
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("missing engine should fail")
	}
}

func TestSourceString(t *testing.T) {
	names := []string{"shed", "personal", "community", "cloud", "degraded", "unavailable"}
	if len(names) != NumSources {
		t.Fatalf("%d source names for %d sources", len(names), NumSources)
	}
	for s, want := range names {
		if got := Source(s).String(); got != want {
			t.Errorf("%d.String() = %q, want %q", s, got, want)
		}
	}
	if got := Source(NumSources).String(); got != "Source(6)" {
		t.Errorf("the first unused source stringifies as %q", got)
	}
}

// TestRoutingTiers verifies the three-tier routing: community content
// hits the shared replica, tail pairs miss to the cloud, and a repeat
// of a missed pair is served from the now-expanded personal component.
func TestRoutingTiers(t *testing.T) {
	g := smallGen(t, 64)
	content := smallContent(t, g)
	f := newTestFleet(t, g, content, nil)
	u := g.Config().Universe
	uid := g.Users()[0].ID

	// A pair in the community content: first touch hits the replica.
	var commPair searchlog.PairID
	found := false
	for p := range content.Scores {
		commPair = p
		found = true
		break
	}
	if !found {
		t.Fatal("content is empty")
	}
	reqOf := func(p searchlog.PairID) Request {
		return Request{User: uid, Query: u.QueryText(u.QueryOf(p)), Click: u.ResultURL(u.ResultOf(p))}
	}
	if resp := f.Do(reqOf(commPair)); resp.Source != SourceCommunity || !resp.Hit() {
		t.Fatalf("community pair served from %v (hit=%v), want community hit", resp.Source, resp.Hit())
	}

	// A deep tail pair outside the content: cloud miss, then personal.
	tail := u.NonNavPair(u.Config().NonNavPairs - 1)
	if _, ok := content.Scores[tail]; ok {
		t.Fatal("tail pair unexpectedly popular")
	}
	if resp := f.Do(reqOf(tail)); resp.Source != SourceCloud || resp.Hit() {
		t.Fatalf("tail pair served from %v, want cloud miss", resp.Source)
	}
	if resp := f.Do(reqOf(tail)); resp.Source != SourcePersonal || !resp.Hit() {
		t.Fatalf("repeated tail pair served from %v (hit=%v), want personal hit", resp.Source, resp.Hit())
	}

	st := f.Stats()
	if st.Served != 3 || st.CommunityHits != 1 || st.CloudMisses != 1 || st.PersonalHits != 1 {
		t.Errorf("stats %+v, want 1 hit per tier over 3 served", st)
	}
	if st.Users != 1 {
		t.Errorf("resident users = %d, want 1", st.Users)
	}
	if st.PersonalBytes <= 0 {
		t.Errorf("personal bytes = %d, want > 0 after an expansion", st.PersonalBytes)
	}
}

// TestDeterministicOutcomes drives two independent fleets with the
// same request sequence and expects identical serving outcomes — the
// property that makes fleet-scale hit rates reproducible run to run.
func TestDeterministicOutcomes(t *testing.T) {
	g := smallGen(t, 64)
	content := smallContent(t, g)
	users := g.Users()[:12]

	run := func() (Stats, float64) {
		f := newTestFleet(t, g, content, nil)
		// Interleave users round-robin to exercise cross-user mixing.
		var tapes [][]Request
		for _, up := range users {
			tapes = append(tapes, requestsFor(g, up, 1))
		}
		for i := 0; ; i++ {
			progressed := false
			for _, tape := range tapes {
				if i < len(tape) {
					progressed = true
					if resp := f.Do(tape[i]); resp.Shed || resp.Err != nil {
						t.Fatalf("request shed or errored: %+v", resp)
					}
				}
			}
			if !progressed {
				break
			}
		}
		return f.Stats(), f.MeanUserHitRate()
	}

	s1, hr1 := run()
	s2, hr2 := run()
	if !reflect.DeepEqual(s1, s2) {
		t.Errorf("stats differ across identical runs:\n  %+v\n  %+v", s1, s2)
	}
	if hr1 != hr2 {
		t.Errorf("mean user hit rate differs: %v vs %v", hr1, hr2)
	}
	if s1.Served == 0 || s1.HitRate() <= 0 {
		t.Errorf("implausible run: %+v", s1)
	}
}

// TestFleetMatchesReplay checks that the sharded fleet reproduces the
// single-device replay harness exactly: for every user, the fleet's
// personal-plus-community routing yields the same per-user volume and
// hit count as replaying that user against one merged Full-mode cache.
func TestFleetMatchesReplay(t *testing.T) {
	g := smallGen(t, 200)
	content := smallContent(t, g)

	res, err := replay.Run(replay.Config{Gen: g, Content: content, Mode: replay.Full, UsersPerClass: 8, Month: 1})
	if err != nil {
		t.Fatal(err)
	}

	f := newTestFleet(t, g, content, nil)
	for _, uo := range res.Users {
		var hits, volume int
		for _, req := range requestsFor(g, uo.Profile, 1) {
			resp := f.Do(req)
			if resp.Shed || resp.Err != nil {
				t.Fatalf("user %d request failed: %+v", uo.Profile.ID, resp)
			}
			volume++
			if resp.Hit() {
				hits++
			}
		}
		if volume != uo.Volume || hits != uo.Hits {
			t.Errorf("user %d (class %v): fleet %d/%d, replay %d/%d",
				uo.Profile.ID, uo.Profile.Class, hits, volume, uo.Hits, uo.Volume)
		}
	}
}

// TestConcurrentShardStress hammers a single shard from many client
// goroutines while monitors read fleet and community stats — the
// -race proof of the shard-lock and stats-lock contracts.
func TestConcurrentShardStress(t *testing.T) {
	g := smallGen(t, 64)
	content := smallContent(t, g)
	f := newTestFleet(t, g, content, func(cfg *Config) {
		cfg.Shards = 1 // every user lands on the same shard
		cfg.Workers = 1
		cfg.QueueDepth = 4096
	})

	const clients = 8
	users := g.Users()
	done := make(chan struct{})
	var monitors sync.WaitGroup
	for m := 0; m < 2; m++ {
		monitors.Add(1)
		go func() {
			defer monitors.Done()
			for {
				select {
				case <-done:
					return
				default:
					_ = f.Stats()
					_ = f.CommunityStats()
					_ = f.MeanUserHitRate()
				}
			}
		}()
	}

	var total int64
	var mu sync.Mutex
	var clientsWG sync.WaitGroup
	for c := 0; c < clients; c++ {
		clientsWG.Add(1)
		go func(c int) {
			defer clientsWG.Done()
			tape := requestsFor(g, users[c%len(users)], 1)
			if len(tape) > 60 {
				tape = tape[:60]
			}
			var n int64
			for _, req := range tape {
				resp := f.Do(req)
				if resp.Err != nil {
					t.Errorf("client %d: %v", c, resp.Err)
					return
				}
				if !resp.Shed {
					n++
				}
			}
			mu.Lock()
			total += n
			mu.Unlock()
		}(c)
	}
	clientsWG.Wait()
	close(done)
	monitors.Wait()

	st := f.Stats()
	if st.Served != total {
		t.Errorf("served %d, want %d", st.Served, total)
	}
	if st.Errors != 0 {
		t.Errorf("errors = %d, want 0", st.Errors)
	}
	comm := f.CommunityStats()
	if int64(comm.Queries) != st.CommunityHits {
		t.Errorf("community replica queries %d, want %d (one per community hit)", comm.Queries, st.CommunityHits)
	}
}

// TestBackpressureSheds overloads a tiny queue with fire-and-forget
// submissions and expects explicit sheds, never blocking or loss.
func TestBackpressureSheds(t *testing.T) {
	g := smallGen(t, 16)
	content := smallContent(t, g)
	f := newTestFleet(t, g, content, func(cfg *Config) {
		cfg.Shards = 1
		cfg.Workers = 1
		cfg.QueueDepth = 1
	})

	const burst = 2000
	tape := requestsFor(g, g.Users()[0], 1)
	var accepted int64
	for i := 0; i < burst; i++ {
		if f.Submit(tape[i%len(tape)]) {
			accepted++
		}
	}
	f.Drain()

	st := f.Stats()
	if st.Served+st.Shed != burst {
		t.Errorf("served %d + shed %d != %d submitted", st.Served, st.Shed, burst)
	}
	if st.Served != accepted {
		t.Errorf("served %d, want %d accepted", st.Served, accepted)
	}
	if st.Shed == 0 {
		t.Error("expected sheds when bursting a depth-1 queue")
	}
	if st.ShedRate() <= 0 || st.ShedRate() >= 1 {
		t.Errorf("shed rate %v outside (0, 1)", st.ShedRate())
	}
}

// TestSubmitAfterCloseSheds verifies the closed fleet rejects rather
// than panics or blocks.
func TestSubmitAfterCloseSheds(t *testing.T) {
	g := smallGen(t, 16)
	f := newTestFleet(t, g, smallContent(t, g), nil)
	tape := requestsFor(g, g.Users()[0], 1)
	f.Close()
	if f.Submit(tape[0]) {
		t.Error("Submit after Close should shed")
	}
	if resp := f.Do(tape[0]); !resp.Shed {
		t.Error("Do after Close should shed")
	}
	if st := f.Stats(); st.Shed != 2 {
		t.Errorf("shed = %d, want 2", st.Shed)
	}
}

// TestPerUserBudget caps each user's personal footprint and checks the
// serve-path enforcement keeps every user under it, with the evicted
// tail pairs missing again on re-access.
func TestPerUserBudget(t *testing.T) {
	g := smallGen(t, 32)
	content := smallContent(t, g)
	const budget = 64 << 10
	f := newTestFleet(t, g, content, func(cfg *Config) {
		cfg.PerUserBytes = budget
	})

	users := g.Users()[:8]
	for _, up := range users {
		for _, req := range requestsFor(g, up, 1) {
			if resp := f.Do(req); resp.Err != nil {
				t.Fatal(resp.Err)
			}
		}
	}

	st := f.Stats()
	if st.CloudMisses == 0 {
		t.Fatal("expected cloud misses to build personal state")
	}
	if st.PersonalBytes > int64(len(users))*budget {
		t.Errorf("personal bytes %d exceed %d users × %d budget", st.PersonalBytes, len(users), budget)
	}
	for _, sh := range f.view.Load().shards {
		sh.lockUsers()
		sh.users.forEach(func(ust *userState) {
			if ust.bytes > budget {
				t.Errorf("user %d over budget: %d > %d", ust.uid, ust.bytes, budget)
			}
		})
		sh.unlockUsers()
	}
}
