package fleet

import (
	"reflect"
	"sync"
	"testing"
)

// TestDenseSparseEquivalence replays the same request stream through
// two fleets that differ only in the Population hint — one keeps every
// user in the dense slot arena, the other (Population zero) routes all
// of them through the sparse map fallback — and requires identical
// per-request responses and identical per-user serve counts. The hint
// is a memory-layout choice; it must never change an outcome.
func TestDenseSparseEquivalence(t *testing.T) {
	users := 10000
	if testing.Short() {
		users = 2000
	}
	g := smallGen(t, users)
	content := smallContent(t, g)
	dense := newTestFleet(t, g, content, func(c *Config) { c.Population = users })
	sparse := newTestFleet(t, g, content, nil)

	profiles := g.Users()
	const perUser = 24
	for i := 0; i < len(profiles); i += 13 {
		reqs := requestsFor(g, profiles[i], 0)
		if len(reqs) > perUser {
			reqs = reqs[:perUser]
		}
		for _, r := range reqs {
			d := dense.Do(r)
			s := sparse.Do(r)
			d.Wall, s.Wall = 0, 0 // wall-clock latency is not modeled time
			if !reflect.DeepEqual(d, s) {
				t.Fatalf("user %d: dense response %+v != sparse response %+v", r.User, d, s)
			}
		}
	}

	dc, sc := dense.UserServeCounts(), sparse.UserServeCounts()
	if !reflect.DeepEqual(dc, sc) {
		t.Fatalf("per-user serve counts diverge: dense %d users, sparse %d users", len(dc), len(sc))
	}
	if len(dc) == 0 {
		t.Fatal("no users served")
	}

	// The dense fleet must actually have used the arena: every replayed
	// user ID is below Population, so the sparse fallback stays empty.
	for _, sh := range dense.view.Load().shards {
		sh.lockUsers()
		n := len(sh.users.sparse)
		sh.unlockUsers()
		if n != 0 {
			t.Fatalf("dense fleet spilled %d users into the sparse map", n)
		}
	}
}

// TestSparseFallbackAbovePopulation exercises the boundary: user IDs
// at and above the Population hint land in the sparse map and still
// serve, migrate counters, and report identically to dense users.
func TestSparseFallbackAbovePopulation(t *testing.T) {
	g := smallGen(t, 64)
	content := smallContent(t, g)
	f := newTestFleet(t, g, content, func(c *Config) { c.Population = 8 })

	for _, up := range g.Users()[:16] {
		reqs := requestsFor(g, up, 0)
		if len(reqs) > 8 {
			reqs = reqs[:8]
		}
		for _, r := range reqs {
			if resp := f.Do(r); resp.Err != nil {
				t.Fatal(resp.Err)
			}
		}
	}
	counts := f.UserServeCounts()
	if len(counts) != 16 {
		t.Fatalf("want 16 resident users, got %d", len(counts))
	}
	for _, c := range counts {
		if c.Served == 0 {
			t.Fatalf("user %d resident but never served", c.User)
		}
	}
}

// TestReplyPoolRecycling hammers the pooled reply-channel path: eight
// clients mix Do with Submit under a queue small enough to shed, so a
// Do often finds work pending and waits on a recycled mailbox instead
// of being served in place. Every response must carry the request it
// was issued for: a recycled channel that ever delivered another
// request's response would trip the Req checks (and the race detector)
// immediately.
func TestReplyPoolRecycling(t *testing.T) {
	g := smallGen(t, 64)
	content := smallContent(t, g)
	f := newTestFleet(t, g, content, func(c *Config) { c.QueueDepth = 4 })

	profiles := g.Users()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			reqs := requestsFor(g, profiles[w], 0)
			if len(reqs) > 200 {
				reqs = reqs[:200]
			}
			for i, r := range reqs {
				if i%4 == 0 {
					f.Submit(r) // queued ahead of the Do below when not shed
				}
				resp := f.Do(r)
				if resp.Req.User != r.User || resp.Req.Query != r.Query || resp.Req.Click != r.Click {
					t.Errorf("worker %d op %d: response for %+v carries request %+v", w, i, r, resp.Req)
					return
				}
				if resp.Shed && resp.Source != SourceShed {
					t.Errorf("worker %d op %d: shed response with source %v", w, i, resp.Source)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
