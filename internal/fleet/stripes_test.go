package fleet

import (
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"pocketcloudlets/internal/backend"
	"pocketcloudlets/internal/faults"
)

// TestOneShardClientsAgree is the determinism rail of the user stripes
// (run under -race -count 3 by scripts/check.sh): with every user on one
// shard, eight closed-loop clients serve users of different stripes side
// by side and share the community replica under its lock, yet each user
// must be served exactly what one client serving them all serves — the
// per-user responses, the model makespan, every Stats field and every
// user's serving tally. Each route a request takes under a stripe is a
// row:
//   - plain: hits and unpriced misses, planned and applied in one hold;
//   - evicting: a per-user budget evicts on expansion;
//   - outage: faults with an outage window, so exhausted ladders degrade
//     through the community replica's stale serve;
//   - batched: a dispatcher applies every miss under its user's stripe.
//     Batch composition follows the clients and shifts model clocks, so
//     the two runs compare fault traces and the counters sessions do not
//     book;
//   - priced: misses planned against a congested backend under no lock,
//     then applied under the stripe.
func TestOneShardClientsAgree(t *testing.T) {
	g := smallGen(t, 32)
	content := smallContent(t, g)
	users := g.Users()[:24]

	type run struct {
		missPathRun
		counts []UserServeCount
		stale  int
	}
	var plainBytes int64
	for _, route := range []struct {
		name   string
		batch  bool
		mutate func(*Config)
	}{
		{"plain", false, func(*Config) {}},
		{"evicting", false, func(cfg *Config) { cfg.PerUserBytes = 4 << 10 }},
		{"outage", false, func(cfg *Config) {
			cfg.Faults = hedgeBiteFaults(5)
			cfg.Retry = faults.RetryPolicy{MaxAttempts: 3}
		}},
		{"batched", true, func(cfg *Config) {
			cfg.Batch = BatchOptions{Enabled: true, Linger: time.Millisecond}
		}},
		{"priced", false, func(cfg *Config) {
			cfg.Faults = backendBiteFaults(5)
			cfg.Retry = faults.RetryPolicy{MaxAttempts: 3}
			cfg.Backend = backend.Options{Enabled: true, Seed: 11, ServiceRate: 5, Offered: 8, QueueDepth: 16}
		}},
	} {
		serve := func(clients int) run {
			f := newTestFleet(t, g, content, func(cfg *Config) {
				cfg.Shards, cfg.Workers, cfg.QueueDepth = 1, 1, 4096
				route.mutate(cfg)
			})
			resps := runClients(t, f, g, users, clients)
			return run{
				missPathRun: missPathRun{resps: resps, stats: f.Stats(), makespan: f.ModelMakespan()},
				counts:      f.UserServeCounts(),
				stale:       f.CommunityStats().Stale,
			}
		}
		one, eight := serve(1), serve(8)
		if diff := sameModel(one.missPathRun, eight.missPathRun, !route.batch, false, func(*Stats) {}); diff != "" {
			t.Errorf("%s: eight clients ≢ one: %s", route.name, diff)
		}
		if !route.batch && !reflect.DeepEqual(one.counts, eight.counts) {
			t.Errorf("%s: per-user tallies diverge:\n  %+v\n  %+v", route.name, one.counts, eight.counts)
		}

		s := eight.stats
		var arrivals int64
		for _, bs := range s.Backend {
			arrivals += bs.Arrivals
		}
		taken := s.CloudMisses > 0 && s.CommunityHits > 0 && s.PersonalHits > 0
		switch route.name {
		case "plain":
			plainBytes = s.PersonalBytes
		case "evicting":
			taken = taken && s.PersonalBytes < plainBytes
		case "outage":
			taken = taken && s.Degraded > 0 && eight.stale > 0
		case "batched":
			taken = taken && s.Batches > 0
		case "priced":
			taken = taken && arrivals > 0
		}
		if !taken {
			t.Errorf("%s: the run did not take its route: %+v, %d community stale serves", route.name, s, eight.stale)
		}
	}
}

// BenchmarkShardParallel is the layer row of a shard's locks: the
// goroutines b.RunParallel starts serve one shard's users side by side,
// each claiming whole users off a shared counter and replaying their
// requests with caller-run Do, as the repository benchmark's closed loop
// does. hit replays warmed months, every request a personal or community
// hit; miss replays each user's cloud misses on a fleet whose personal
// caches never expand, so each stays an unpriced miss applied in one
// hold of its user's lock. ns/op is wall time per request over all the
// goroutines.
func BenchmarkShardParallel(b *testing.B) {
	const users = 64
	gen := smallGen(b, users)
	content := smallContent(b, gen)
	for _, row := range []struct {
		name string
		hits bool
	}{{"hit", true}, {"miss", false}} {
		b.Run(row.name, func(b *testing.B) {
			f := newTestFleet(b, gen, content, func(cfg *Config) {
				cfg.Shards, cfg.Workers = 1, 1
				cfg.Options.DiscardResults = true
				cfg.Options.DisablePersonalization = !row.hits
			})
			var tapes [][]Request
			for _, up := range gen.Users()[:users] {
				reqs := requestsFor(gen, up, 0)
				if row.hits {
					for _, r := range reqs { // warm: later repeats hit
						f.Do(r)
					}
				}
				var tape []Request
				for _, r := range reqs {
					if f.Do(r).Hit() == row.hits {
						tape = append(tape, r)
					}
				}
				if len(tape) > 0 {
					tapes = append(tapes, tape)
				}
			}
			var next atomic.Int64
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				var tape []Request
				for i := 0; pb.Next(); i++ {
					if i == len(tape) {
						tape, i = tapes[(next.Add(1)-1)%int64(len(tapes))], 0
					}
					if resp := f.Do(tape[i]); resp.Err != nil || resp.Hit() != row.hits {
						b.Errorf("want hit %v, got %+v", row.hits, resp)
						return
					}
				}
			})
		})
	}
}
