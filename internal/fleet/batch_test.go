package fleet

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"pocketcloudlets/internal/searchlog"
	"pocketcloudlets/internal/workload"
)

// userTrace is one user's per-request outcome sequence, the unit of the
// batching determinism guarantee.
type userTrace struct {
	hits       []bool
	sources    []Source
	missRadioJ float64
	misses     int
	batched    int
}

// runTraced drives every user's month-1 tape through the fleet from its
// own goroutine (closed loop: each user waits for each response) and
// returns per-user outcome traces plus the fleet counters.
func runTraced(t *testing.T, f *Fleet, g *workload.Generator, users []workload.UserProfile) map[searchlog.UserID]*userTrace {
	t.Helper()
	traces := make(map[searchlog.UserID]*userTrace, len(users))
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, up := range users {
		wg.Add(1)
		go func(up workload.UserProfile) {
			defer wg.Done()
			tr := &userTrace{}
			for _, req := range requestsFor(g, up, 1) {
				resp := f.Do(req)
				if resp.Shed || resp.Err != nil {
					t.Errorf("user %d request failed: %+v", up.ID, resp)
					return
				}
				tr.hits = append(tr.hits, resp.Hit())
				tr.sources = append(tr.sources, resp.Source)
				if resp.Source == SourceCloud {
					tr.misses++
					tr.missRadioJ += resp.RadioJ
					if resp.BatchSize > 0 {
						tr.batched++
					}
				}
			}
			mu.Lock()
			traces[up.ID] = tr
			mu.Unlock()
		}(up)
	}
	wg.Wait()
	return traces
}

// TestBatchedOutcomesMatchUnbatched is the determinism regression for
// miss coalescing: at closed-loop concurrency 40 on a single shard —
// the worst case for reordering hazards — every user's per-request
// hit/miss sequence, every serving counter and the resident footprint
// must be byte-identical with and without batching, while the mean
// radio energy per cloud miss drops measurably.
func TestBatchedOutcomesMatchUnbatched(t *testing.T) {
	g := smallGen(t, 64)
	content := smallContent(t, g)
	users := g.Users()[:40]

	run := func(batch BatchOptions) (map[searchlog.UserID]*userTrace, Stats) {
		f := newTestFleet(t, g, content, func(cfg *Config) {
			cfg.Shards = 1
			cfg.Workers = 1
			cfg.QueueDepth = 4096
			cfg.Batch = batch
		})
		traces := runTraced(t, f, g, users)
		return traces, f.Stats()
	}

	plain, plainStats := run(BatchOptions{})
	coal, coalStats := run(BatchOptions{Enabled: true, Linger: time.Millisecond})

	if plainStats.Batches != 0 || plainStats.BatchSizes != nil {
		t.Errorf("unbatched fleet recorded %d batches (sizes %v)", plainStats.Batches, plainStats.BatchSizes)
	}
	if !reflect.DeepEqual(withoutSessions(plainStats), withoutSessions(coalStats)) {
		t.Errorf("fleet counters diverge:\n  unbatched: %+v\n  batched:   %+v", plainStats, coalStats)
	}
	if len(coal) != len(plain) {
		t.Fatalf("traced %d users batched vs %d unbatched", len(coal), len(plain))
	}
	var plainJ, coalJ float64
	var misses int
	for uid, p := range plain {
		c := coal[uid]
		if c == nil {
			t.Fatalf("user %d missing from batched run", uid)
		}
		if len(c.hits) != len(p.hits) {
			t.Errorf("user %d served %d batched vs %d unbatched", uid, len(c.hits), len(p.hits))
			continue
		}
		for i := range p.hits {
			if c.hits[i] != p.hits[i] || c.sources[i] != p.sources[i] {
				t.Errorf("user %d request %d diverges: batched %v/%v, unbatched %v/%v",
					uid, i, c.hits[i], c.sources[i], p.hits[i], p.sources[i])
				break
			}
		}
		plainJ += p.missRadioJ
		coalJ += c.missRadioJ
		misses += p.misses
		if c.batched != c.misses {
			t.Errorf("user %d: %d of %d misses batched; with batching on, all must be", uid, c.batched, c.misses)
		}
	}

	// Batch accounting must be self-consistent and actually coalesce.
	if coalStats.Batches == 0 || coalStats.BatchedMisses != coalStats.CloudMisses {
		t.Errorf("batch stats inconsistent with %d cloud misses: %+v", coalStats.CloudMisses, coalStats)
	}
	if coalStats.RadioWakeups != coalStats.Batches {
		t.Errorf("wakeups %d != batches %d; dispatcher sessions always start cold", coalStats.RadioWakeups, coalStats.Batches)
	}
	if plainStats.RadioWakeups == 0 {
		t.Error("the unbatched run booked no cold wake-up")
	}
	var sized, carried, maxBatch int64
	for size, n := range coalStats.BatchSizes {
		if n > 0 && (size < 1 || size > DefaultMaxBatch) {
			t.Errorf("impossible batch size %d", size)
		}
		sized += n
		carried += int64(size) * n
		if n > 0 {
			maxBatch = int64(size)
		}
	}
	if sized != coalStats.Batches || carried != coalStats.BatchedMisses {
		t.Errorf("size histogram sums to %d sessions of %d misses, want %d of %d", sized, carried, coalStats.Batches, coalStats.BatchedMisses)
	}
	if maxBatch < 2 {
		t.Errorf("max batch %d; 40 concurrent users on one shard should coalesce", maxBatch)
	}

	// The acceptance criterion: mean radio energy per miss drops.
	if misses == 0 {
		t.Fatal("no cloud misses; workload cannot exercise batching")
	}
	plainPer, coalPer := plainJ/float64(misses), coalJ/float64(misses)
	if coalPer >= 0.9*plainPer {
		t.Errorf("radio energy per miss %.3f J batched vs %.3f J unbatched; want a measurable drop", coalPer, plainPer)
	}
	t.Logf("radio energy per miss: %.3f J unbatched → %.3f J batched (%d misses, mean batch %.2f)",
		plainPer, coalPer, misses, float64(coalStats.BatchedMisses)/float64(coalStats.Batches))
}

// TestBatchedOutcomesMatchUnbatchedSharded repeats the determinism
// check on a sharded fleet, one dispatcher per shard: each shard's
// misses are batched apart from the others', across worker boundaries.
func TestBatchedOutcomesMatchUnbatchedSharded(t *testing.T) {
	g := smallGen(t, 64)
	content := smallContent(t, g)
	users := g.Users()[:32]

	run := func(batch BatchOptions) (map[searchlog.UserID]*userTrace, Stats) {
		f := newTestFleet(t, g, content, func(cfg *Config) {
			cfg.QueueDepth = 4096
			cfg.Batch = batch
		})
		traces := runTraced(t, f, g, users)
		return traces, f.Stats()
	}

	plain, plainStats := run(BatchOptions{})
	coal, coalStats := run(BatchOptions{Enabled: true, Linger: time.Millisecond})
	if !reflect.DeepEqual(withoutSessions(plainStats), withoutSessions(coalStats)) {
		t.Errorf("fleet counters diverge:\n  unbatched: %+v\n  batched: %+v", plainStats, coalStats)
	}
	for uid, p := range plain {
		c := coal[uid]
		if c == nil || len(c.hits) != len(p.hits) {
			t.Errorf("user %d trace length differs", uid)
			continue
		}
		for i := range p.hits {
			if c.hits[i] != p.hits[i] || c.sources[i] != p.sources[i] {
				t.Errorf("user %d request %d diverges under sharded batching", uid, i)
				break
			}
		}
	}
}

// TestBatchedSameUserOrdering hammers the pending-miss guard: a single
// user's tape is full of back-to-back misses, so nearly every request
// finds the previous miss still in flight and must wait for it. The
// outcome sequence must still match the unbatched run exactly.
func TestBatchedSameUserOrdering(t *testing.T) {
	g := smallGen(t, 16)
	content := smallContent(t, g)
	up := g.Users()[0]

	run := func(batch BatchOptions) ([]bool, []Source) {
		f := newTestFleet(t, g, content, func(cfg *Config) {
			cfg.Shards = 1
			cfg.Workers = 1
			cfg.QueueDepth = 4096
			cfg.Batch = batch
		})
		var hits []bool
		var sources []Source
		for _, req := range requestsFor(g, up, 1) {
			resp := f.Do(req)
			if resp.Shed || resp.Err != nil {
				t.Fatalf("request failed: %+v", resp)
			}
			hits = append(hits, resp.Hit())
			sources = append(sources, resp.Source)
		}
		return hits, sources
	}

	ph, ps := run(BatchOptions{})
	bh, bs := run(BatchOptions{Enabled: true})
	if len(ph) != len(bh) {
		t.Fatalf("served %d batched vs %d unbatched", len(bh), len(ph))
	}
	for i := range ph {
		if ph[i] != bh[i] || ps[i] != bs[i] {
			t.Fatalf("request %d diverges: batched %v/%v, unbatched %v/%v", i, bh[i], bs[i], ph[i], ps[i])
		}
	}
}

// TestDrainFlushesLingeringBatches submits fire-and-forget misses into
// a dispatcher with a linger window far longer than the test and checks
// Drain forces them out rather than waiting for the timer.
func TestDrainFlushesLingeringBatches(t *testing.T) {
	g := smallGen(t, 16)
	content := smallContent(t, g)
	f := newTestFleet(t, g, content, func(cfg *Config) {
		cfg.Shards = 2
		cfg.Workers = 2
		cfg.QueueDepth = 4096
		cfg.Batch = BatchOptions{Enabled: true, Linger: time.Minute}
	})

	var accepted int64
	for _, up := range g.Users()[:8] {
		tape := requestsFor(g, up, 1)
		if len(tape) > 40 {
			tape = tape[:40]
		}
		for _, req := range tape {
			if f.Submit(req) {
				accepted++
			}
		}
	}
	done := make(chan struct{})
	go func() { f.Drain(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("Drain did not flush lingering batches")
	}
	st := f.Stats()
	if st.Served != accepted {
		t.Errorf("served %d, want %d accepted", st.Served, accepted)
	}
	if st.CloudMisses > 0 && st.BatchedMisses != st.CloudMisses {
		t.Errorf("batched misses %d, want every one of %d cloud misses", st.BatchedMisses, st.CloudMisses)
	}
}

// TestCloseFlushesPendingBatches closes the fleet while misses are
// lingering and checks no submitted request is lost.
func TestCloseFlushesPendingBatches(t *testing.T) {
	g := smallGen(t, 16)
	content := smallContent(t, g)
	f := newTestFleet(t, g, content, func(cfg *Config) {
		cfg.Shards = 1
		cfg.Workers = 1
		cfg.QueueDepth = 4096
		cfg.Batch = BatchOptions{Enabled: true, Linger: time.Minute}
	})
	tape := requestsFor(g, g.Users()[1], 1)
	if len(tape) > 30 {
		tape = tape[:30]
	}
	var accepted int64
	for _, req := range tape {
		if f.Submit(req) {
			accepted++
		}
	}
	f.Close()
	if st := f.Stats(); st.Served != accepted {
		t.Errorf("served %d after Close, want %d accepted", st.Served, accepted)
	}
}

// TestBatchOptionsDefaults checks the zero value picks sane knobs.
func TestBatchOptionsDefaults(t *testing.T) {
	o := BatchOptions{}.withDefaults()
	if o.MaxBatch != DefaultMaxBatch || o.Linger != DefaultLinger {
		t.Errorf("defaults = %+v", o)
	}
	o = BatchOptions{MaxBatch: 3, Linger: time.Second}.withDefaults()
	if o.MaxBatch != 3 || o.Linger != time.Second {
		t.Errorf("explicit knobs overridden: %+v", o)
	}
}

// withoutSessions drops the counters only a batched fleet books, or
// books differently — its sessions and their wake-ups — so a batched
// run's Stats can be held to an unbatched one's.
func withoutSessions(s Stats) Stats {
	s.Batches, s.BatchedMisses, s.BatchSizes, s.RadioWakeups = 0, 0, nil, 0
	return s
}
