package fleet

import (
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pocketcloudlets/internal/backend"
	"pocketcloudlets/internal/cachegen"
	"pocketcloudlets/internal/faults"
	"pocketcloudlets/internal/searchlog"
	"pocketcloudlets/internal/workload"
)

// These tests pin what "exactly one worker touches a shard" used to
// give for free, now that a blocking caller with nothing queued ahead
// of it serves its own request (DESIGN.md, "Who runs a request"). All
// run under -race in scripts/check.sh.

// slowPricer prices exactly as the fleet's backend model does, after a
// real sleep. Price is pure, so every outcome is unchanged, while a
// priced miss stays pending (shard.pendingMiss) long enough for other
// goroutines to arrive: the tests' lever for holding a miss open, since
// a miss owes its server no wall time.
type slowPricer struct {
	faults.Pricer
	sleep  time.Duration
	priced atomic.Int64
}

func (p *slowPricer) Price(replica int, at time.Duration, uid, qh, seq uint64, attempt int) faults.Admission {
	p.priced.Add(1)
	time.Sleep(p.sleep)
	return p.Pricer.Price(replica, at, uid, qh, seq, attempt)
}

// slowPricing puts a slowPricer in front of f's backend model. Call it
// before f serves anything.
func slowPricing(f *Fleet, sleep time.Duration) *slowPricer {
	p := &slowPricer{Pricer: f.cohorts.pricer, sleep: sleep}
	f.cohorts.pricer = p
	return p
}

// slowLossy configures one shard whose cloud misses often plan failures
// and are priced against a backend, for slowPricing to hold open.
func slowLossy(cfg *Config) {
	cfg.Shards = 1
	cfg.Workers = 1
	cfg.QueueDepth = 4096
	cfg.Faults = faults.Options{
		Enabled:     true,
		Seed:        9,
		LossProb:    0.5,
		OutageEvery: 20 * time.Second,
		OutageFor:   4 * time.Second,
	}
	cfg.Retry = faults.RetryPolicy{MaxAttempts: 4}
	cfg.Backend = backend.Options{Enabled: true, Seed: 9, ServiceRate: 20, Discipline: backend.PS}
}

// newSlowFleet is a slowLossy fleet, further configured by mutate (which
// may be nil), whose priced misses each sleep for sleep.
func newSlowFleet(t testing.TB, g *workload.Generator, content cachegen.Content, sleep time.Duration, mutate func(*Config)) (*Fleet, *slowPricer) {
	t.Helper()
	f := newTestFleet(t, g, content, func(cfg *Config) {
		slowLossy(cfg)
		if mutate != nil {
			mutate(cfg)
		}
	})
	return f, slowPricing(f, sleep)
}

// TestSubmitThenDoKeepsOrder: one goroutine interleaving Submit and Do
// for the same user, with slowly priced misses keeping the worker's
// queue non-empty, must have its requests applied in the order it
// issued them — a Do that finds work pending queues behind it, one that
// finds none runs at once — so the user's response sequence equals both
// the all-Do and the all-Submit-then-Drain sequences.
func TestSubmitThenDoKeepsOrder(t *testing.T) {
	g := smallGen(t, 16)
	content := smallContent(t, g)
	tape := requestsFor(g, g.Users()[0], 1)
	if len(tape) > 120 {
		tape = tape[:120]
	}
	uid := tape[0].User

	run := func(issue func(f *Fleet, i int, req Request)) []Response {
		rec := &recorder{}
		f, slow := newSlowFleet(t, g, content, 2*time.Millisecond, func(cfg *Config) { cfg.Observer = rec })
		for i, req := range tape {
			issue(f, i, req)
		}
		f.Drain()
		if s := f.Stats(); s.Served != int64(len(tape)) || s.Shed != 0 {
			t.Fatalf("served %d shed %d of %d", s.Served, s.Shed, len(tape))
		}
		if slow.priced.Load() == 0 {
			t.Fatal("no miss was priced; nothing kept the queue non-empty")
		}
		return rec.resps[uid]
	}

	allDo := run(func(f *Fleet, _ int, req Request) { f.Do(req) })
	allSubmit := run(func(f *Fleet, _ int, req Request) { f.Submit(req) })
	var behindQueue, atOnce int
	mixed := run(func(f *Fleet, i int, req Request) {
		// Submit, Submit, Do (behind the two), Do (the queue just emptied).
		if i%4 < 2 {
			f.Submit(req)
			return
		}
		// Read before Do, so a worker finishing in between can only turn
		// a counted "behind" into an actual "at once", never hide one.
		if f.queues[0].pending.Load() > 0 {
			behindQueue++
		} else {
			atOnce++
		}
		want := req
		if resp := f.Do(req); resp.Req != want || resp.Shed {
			t.Fatalf("request %d: Do answered %+v", i, resp)
		}
	})

	if behindQueue == 0 || atOnce == 0 {
		t.Errorf("%d Do calls found work queued ahead of them, %d found none; the test must exercise both sides", behindQueue, atOnce)
	}
	for i, resp := range mixed {
		if resp.Req != tape[i] {
			t.Fatalf("request %d applied out of submission order: got %+v, want %+v", i, resp.Req, tape[i])
		}
	}
	if !reflect.DeepEqual(mixed, allDo) {
		t.Error("interleaved Submit/Do sequence diverges from the all-Do sequence")
	}
	if !reflect.DeepEqual(mixed, allSubmit) {
		t.Error("interleaved Submit/Do sequence diverges from the all-Submit sequence")
	}
}

// interleavings returns every merge of a and b that keeps each one's
// own order.
func interleavings(a, b []Request) [][]Request {
	if len(a) == 0 {
		return [][]Request{append([]Request(nil), b...)}
	}
	if len(b) == 0 {
		return [][]Request{append([]Request(nil), a...)}
	}
	var out [][]Request
	for _, rest := range interleavings(a[1:], b) {
		out = append(out, append([]Request{a[0]}, rest...))
	}
	for _, rest := range interleavings(a, b[1:]) {
		out = append(out, append([]Request{b[0]}, rest...))
	}
	return out
}

// TestSameUserConcurrentDoIsSerializable: two goroutines Do-ing the
// same user's cloud misses on a lossy fleet whose pricing is slow. A
// miss's plan is computed against the user's model clock and applied
// after the pricing; if the other goroutine moved the clock in between,
// the response would mix a plan priced at one instant with a device
// replay at another — an outcome no serial execution produces. So every
// round's six responses must together equal what some serial order of
// the two tapes yields. (Without route's wait on the pendingMiss marker
// this fails within a round or two.)
func TestSameUserConcurrentDoIsSerializable(t *testing.T) {
	g := smallGen(t, 16)
	content := smallContent(t, g)
	u := g.Config().Universe
	uid := g.Users()[0].ID

	// Six distinct tail pairs outside the community content: each is a
	// cloud miss whatever was served before it.
	var tapes [2][]Request
	for k := 0; k < 6; k++ {
		p := u.NonNavPair(u.Config().NonNavPairs - 1 - k)
		if _, ok := content.Scores[p]; ok {
			t.Fatal("tail pair unexpectedly popular")
		}
		tapes[k%2] = append(tapes[k%2], Request{User: uid, Query: u.QueryText(u.QueryOf(p)), Click: u.ResultURL(u.ResultOf(p))})
	}

	type key struct{ query, click string }
	keyOf := func(r Request) key { return key{r.Query, r.Click} }
	var serial []map[key]Response
	for _, order := range interleavings(tapes[0], tapes[1]) {
		// The sleep moves no outcome, so the oracle skips it.
		f := newTestFleet(t, g, content, slowLossy)
		out := make(map[key]Response, len(order))
		for _, req := range order {
			resp := f.Do(req)
			resp.Wall = 0
			out[keyOf(req)] = resp
		}
		serial = append(serial, out)
		f.Close()
	}

	var priced int64
	for round := 0; round < 6; round++ {
		f, slow := newSlowFleet(t, g, content, 3*time.Millisecond, nil)
		got := make(map[key]Response, 6)
		var mu sync.Mutex
		var wg sync.WaitGroup
		for _, tape := range tapes {
			wg.Add(1)
			go func(tape []Request) {
				defer wg.Done()
				for _, req := range tape {
					resp := f.Do(req)
					resp.Wall = 0
					mu.Lock()
					got[keyOf(req)] = resp
					mu.Unlock()
				}
			}(tape)
		}
		wg.Wait()
		f.Close()
		priced += slow.priced.Load()

		matched := false
		for _, want := range serial {
			if reflect.DeepEqual(got, want) {
				matched = true
				break
			}
		}
		if !matched {
			t.Fatalf("round %d: the six responses together match no serial order of the two tapes", round)
		}
	}
	if priced == 0 {
		t.Error("no miss was ever priced; nothing was held open, so the test proves nothing")
	}
}

// TestResizeUnderCallerRunDo: closed-loop clients serve their users'
// tapes with Do — on their own goroutines — while the fleet resizes
// 4→6→3 (and keeps cycling until a request was actually caught
// mid-migration and held). Every submission must be booked exactly
// once and every user's tier sequence must equal a never-resized
// fleet's: the epoch fence and the hold queues do for a caller-run
// request what they did for a queued one.
func TestResizeUnderCallerRunDo(t *testing.T) {
	g := smallGen(t, 48)
	tapes := tapesFor(g, 48, 1)
	f := newRingFleet(t, g, nil)

	const clients = 4
	users := g.Users()[:48]
	var stop atomic.Bool
	var submitted atomic.Int64
	got := make(map[searchlog.UserID][]Source, len(users))
	rounds := make(map[searchlog.UserID]int, len(users))
	var mu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for !stop.Load() {
				for i := c; i < len(users) && !stop.Load(); i += clients {
					uid := users[i].ID
					tiers := make([]Source, 0, len(tapes[uid]))
					for _, req := range tapes[uid] {
						resp := f.Do(req)
						if resp.Shed || resp.Err != nil {
							t.Errorf("user %d request failed: %+v", uid, resp)
							return
						}
						tiers = append(tiers, resp.Source)
					}
					submitted.Add(int64(len(tiers)))
					mu.Lock()
					got[uid] = append(got[uid], tiers...)
					rounds[uid]++
					mu.Unlock()
				}
			}
		}(c)
	}
	var held int64
	for cycle := 0; cycle < 400 && held == 0; cycle++ {
		for _, n := range []int{6, 3, 4} {
			st, err := f.Resize(n)
			if err != nil {
				t.Fatal(err)
			}
			held += st.HeldRequests
		}
	}
	stop.Store(true)
	wg.Wait()
	if held == 0 {
		t.Fatal("no request was ever held mid-migration; the test exercised no hold queue")
	}
	if s := f.Stats(); s.Served != submitted.Load() || s.Shed != 0 {
		t.Errorf("accounting broke: served %d, shed %d; submitted %d",
			s.Served, s.Shed, submitted.Load())
	}

	control := newRingFleet(t, g, nil)
	for uid, n := range rounds {
		var want []Source
		for r := 0; r < n; r++ {
			for _, req := range tapes[uid] {
				want = append(want, control.Do(req).Source)
			}
		}
		if !reflect.DeepEqual(got[uid], want) {
			t.Errorf("user %d: tier sequence across live resizes diverges from the never-resized fleet", uid)
		}
	}
	t.Logf("%d requests held across resizes, %d served", held, submitted.Load())
}

// TestCloseRacesCallerRunDo: Close must wait out requests being served
// on their callers' goroutines, and every Do racing it comes back
// either served or shed — no hang, no send to a closed dispatcher.
func TestCloseRacesCallerRunDo(t *testing.T) {
	g := smallGen(t, 16)
	content := smallContent(t, g)
	users := g.Users()[:8]
	for name, build := range map[string]func(t *testing.T) *Fleet{
		"plain": func(t *testing.T) *Fleet { return newTestFleet(t, g, content, nil) },
		"batched": func(t *testing.T) *Fleet {
			return newTestFleet(t, g, content, func(cfg *Config) {
				cfg.Batch = BatchOptions{Enabled: true, Linger: 200 * time.Microsecond}
			})
		},
		"priced": func(t *testing.T) *Fleet {
			f, _ := newSlowFleet(t, g, content, time.Millisecond, nil)
			return f
		},
	} {
		t.Run(name, func(t *testing.T) {
			f := build(t)
			var served, shed atomic.Int64
			var wg sync.WaitGroup
			for _, up := range users {
				wg.Add(1)
				go func(tape []Request) {
					defer wg.Done()
					for i := 0; ; i++ {
						resp := f.Do(tape[i%len(tape)])
						switch {
						case resp.Shed:
							shed.Add(1)
							return
						case resp.Err != nil:
							t.Errorf("Do racing Close: %+v", resp)
							return
						}
						served.Add(1)
					}
				}(requestsFor(g, up, 1))
			}
			time.Sleep(5 * time.Millisecond)
			f.Close()
			done := make(chan struct{})
			go func() { wg.Wait(); close(done) }()
			select {
			case <-done:
			case <-time.After(10 * time.Second):
				t.Fatal("Do hung across Close")
			}
			if s := f.Stats(); s.Served != served.Load() || s.Shed != shed.Load() || shed.Load() != int64(len(users)) {
				t.Errorf("fleet booked served %d shed %d, callers saw %d and %d", s.Served, s.Shed, served.Load(), shed.Load())
			}
		})
	}
}

// contendedFleet is the contention the repository benchmark's
// hit_closed has: a 2-shard fleet and two clients, each with its own 500
// warmed users' months, so the two serve on one shard's lock in
// stretches, about half the time. serve sends n caller-run Do hits
// over both clients.
func contendedFleet(tb testing.TB) (serve func(n int)) {
	const clients, usersPerClient = 2, 500
	gen := smallGen(tb, clients*usersPerClient)
	f := newTestFleet(tb, gen, smallContent(tb, gen), func(cfg *Config) {
		cfg.Shards = 2
		cfg.Options.DiscardResults = true
	})
	var tapes [clients][]Request
	for c := range tapes {
		for _, up := range gen.Users()[c*usersPerClient : (c+1)*usersPerClient] {
			tapes[c] = append(tapes[c], requestsFor(gen, up, 0)...)
		}
		for _, r := range tapes[c] { // warm: every later request is a hit
			f.Do(r)
		}
	}
	return func(n int) {
		var wg sync.WaitGroup
		for c := range tapes {
			share := n / clients
			if c == 0 {
				share += n % clients
			}
			wg.Add(1)
			go func(tape []Request, n int) {
				defer wg.Done()
				for i := 0; i < n; i++ {
					if resp := f.Do(tape[i%len(tape)]); resp.Err != nil {
						tb.Error(resp.Err)
						return
					}
				}
			}(tapes[c], share)
		}
		wg.Wait()
	}
}

// TestFleetServeDoContendedAllocs holds contendedFleet's hits to the
// ceiling of an uncontended Do: a lock waiter that spins allocates
// nothing. The mallocs are read around the run, not through
// testing.AllocsPerRun, which pins GOMAXPROCS to 1 and so would take
// away the contention.
func TestFleetServeDoContendedAllocs(t *testing.T) {
	const ceiling, n = 2, 2000
	serve := contendedFleet(t)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	serve(n)
	runtime.ReadMemStats(&after)
	if per := (after.Mallocs - before.Mallocs) / n; per > ceiling {
		t.Errorf("a contended Do allocates %d objects, recorded %d", per, ceiling)
	}
}

// BenchmarkFleetServeDoContended times contendedFleet: ns/op is wall
// time per request over both clients.
func BenchmarkFleetServeDoContended(b *testing.B) {
	serve := contendedFleet(b)
	b.ReportAllocs()
	b.ResetTimer()
	serve(b.N)
}
