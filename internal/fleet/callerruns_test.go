package fleet

import (
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pocketcloudlets/internal/faults"
	"pocketcloudlets/internal/searchlog"
)

// These tests pin what "exactly one worker touches a shard" used to
// give for free, now that a blocking caller with nothing queued ahead
// of it serves its own request (DESIGN.md, "Who runs a request"). All
// run under -race in scripts/check.sh.

// pacedLossy configures one shard whose cloud misses often plan
// failures and then really sleep for them, so a planned miss stays
// unapplied long enough for other goroutines to arrive.
func pacedLossy(pause time.Duration) func(*Config) {
	return func(cfg *Config) {
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
		cfg.Retry = faults.RetryPolicy{MaxAttempts: 4, WallPauseScale: 1, MaxWallPause: pause}
		cfg.Breaker = BreakerOptions{Threshold: -1}
	}
}

// TestSubmitThenDoKeepsOrder: one goroutine interleaving Submit and Do
// for the same user, with paced misses keeping the worker's queue
// non-empty, must have its requests applied in the order it issued them
// — a Do that finds work pending queues behind it, one that finds none
// runs at once — so the user's response sequence equals both the
// all-Do and the all-Submit-then-Drain sequences.
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
		f := newTestFleet(t, g, content, func(cfg *Config) {
			pacedLossy(2 * time.Millisecond)(cfg)
			cfg.Observer = rec
		})
		for i, req := range tape {
			issue(f, i, req)
		}
		f.Drain()
		if s := f.Stats(); s.Served != int64(len(tape)) || s.Shed != 0 {
			t.Fatalf("served %d shed %d of %d", s.Served, s.Shed, len(tape))
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
	var paced bool
	for i, resp := range mixed {
		if resp.Req != tape[i] {
			t.Fatalf("request %d applied out of submission order: got %+v, want %+v", i, resp.Req, tape[i])
		}
		paced = paced || resp.Attempts > 1
	}
	if !paced {
		t.Error("no miss ever retried; nothing kept the queue non-empty")
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
// same user's cloud misses on a lossy, really-pausing fleet. A miss's
// plan is computed against the user's model clock and applied after the
// pause; if the other goroutine moved the clock in between, the
// response would mix a plan priced at one instant with a device replay
// at another — an outcome no serial execution produces. So every round's
// six responses must together equal what some serial order of the two
// tapes yields. (Without the pendingMiss marker on paced misses this
// fails within a round or two.)
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
		// The pause is wall-clock only, so the oracle skips it.
		f := newTestFleet(t, g, content, func(cfg *Config) {
			pacedLossy(0)(cfg)
			cfg.Retry.WallPauseScale = -1
		})
		out := make(map[key]Response, len(order))
		for _, req := range order {
			resp := f.Do(req)
			resp.Wall = 0
			out[keyOf(req)] = resp
		}
		serial = append(serial, out)
		f.Close()
	}

	var retried bool
	for round := 0; round < 6; round++ {
		f := newTestFleet(t, g, content, pacedLossy(3*time.Millisecond))
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
		for _, resp := range got {
			retried = retried || resp.Attempts > 1
		}
	}
	if !retried {
		t.Error("no miss ever retried; nothing was paced, so the test proves nothing")
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
	for name, mutate := range map[string]func(*Config){
		"plain":   nil,
		"batched": func(cfg *Config) { cfg.Batch = BatchOptions{Enabled: true, Linger: 200 * time.Microsecond} },
		"paced":   pacedLossy(time.Millisecond),
	} {
		t.Run(name, func(t *testing.T) {
			f := newTestFleet(t, g, content, mutate)
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

// BenchmarkFleetServeDoContended is the contention the repository
// benchmark's hit_closed has: two goroutines send caller-run Do hits to
// a 2-shard fleet, each replaying its own 500 warmed users one whole
// month at a time, so the two serve on one shard's lock in stretches,
// about half the time. ns/op is wall time per request over both.
func BenchmarkFleetServeDoContended(b *testing.B) {
	const clients, usersPerClient = 2, 500
	gen := smallGen(b, clients*usersPerClient)
	f := newTestFleet(b, gen, smallContent(b, gen), func(cfg *Config) {
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
				if resp := f.Do(tape[i%len(tape)]); resp.Err != nil {
					b.Error(resp.Err)
					return
				}
			}
		}(tapes[c], n)
	}
	wg.Wait()
}
