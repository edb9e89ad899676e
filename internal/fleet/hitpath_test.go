package fleet

import (
	"fmt"
	"math"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"pocketcloudlets/internal/faults"
	"pocketcloudlets/internal/searchlog"
)

// These tests hold what the hit path was rebuilt around (DESIGN.md,
// "What a request writes"): an answer built in place and delivered
// exactly once whoever ends up giving it, counters that live with the
// shard and still sum to the fleet's, a route fence whose readers do not
// meet, and the layout all of that depends on. scripts/check.sh runs
// them under -race at -count 3.

const cacheLine = 64

// span is a field's byte range within its struct.
type span struct {
	name     string
	off, end uintptr
}

func fieldSpan(name string, off, size uintptr) span { return span{name, off, off + size} }

// apart reports whether two spans can never share a cache line, wherever
// the struct holding them starts: the bytes between them fill a line.
func apart(a, b span) bool {
	if a.off > b.off {
		a, b = b, a
	}
	return b.off >= a.end+cacheLine-1
}

// TestHitPathLayout is the layout rail. What every request reads shares
// no line with anything a request writes; the blocks different shards'
// servers write — counter blocks, fence stripes — and the locks
// different users' requests take — a shard's user stripes and its
// community lock — are a line apart from each other and from their
// neighbours; Response and task are the size
// the copy counts in DESIGN.md were measured at: grow one and this test
// makes you look (ROADMAP item 1); and userState, one per resident user,
// is no bigger than DESIGN.md's "Per-user state layout" allows.
func TestHitPathLayout(t *testing.T) {
	var f Fleet
	read := []span{
		fieldSpan("cfg", unsafe.Offsetof(f.cfg), unsafe.Sizeof(f.cfg)),
		fieldSpan("queues", unsafe.Offsetof(f.queues), unsafe.Sizeof(f.queues)),
		fieldSpan("view", unsafe.Offsetof(f.view), unsafe.Sizeof(f.view)),
		fieldSpan("cohorts", unsafe.Offsetof(f.cohorts), unsafe.Sizeof(f.cohorts)),
		fieldSpan("closed", unsafe.Offsetof(f.closed), unsafe.Sizeof(f.closed)),
	}
	// All a request writes in Fleet itself: the fence stripes.
	fence := unsafe.Offsetof(f.fence) + unsafe.Offsetof(f.fence.stripes)
	stripe := unsafe.Sizeof(f.fence.stripes[0])
	written := []span{
		fieldSpan("fence.stripes", fence, unsafe.Sizeof(f.fence.stripes)),
	}
	for _, r := range read {
		for _, w := range written {
			if !apart(r, w) {
				t.Errorf("Fleet.%s [%d,%d) can share a cache line with Fleet.%s [%d,%d)", r.name, r.off, r.end, w.name, w.off, w.end)
			}
		}
	}
	lock := unsafe.Sizeof(f.fence.stripes[0].RWMutex)
	if !apart(fieldSpan("stripe 0", 0, lock), fieldSpan("stripe 1", stripe, lock)) {
		t.Errorf("fence stripes are %d B apart with a %d B lock word: neighbours can share a line", stripe, lock)
	}

	// A shard's counter block: the written words sit a line inside the
	// block at both ends, so neither the shard's other fields nor whatever
	// the allocator puts beside the shard shares a line with them.
	var sh shard
	ctr := unsafe.Offsetof(sh.ctr)
	first := ctr + unsafe.Offsetof(sh.ctr.served)
	last := ctr + unsafe.Offsetof(sh.ctr.batchSizes) + unsafe.Sizeof(sh.ctr.batchSizes)
	if first-ctr < cacheLine || ctr+unsafe.Sizeof(sh.ctr)-last < cacheLine {
		t.Errorf("shard.ctr's counters span [%d,%d) of a block at [%d,%d): less than a line of padding on a side",
			first, last, ctr, ctr+unsafe.Sizeof(sh.ctr))
	}
	// A shard's locks: neighbouring user stripes' lock words are a line
	// apart, and the community lock shares no line with a stripe's or
	// with the counters; what every request reads of the shard shares no
	// line with any of them.
	counters := span{"ctr's counters", first, last}
	comm := fieldSpan("commMu", unsafe.Offsetof(sh.commMu), unsafe.Sizeof(sh.commMu))
	read = []span{
		fieldSpan("cohorts", unsafe.Offsetof(sh.cohorts), unsafe.Sizeof(sh.cohorts)),
		fieldSpan("community", unsafe.Offsetof(sh.community), unsafe.Sizeof(sh.community)),
		fieldSpan("users.slots", unsafe.Offsetof(sh.users)+unsafe.Offsetof(sh.users.slots), unsafe.Sizeof(sh.users.slots)),
		fieldSpan("users.chunks", unsafe.Offsetof(sh.users)+unsafe.Offsetof(sh.users.chunks), unsafe.Sizeof(sh.users.chunks)),
	}
	locks := []span{comm}
	for i := range sh.stripes {
		off := unsafe.Offsetof(sh.stripes) + uintptr(i)*unsafe.Sizeof(sh.stripes[0]) + unsafe.Offsetof(sh.stripes[0].mu)
		locks = append(locks, fieldSpan(fmt.Sprintf("stripes[%d].mu", i), off, unsafe.Sizeof(sh.stripes[i].mu)))
	}
	for i, l := range locks {
		others := append([]span{counters}, read...)
		if i > 0 {
			others = append(others, comm)
		}
		if i > 1 {
			others = append(others, locks[i-1])
		}
		for _, o := range others {
			if !apart(o, l) {
				t.Errorf("shard.%s [%d,%d) can share a line with shard.%s [%d,%d)", o.name, o.off, o.end, l.name, l.off, l.end)
			}
		}
	}
	var q workerQueue
	if pad := unsafe.Sizeof(q) - (unsafe.Offsetof(q.pending) + unsafe.Sizeof(q.pending)); pad < cacheLine {
		t.Errorf("workerQueue ends %d B after pending, want a line of padding", pad)
	}

	if got := unsafe.Sizeof(Response{}); got != 256 {
		t.Errorf("Response is %d B, was 256: it is copied twice per request (Observe's argument) — re-measure hit_closed before growing it", got)
	}
	if got := unsafe.Sizeof(task{}); got != 96 {
		t.Errorf("task is %d B, was 96: it is copied into the queue or a missTask — re-measure day_replay before growing it", got)
	}
	if got := unsafe.Sizeof(userState{}); got > 88 {
		t.Errorf("userState is %d B, at most 88 allowed: every resident user's arena slot pays it, and a shard's arena grows 1,024 slots a chunk — on fault_hedge (~150 users a shard) 16 B more per slot cost ~4%% heap per user", got)
	}
}

// TestRouteFence is the reader lock on its own: a writer excludes a
// reader on every stripe and every reader excludes a writer; readers on
// different stripes — and on the same one — do not exclude each other.
func TestRouteFence(t *testing.T) {
	var l routeFence
	stripes := len(l.stripes)
	seen := make(map[*sync.RWMutex]bool)
	for uid := 0; uid < 4*stripes; uid++ {
		seen[l.reader(searchlog.UserID(uid))] = true
	}
	if len(seen) != stripes {
		t.Fatalf("%d consecutive users map to %d stripes, want all %d", 4*stripes, len(seen), stripes)
	}

	// Readers on every stripe at once, two on stripe 0: none blocks.
	for uid := 0; uid <= stripes; uid++ {
		l.reader(searchlog.UserID(uid)).RLock()
	}
	// A writer now waits for all of them, whichever it meets first.
	locked := make(chan struct{})
	go func() {
		l.Lock()
		close(locked)
	}()
	for uid := stripes; uid >= 1; uid-- {
		select {
		case <-locked:
			t.Fatalf("the writer got in with readers still on %d stripes", uid)
		case <-time.After(time.Millisecond):
		}
		l.reader(searchlog.UserID(uid)).RUnlock()
	}
	select {
	case <-locked:
		t.Fatal("the writer got in with a reader still on stripe 0")
	case <-time.After(time.Millisecond):
	}
	l.reader(0).RUnlock()
	<-locked

	// With the writer in, a reader on any stripe waits.
	var in atomic.Int32
	var wg sync.WaitGroup
	for uid := 0; uid < stripes; uid++ {
		wg.Add(1)
		go func(uid int) {
			defer wg.Done()
			mu := l.reader(searchlog.UserID(uid))
			mu.RLock()
			in.Add(1)
			mu.RUnlock()
		}(uid)
	}
	time.Sleep(5 * time.Millisecond)
	if n := in.Load(); n != 0 {
		t.Fatalf("%d readers got past a held writer", n)
	}
	l.Unlock()
	wg.Wait()
}

// lossyHedgedBatched is a fleet whose misses retry, hedge across three
// replicas and share radio sessions, with loss as the only fault: no
// outage window, so a plan does not read the clock a batch-mate or a
// migration can shift.
func lossyHedgedBatched(cfg *Config) {
	cfg.Faults = faults.Options{Enabled: true, Seed: 9, LossProb: 0.3}
	cfg.Retry = faults.RetryPolicy{MaxAttempts: 3}
	cfg.Replicas = 3
	hedgeAll(cfg, faults.HedgePolicy{CloneFactor: 2, Delay: 200 * time.Millisecond})
	cfg.Batch = BatchOptions{Enabled: true, Linger: time.Millisecond}
}

// TestCountersCrossFootThroughResizes: clients mixing Do and Submit
// while the fleet resizes 4→6→3, counters now living with whichever
// shard served. Every submission is booked once (Served+Shed), the
// per-source counters sum to Served,
// occupancy cross-foots against the retired fold, and the device-side
// energy ledger equals, to the nanojoule, both the sum over the
// responses the observer saw and a one-goroutine, never-resized replay
// of the same tapes — integer sums do not care which shard's block, or
// the retired fold, took an add. On the lossy fleet the miss-plan
// counters (retries, exhausted, clones, wins, wasted) equal the replay's
// too, and the sessions' sizes sum to the misses they carried.
func TestCountersCrossFootThroughResizes(t *testing.T) {
	t.Run("clean", func(t *testing.T) { crossFootThroughResizes(t, func(*Config) {}) })
	t.Run("lossy", func(t *testing.T) { crossFootThroughResizes(t, lossyHedgedBatched) })
}

func crossFootThroughResizes(t *testing.T, configure func(*Config)) {
	const users, clients = 48, 4
	g := smallGen(t, users)
	tapes := tapesFor(g, users, 1)
	for uid, tape := range tapes {
		tapes[uid] = tape[:min(len(tape), 60)]
	}
	nj := func(j float64) int64 { return int64(math.Round(j * 1e9)) }

	// Both fleets are primed by one goroutine: afterwards every pair of
	// every tape is cached — a miss the cloud never answered is asked
	// again — so the measured pass is all local hits, whose modeled cost
	// does not depend on where a resize has moved the user (a miss's
	// does: a migrated device's radio starts cold).
	prime := func(f *Fleet) (n int64) {
		for _, up := range g.Users()[:users] {
			for _, req := range tapes[up.ID] {
				for unanswered := true; unanswered; n++ {
					resp := f.Do(req)
					if resp.Shed || resp.Err != nil {
						t.Fatalf("priming: %+v", resp)
					}
					unanswered = resp.Source == SourceDegraded || resp.Source == SourceUnavailable
				}
			}
		}
		return n
	}
	rec := &recorder{}
	f := newRingFleet(t, g, func(cfg *Config) {
		configure(cfg)
		cfg.Observer = rec
		cfg.QueueDepth = 1 << 16
	})
	primed := prime(f)
	primedMisses := f.Stats().CloudMisses

	var submitted atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < users; i += clients {
				for k, req := range tapes[g.Users()[i].ID] {
					var resp Response
					if (i+k)%4 == 0 {
						if !f.Submit(req) {
							t.Errorf("Submit shed %+v", req)
						}
					} else {
						resp = f.Do(req)
					}
					submitted.Add(1)
					if resp.Shed || resp.Err != nil {
						t.Errorf("user %d request %d: %+v", req.User, k, resp)
					}
				}
			}
		}(c)
	}
	for _, n := range []int{6, 3} {
		if _, err := f.Resize(n); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	f.Drain()

	s := f.Stats()
	if s.CloudMisses != primedMisses {
		t.Errorf("%d cloud misses after priming; the measured pass was to be all hits", s.CloudMisses-primedMisses)
	}
	if want := primed + submitted.Load(); s.Served != want || s.Shed != 0 {
		t.Errorf("served %d, shed %d; want all %d submissions served", s.Served, s.Shed, want)
	}
	if sum := s.PersonalHits + s.CommunityHits + s.CloudMisses + s.Degraded + s.Unavailable; sum != s.Served || s.Errors != 0 {
		t.Errorf("per-source counters sum to %d, served %d (errors %d)", sum, s.Served, s.Errors)
	}
	occ := f.RetiredLoad()
	if occ.Served == 0 {
		t.Error("the shrink retired no served request: the retired fold went unexercised")
	}
	for _, l := range f.ShardLoads() {
		occ.Served += l.Served
		occ.Shed += l.Shed
	}
	if occ.Served != s.Served || occ.Shed != s.Shed {
		t.Errorf("ShardLoads + RetiredLoad = %d served, %d shed; Stats says %d, %d", occ.Served, occ.Shed, s.Served, s.Shed)
	}

	es := f.EnergyStats()
	var radio, base int64
	for _, resps := range rec.resps {
		for _, r := range resps {
			radio += nj(r.RadioJ)
			base += nj(r.EnergyJ - r.RadioJ)
		}
	}
	if nj(es.RadioJ) != radio || nj(es.DeviceBaseJ) != base {
		t.Errorf("ledger reads radio %d nJ, base %d nJ; the responses sum to %d, %d", nj(es.RadioJ), nj(es.DeviceBaseJ), radio, base)
	}

	control := newRingFleet(t, g, func(cfg *Config) {
		configure(cfg)
		cfg.Workers = 1
	})
	prime(control)
	prime(control)
	cs, ce := control.Stats(), control.EnergyStats()
	if nj(ce.RadioJ) != nj(es.RadioJ) || nj(ce.DeviceBaseJ) != nj(es.DeviceBaseJ) ||
		cs.PersonalHits != s.PersonalHits || cs.CommunityHits != s.CommunityHits || cs.CloudMisses != s.CloudMisses {
		t.Errorf("one goroutine, no resize: radio %d nJ, base %d nJ, tiers %d/%d/%d; %d clients through 4→6→3: %d, %d, %d/%d/%d",
			nj(ce.RadioJ), nj(ce.DeviceBaseJ), cs.PersonalHits, cs.CommunityHits, cs.CloudMisses,
			clients, nj(es.RadioJ), nj(es.DeviceBaseJ), s.PersonalHits, s.CommunityHits, s.CloudMisses)
	}
	plan := func(s Stats) [6]int64 {
		return [6]int64{s.Retries, s.Exhausted, s.ClonesLaunched, s.PrimaryWins, s.CloneWins, s.WastedAttempts}
	}
	if plan(cs) != plan(s) {
		t.Errorf("retries, exhausted, clones, primary/clone wins, wasted: one goroutine, no resize %v; through 4→6→3 %v", plan(cs), plan(s))
	}
	var carried int64
	for size, n := range s.BatchSizes {
		carried += int64(size) * n
	}
	if carried != s.BatchedMisses {
		t.Errorf("the sessions carried %d misses by size, %d by count", carried, s.BatchedMisses)
	}
	if s.BatchSizes != nil && (s.Retries == 0 || s.ClonesLaunched == 0 || f.retired.retries.Load() == 0) {
		t.Errorf("the lossy fleet left the miss-plan fold unexercised: %+v (retired retries %d)", s, f.retired.retries.Load())
	}
}

// TestResizeLeavesStatsAlone: a resize serves nothing, so on a drained
// faulted, hedged, batched fleet a traffic-free grow and then a
// traffic-free shrink each leave every Stats field where it was — the
// retired shards' session sizes included, because every counter a
// request books lives in the block a retirement folds.
func TestResizeLeavesStatsAlone(t *testing.T) {
	g := smallGen(t, 32)
	f := newRingFleet(t, g, func(cfg *Config) {
		cfg.QueueDepth = 4096
		cfg.Faults = faults.Options{Enabled: true, Seed: 5, LossProb: 0.5}
		cfg.Retry = faults.RetryPolicy{MaxAttempts: 2}
		cfg.Replicas = 3
		hedgeAll(cfg, faults.HedgePolicy{CloneFactor: 2, Delay: 200 * time.Millisecond})
		cfg.Batch = BatchOptions{Enabled: true, Linger: time.Millisecond}
	})
	runResponses(t, f, g, g.Users()[:24])
	f.Drain()
	want := f.Stats()
	if want.Batches == 0 || want.ClonesLaunched == 0 {
		t.Fatalf("no session fired or no clone launched: %+v", want)
	}
	for _, n := range []int{6, 2} {
		if _, err := f.Resize(n); err != nil {
			t.Fatal(err)
		}
		if got := f.Stats(); !reflect.DeepEqual(got, want) {
			t.Errorf("Resize(%d) moved Stats:\n  before %+v\n  after  %+v", n, want, got)
		}
	}
	var retiredSessions int64
	for i := range f.retired.batchSizes {
		retiredSessions += f.retired.batchSizes[i].Load()
	}
	if retiredSessions == 0 {
		t.Error("the shrink retired no session size: the fold went unexercised")
	}
}

// TestCallerRunDoAnsweredOnceWhenHandedOn: a Do that starts in place and
// then cannot finish there — its miss is parked with a dispatcher — is
// answered through a mailbox, exactly once, with the response the
// observer saw; one whose pricing is slow finishes in place once it is
// planned, also once.
func TestCallerRunDoAnsweredOnceWhenHandedOn(t *testing.T) {
	g := smallGen(t, 16)
	content := smallContent(t, g)
	uid := g.Users()[0].ID
	miss := missBeyondContent(t, g, len(content.Triplets), uid)

	// answered runs Do(req) on its own goroutine and checks that it came
	// back with the one response the observer recorded for the user.
	answered := func(t *testing.T, f *Fleet, rec *recorder, req Request, during func()) Response {
		t.Helper()
		got := make(chan Response, 1)
		go func() { got <- f.Do(req) }()
		if during != nil {
			during()
		}
		var resp Response
		select {
		case resp = <-got:
		case <-time.After(10 * time.Second):
			t.Fatal("Do never returned")
		}
		f.Drain()
		rec.mu.Lock()
		seen := rec.resps[req.User]
		rec.mu.Unlock()
		resp.Wall = 0
		if len(seen) != 1 || !reflect.DeepEqual(seen[0], resp) {
			t.Fatalf("Do returned %+v; the observer saw %d responses: %+v", resp, len(seen), seen)
		}
		if s := f.Stats(); s.Served != 1 || s.Shed != 0 {
			t.Fatalf("served %d, shed %d; want exactly one served", s.Served, s.Shed)
		}
		return resp
	}

	t.Run("parked", func(t *testing.T) {
		rec := &recorder{}
		f := newTestFleet(t, g, content, func(cfg *Config) {
			cfg.Observer = rec
			cfg.Batch = BatchOptions{Enabled: true, Linger: 20 * time.Millisecond}
		})
		if resp := answered(t, f, rec, miss, nil); resp.Source != SourceCloud || resp.BatchSize != 1 {
			t.Errorf("parked miss came back %+v, want a batch of one", resp)
		}
	})

	t.Run("priced", func(t *testing.T) {
		// Find a miss the lossy link lets reach the backend, so its
		// pricing really holds it open.
		for k := 0; k < 64; k++ {
			rec := &recorder{}
			f, slow := newSlowFleet(t, g, content, 2*time.Millisecond, func(cfg *Config) { cfg.Observer = rec })
			req := missBeyondContent(t, g, len(content.Triplets)+k, uid)
			if answered(t, f, rec, req, nil); slow.priced.Load() > 0 {
				return
			}
			f.Close()
		}
		t.Fatal("no miss was ever priced; nothing was held open")
	})
}
