package fleet

import (
	"bytes"
	"cmp"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"pocketcloudlets/internal/hash64"
	"pocketcloudlets/internal/placement"
	"pocketcloudlets/internal/searchlog"
	"pocketcloudlets/internal/workload"
)

// TestUserKeyMatchesLegacyRouting pins the placement key to the exact
// value the fleet's pre-placement routing hashed: if these diverge, the
// default modulo placement silently stops being byte-identical to the
// historical mapping.
func TestUserKeyMatchesLegacyRouting(t *testing.T) {
	for uid := uint64(0); uid < 4096; uid++ {
		legacy := hash64.Mix((uid+1)*0x9E3779B97F4A7C15 ^ 0x517CC1B727220A95)
		if got := placement.UserKey(uid); got != legacy {
			t.Fatalf("UserKey(%d) = %#x, legacy key = %#x", uid, got, legacy)
		}
	}
}

// newRingFleet builds a test fleet routed by a consistent-hash ring.
func newRingFleet(t testing.TB, g *workload.Generator, mutate func(*Config)) *Fleet {
	t.Helper()
	content := smallContent(t, g)
	return newTestFleet(t, g, content, func(cfg *Config) {
		ring, err := placement.NewRing(cfg.Shards, 0)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Placement = ring
		if mutate != nil {
			mutate(cfg)
		}
	})
}

// tapesFor materializes month tapes for the first n users.
func tapesFor(g *workload.Generator, n, month int) map[searchlog.UserID][]Request {
	tapes := make(map[searchlog.UserID][]Request, n)
	for _, up := range g.Users()[:n] {
		tapes[up.ID] = requestsFor(g, up, month)
	}
	return tapes
}

// serveTapes serves each user's stream in order, returning the tier
// each request was served from.
func serveTapes(t testing.TB, f *Fleet, tapes map[searchlog.UserID][]Request) map[searchlog.UserID][]Source {
	t.Helper()
	out := make(map[searchlog.UserID][]Source, len(tapes))
	for uid, tape := range tapes {
		for _, req := range tape {
			resp := f.Do(req)
			if resp.Shed || resp.Err != nil {
				t.Fatalf("user %d request failed: %+v", uid, resp)
			}
			out[uid] = append(out[uid], resp.Source)
		}
	}
	return out
}

// TestResizeEquivalence is the migration acceptance test: serving a
// warm-up round, live-resizing 4→6, then replaying the same tape must
// produce per-request tiers identical to a fleet that never resized —
// migrated users keep hitting their migrated personal caches, with no
// cold-miss spike.
func TestResizeEquivalence(t *testing.T) {
	g := smallGen(t, 64)
	tapes := tapesFor(g, 24, 1)

	control := newRingFleet(t, g, nil)
	serveTapes(t, control, tapes)
	want := serveTapes(t, control, tapes)

	resized := newRingFleet(t, g, nil)
	serveTapes(t, resized, tapes)
	st, err := resized.Resize(6)
	if err != nil {
		t.Fatal(err)
	}
	if st.MovedUsers == 0 {
		t.Fatal("ring 4→6 resize moved no users; test exercises nothing")
	}
	if st.DroppedUsers != 0 {
		t.Fatalf("resize dropped %d users' state", st.DroppedUsers)
	}
	got := serveTapes(t, resized, tapes)

	for uid, tiers := range want {
		for i, tier := range tiers {
			if got[uid][i] != tier {
				t.Fatalf("user %d request %d served from %v after resize, %v without",
					uid, i, got[uid][i], tier)
			}
		}
	}
	if c, r := control.Stats(), resized.Stats(); c.PersonalHits != r.PersonalHits ||
		c.CommunityHits != r.CommunityHits || c.CloudMisses != r.CloudMisses {
		t.Errorf("tier totals diverged: control %+v resized %+v", c, r)
	}
}

// TestResizeMigratesWarmBytes: a grow re-homes users together with
// their personal flash — fleet-wide personal bytes and user counts are
// conserved, and the re-homed share lands on the new shards.
func TestResizeMigratesWarmBytes(t *testing.T) {
	g := smallGen(t, 64)
	tapes := tapesFor(g, 24, 1)
	f := newRingFleet(t, g, nil)
	serveTapes(t, f, tapes)

	before := f.Stats()
	st, err := f.Resize(6)
	if err != nil {
		t.Fatal(err)
	}
	after := f.Stats()
	if after.Users != before.Users || after.PersonalBytes != before.PersonalBytes {
		t.Errorf("resize lost state: users %d→%d, personal bytes %d→%d",
			before.Users, after.Users, before.PersonalBytes, after.PersonalBytes)
	}
	if st.MovedBytes == 0 || st.TransferBytes < st.MovedBytes {
		t.Errorf("implausible transfer accounting: %+v", st)
	}
	var newShardUsers int
	for _, sl := range f.ShardLoads() {
		if sl.Shard >= 4 {
			newShardUsers += sl.Users
		}
	}
	if newShardUsers == 0 {
		t.Error("no users landed on the grown shards")
	}
	if f.NumShards() != 6 || f.PlacementName() != "ring" {
		t.Errorf("fleet reports %d shards / %q placement", f.NumShards(), f.PlacementName())
	}
}

// TestResizeDropStateBaseline: the remap-everything baseline cold-starts
// every mover — their personal bytes are gone and a previously personal
// repeat goes back to the cloud or community.
func TestResizeDropStateBaseline(t *testing.T) {
	g := smallGen(t, 64)
	tapes := tapesFor(g, 24, 1)

	control := newRingFleet(t, g, nil)
	serveTapes(t, control, tapes)
	want := serveTapes(t, control, tapes)

	f := newRingFleet(t, g, nil)
	serveTapes(t, f, tapes)
	before := f.Stats()
	st, err := f.ResizeWith(6, ResizeOptions{DropState: true})
	if err != nil {
		t.Fatal(err)
	}
	if st.MovedUsers == 0 || st.DroppedUsers != st.MovedUsers {
		t.Fatalf("drop baseline should drop every mover: %+v", st)
	}
	after := f.Stats()
	if after.PersonalBytes >= before.PersonalBytes {
		t.Errorf("dropped state but personal bytes held at %d (was %d)",
			after.PersonalBytes, before.PersonalBytes)
	}
	got := serveTapes(t, f, tapes)
	downgraded := 0
	for uid, tiers := range want {
		for i, tier := range tiers {
			if tier == SourcePersonal && got[uid][i] != SourcePersonal {
				downgraded++
			}
		}
	}
	if downgraded == 0 {
		t.Error("cold-restart baseline lost no personal hits; nothing was measured")
	}
}

// TestResizeShrink: 6→4 drains the retired shards completely and keeps
// serving correct; growing back re-spreads users again.
func TestResizeShrink(t *testing.T) {
	g := smallGen(t, 64)
	tapes := tapesFor(g, 24, 1)
	f := newRingFleet(t, g, func(cfg *Config) {
		cfg.Shards = 6
		ring, err := placement.NewRing(6, 0)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Placement = ring
	})
	serveTapes(t, f, tapes)
	before := f.Stats()

	if _, err := f.Resize(4); err != nil {
		t.Fatal(err)
	}
	after := f.Stats()
	if after.Users != before.Users || after.PersonalBytes != before.PersonalBytes {
		t.Errorf("shrink lost state: users %d→%d, bytes %d→%d",
			before.Users, after.Users, before.PersonalBytes, after.PersonalBytes)
	}
	if loads := f.ShardLoads(); len(loads) != 4 {
		t.Fatalf("topology holds %d shards after shrink to 4", len(loads))
	}
	serveTapes(t, f, tapes) // must still serve without panics or sheds

	if _, err := f.Resize(6); err != nil {
		t.Fatal(err)
	}
	if loads := f.ShardLoads(); len(loads) != 6 {
		t.Errorf("topology holds %d shards after regrow", len(loads))
	}
}

// TestResizeWhileServing resharpens the tentpole claim under -race:
// clients hammer the fleet while it grows and shrinks, and every
// submission is booked exactly once (Served+Shed), with no
// request lost in a hold queue.
func TestResizeWhileServing(t *testing.T) {
	g := smallGen(t, 48)
	f := newRingFleet(t, g, func(cfg *Config) {
		cfg.QueueDepth = 4096
	})

	users := g.Users()[:48]
	const clients = 4
	var submitted [clients]int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(users); i += clients {
				for _, req := range requestsFor(g, users[i], 1) {
					f.Do(req)
					submitted[c]++
				}
			}
		}(c)
	}
	for _, n := range []int{6, 3, 5} {
		if _, err := f.Resize(n); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	f.Drain()

	var total int64
	for _, n := range submitted {
		total += n
	}
	s := f.Stats()
	if s.Served+s.Shed != total {
		t.Errorf("accounting broke across live resizes: served %d + shed %d != submitted %d",
			s.Served, s.Shed, total)
	}
	if mig := f.MigrationStats(); mig.Resizes != 3 {
		t.Errorf("MigrationStats.Resizes = %d, want 3", mig.Resizes)
	}
}

// TestShardLoadsAccounting: per-shard served counters sum to the fleet
// total, so the skew report in loadgen adds up.
func TestShardLoadsAccounting(t *testing.T) {
	g := smallGen(t, 64)
	tapes := tapesFor(g, 16, 1)
	f := newTestFleet(t, g, smallContent(t, g), nil)
	serveTapes(t, f, tapes)

	var served, shed int64
	for _, sl := range f.ShardLoads() {
		served += sl.Served
		shed += sl.Shed
	}
	s := f.Stats()
	if served != s.Served || shed != s.Shed {
		t.Errorf("shard loads sum to %d served / %d shed, fleet counted %d / %d",
			served, shed, s.Served, s.Shed)
	}
}

// TestResizeValidation covers the error and no-op paths.
func TestResizeValidation(t *testing.T) {
	g := smallGen(t, 16)
	f := newTestFleet(t, g, smallContent(t, g), nil)

	if _, err := f.Resize(0); err == nil {
		t.Error("Resize(0) should fail")
	}
	st, err := f.Resize(4)
	if err != nil || st.Epochs != 0 || st.MovedUsers != 0 {
		t.Errorf("same-size resize should be a no-op: %+v, %v", st, err)
	}
	if _, err := New(Config{Engine: f.cfg.Engine, Content: f.cfg.Content, Shards: 4,
		Placement: mustRing(t, 8)}); err == nil {
		t.Error("placement/shard mismatch should fail New")
	}
	f.Close()
	if _, err := f.Resize(6); err == nil {
		t.Error("resize after Close should fail")
	}
}

func mustRing(t *testing.T, n int) placement.Placement {
	t.Helper()
	r, err := placement.NewRing(n, 0)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// BenchmarkResizeMigrate times live migration where the work is: a ring
// fleet of warmed users (each has replayed a month, so each carries a
// personal table and a few database files) grown 4→6 and shrunk back,
// per moved user. Nothing is being served meanwhile, so the figure is
// the export/import pair and the epoch around it, not queueing.
func BenchmarkResizeMigrate(b *testing.B) {
	const users = 1500
	g := smallGen(b, users)
	f := newRingFleet(b, g, func(cfg *Config) {
		cfg.Population = users
		cfg.Options.DisableSuggest = true
		cfg.Options.DiscardResults = true
	})
	for _, up := range g.Users() {
		for _, req := range requestsFor(g, up, 1) {
			if resp := f.Do(req); resp.Shed || resp.Err != nil {
				b.Fatalf("warm-up request failed: %+v", resp)
			}
		}
	}
	b.ResetTimer()
	var moved int64
	for i := 0; i < b.N; i++ {
		for _, n := range []int{6, 4} {
			st, err := f.Resize(n)
			if err != nil {
				b.Fatal(err)
			}
			if st.DroppedUsers != 0 {
				b.Fatalf("resize to %d dropped %d users", n, st.DroppedUsers)
			}
			moved += st.MovedUsers
		}
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(moved), "us/moved-user")
}

// orderObserver records the queries each user was answered, in answer
// order.
type orderObserver struct {
	mu   sync.Mutex
	seen map[searchlog.UserID][]string
}

func (o *orderObserver) Observe(r Response) {
	o.mu.Lock()
	o.seen[r.Req.User] = append(o.seen[r.Req.User], r.Req.Query)
	o.mu.Unlock()
}

// TestDrainHoldsManyUsers closes an epoch over a shard holding 2,500
// users' requests — a wall-timer resize under load — while a client keeps
// submitting for some of them. Every held request is answered in its
// user's submission order, a request that arrived during the drain after
// the ones it queued behind, and the shard's hold map is scanned once,
// not once per held user.
func TestDrainHoldsManyUsers(t *testing.T) {
	const (
		heldUsers = 2500
		perUser   = 3
		firstUID  = searchlog.UserID(100_000) // outside the population: nobody is resident
	)
	g := smallGen(t, 16)
	u := g.Config().Universe
	request := func(uid searchlog.UserID, k int) Request {
		p := u.NavPair(8 * k)
		return Request{User: uid, Query: u.QueryText(u.QueryOf(p)), Click: u.ResultURL(u.ResultOf(p))}
	}
	obs := &orderObserver{seen: make(map[searchlog.UserID][]string)}
	f := newRingFleet(t, g, func(cfg *Config) { cfg.Observer = obs })
	sh := f.topo.Load().shards[1]

	sh.mu.Lock()
	for i := 0; i < heldUsers; i++ {
		uid := firstUID + searchlog.UserID(i)
		q := &holdQueue{}
		for k := 0; k < perUser; k++ {
			q.tasks = append(q.tasks, task{req: request(uid, k), shard: sh.id})
		}
		sh.holds[uid] = q
		f.holdEntries.Add(1)
	}
	sh.mu.Unlock()

	// The late arrivals: one more request for every fifth user, racing
	// the drain. Each is parked behind its user's queue or, once that
	// queue is gone, served directly — after the held ones either way.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var resp Response
		for i := 0; i < heldUsers; i += 5 {
			f.process(&task{req: request(firstUID+searchlog.UserID(i), perUser), shard: sh.id}, &resp)
		}
	}()
	passes := f.drainShardHolds(sh)
	wg.Wait()
	// A late request either joined a queue the pass had yet to delete or
	// found none and was served: nothing is left for a second pass.
	if again := f.drainShardHolds(sh); passes != 1 || again != 0 {
		t.Errorf("%d held users drained in %d passes over the hold map (then %d more), want 1 (then 0)", heldUsers, passes, again)
	}
	sh.mu.Lock()
	left := len(sh.holds)
	sh.mu.Unlock()
	if left != 0 || f.holdEntries.Load() != 0 {
		t.Fatalf("%d hold queues left (%d counted) after the drain", left, f.holdEntries.Load())
	}
	obs.mu.Lock()
	defer obs.mu.Unlock()
	for i := 0; i < heldUsers; i++ {
		uid := firstUID + searchlog.UserID(i)
		want := perUser
		if i%5 == 0 {
			want++
		}
		got := obs.seen[uid]
		if len(got) != want {
			t.Fatalf("user %d was answered %d times, want %d", uid, len(got), want)
		}
		for k, q := range got {
			if q != request(uid, k).Query {
				t.Fatalf("user %d answer %d is %q, want %q: hold order broken", uid, k, q, request(uid, k).Query)
			}
		}
	}
}

// moveOneAtATime is the epoch's transfer as it was before moveUsers: each
// mover exported and then imported before the next is touched, all on
// the resizing goroutine. Kept as the oracle the pipelined transfer is
// held to.
func moveOneAtATime(tp *topology, p2 placement.Placement, src *shard, movers []searchlog.UserID, opts ResizeOptions, st *ResizeStats) {
	for _, uid := range movers {
		ex, ok, err := src.exportUser(uid)
		if !ok {
			continue
		}
		st.MovedUsers++
		if err != nil || opts.DropState {
			st.DroppedUsers++
			continue
		}
		if err := tp.shards[p2.ShardOf(placement.UserKey(uint64(uid)))].importUser(uid, ex); err != nil {
			st.DroppedUsers++
			continue
		}
		st.MovedBytes += ex.bytes
		st.TransferBytes += ex.update.TotalBytes()
	}
}

// userImage is everything a resident user carries, in comparable form.
type userImage struct {
	Shard                 int
	Served, Hits, Bytes   int64
	MissSeq               uint64
	Clock                 time.Duration
	Table                 []byte            // the personal table's wire encoding
	Files                 map[string][]byte // the result database, file by file
	Refs                  []evictRef        // sorted by result: the list's order means nothing
	Queries, Hit, Expands int               // the personal cache's own counters
}

// fleetImage snapshots every resident user of a drained fleet.
func fleetImage(t *testing.T, f *Fleet) map[searchlog.UserID]userImage {
	t.Helper()
	out := make(map[searchlog.UserID]userImage)
	for _, sh := range f.topo.Load().shards {
		sh.mu.Lock()
		sh.users.forEach(func(st *userState) {
			img := userImage{Shard: sh.id, Served: st.served, Hits: st.hits, Bytes: st.bytes, MissSeq: st.missSeq, Refs: slices.Clone(st.refs)}
			slices.SortFunc(img.Refs, func(a, b evictRef) int { return cmp.Compare(a.resultHash, b.resultHash) })
			if st.cache != nil {
				var buf bytes.Buffer
				if err := st.cache.Table().Encode(&buf); err != nil {
					t.Fatal(err)
				}
				store := st.cache.Device().Store()
				img.Table, img.Clock, img.Files = buf.Bytes(), sh.clock(st).Now(), make(map[string][]byte)
				for _, name := range store.Names() {
					img.Files[name], _ = store.Peek(name)
				}
				cs := st.cache.Stats()
				img.Queries, img.Hit, img.Expands = cs.Queries, cs.Hits, cs.Expansions
			}
			out[st.uid] = img
		})
		sh.mu.Unlock()
	}
	return out
}

// TestPipelinedResizeMatchesOneAtATime is the migration differential:
// two identical warmed ring fleets walk 4→3→6→8→4→2, one through the
// pipelined epoch, one through the one-at-a-time loop it replaced, with
// a round of traffic after every step. After each step the resize
// counters, the fleet totals, the energy ledger and every resident
// user's whole state — shard, serving counters, miss sequence, device
// clock, table encoding, every database file's bytes, eviction index —
// must be equal.
func TestPipelinedResizeMatchesOneAtATime(t *testing.T) {
	g := smallGen(t, 160)
	tapes := tapesFor(g, 160, 1)
	uids := make([]searchlog.UserID, 0, len(tapes))
	for uid := range tapes {
		uids = append(uids, uid)
	}
	slices.Sort(uids)
	// serve replays a slice of every user's tape, users in ID order, so
	// both fleets see one submission order.
	serve := func(f *Fleet, from, to int) {
		for _, uid := range uids {
			tape := tapes[uid]
			for _, req := range tape[min(from, len(tape)):min(to, len(tape))] {
				if resp := f.Do(req); resp.Shed || resp.Err != nil {
					t.Fatalf("user %d request failed: %+v", uid, resp)
				}
			}
		}
	}
	build := func() *Fleet {
		return newRingFleet(t, g, func(cfg *Config) {
			cfg.Population = 160
			cfg.PerUserBytes = 6_000 // tight enough that imports re-enforce the budget
		})
	}
	piped, serial := build(), build()
	serve(piped, 0, 12)
	serve(serial, 0, 12)

	for step, n := range []int{3, 6, 8, 4, 2} {
		got, err := piped.resize(n, ResizeOptions{}, moveUsers)
		if err != nil {
			t.Fatal(err)
		}
		want, err := serial.resize(n, ResizeOptions{}, moveOneAtATime)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("resize to %d: stats %+v, one at a time %+v", n, got, want)
		}
		if got.MovedUsers == 0 || got.DroppedUsers != 0 || got.TransferBytes == 0 {
			t.Fatalf("resize to %d moved nothing worth comparing: %+v", n, got)
		}
		serve(piped, 12+6*step, 18+6*step)
		serve(serial, 12+6*step, 18+6*step)
		piped.Drain()
		serial.Drain()

		if a, b := piped.Stats(), serial.Stats(); !reflect.DeepEqual(a, b) {
			t.Fatalf("after resize to %d: stats %+v, one at a time %+v", n, a, b)
		}
		if a, b := piped.EnergyStats(), serial.EnergyStats(); a != b {
			t.Fatalf("after resize to %d: energy %+v, one at a time %+v", n, a, b)
		}
		if a, b := piped.MigrationStats(), serial.MigrationStats(); a != b {
			t.Fatalf("after resize to %d: migration totals %+v, one at a time %+v", n, a, b)
		}
		a, b := fleetImage(t, piped), fleetImage(t, serial)
		if len(a) != len(uids) || len(b) != len(uids) {
			t.Fatalf("after resize to %d: %d and %d resident users, want %d", n, len(a), len(b), len(uids))
		}
		for _, uid := range uids {
			if !reflect.DeepEqual(a[uid], b[uid]) {
				t.Fatalf("after resize to %d: user %d differs:\n pipelined  %+v\n one by one %+v", n, uid, a[uid], b[uid])
			}
		}
	}
}
