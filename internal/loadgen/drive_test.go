package loadgen

import (
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"pocketcloudlets/internal/autoscale"
	"pocketcloudlets/internal/fleet"
	"pocketcloudlets/internal/modeltime"
	"pocketcloudlets/internal/searchlog"
	"pocketcloudlets/internal/workload"
)

// Test helpers the external-package tests (package loadgen_test) share.
var (
	SmallGen     = smallGen
	SmallContent = smallContent
	NewRingRig   = newRingRig
)

// TestClosedTimelinesEnd: a closed-loop run ends under every timeline
// that could strand its users at an event, and fires each event exactly
// once, in order, without losing or repeating a request: an event at 0,
// two at one offset, events with a per-user cap or think time, and a
// run whose wall deadline passes before an event's offset. A failed
// event ends the run: the users, stopped before their first entry at or
// past it, never resume, and no later event fires.
func TestClosedTimelinesEnd(t *testing.T) {
	const (
		day   = 24 * time.Hour
		month = 30 * day
	)
	g := smallGen(t, 16)
	content := smallContent(t, g)
	capped := []ClosedClassConfig{{Hi: 16, MaxQueriesPerUser: 3}}
	paced := []ClosedClassConfig{{Hi: 16, Pace: modeltime.Pacer{Scale: 1e-6, MaxPause: 100 * time.Microsecond}}}
	run := func(f *fleet.Fleet, col *Collector, cfg ClosedConfig) (r Report, err error) {
		t.Helper()
		done := make(chan struct{})
		go func() {
			defer close(done)
			r, err = RunClosed(f, col, g, cfg)
		}()
		select {
		case <-done:
		case <-time.After(time.Minute):
			t.Fatalf("%+v: the run did not end within a minute", cfg)
		}
		return r, err
	}
	for _, c := range []struct {
		name    string
		cfg     ClosedConfig
		control bool // the run serves what the same config without events serves
	}{
		{"event at 0", ClosedConfig{Events: []TimelineEvent{{At: 0, ResizeTo: 6}}}, true},
		{"two events at one offset", ClosedConfig{Events: []TimelineEvent{{At: 15 * day, ResizeTo: 6}, {At: 15 * day, ResizeTo: 3}}}, true},
		{"per-user cap", ClosedConfig{Classes: capped, Events: []TimelineEvent{{At: 0, ResizeTo: 6}, {At: 15 * day, ResizeTo: 5}, {At: 2 * month, ResizeTo: 3}}}, true},
		{"think time", ClosedConfig{Classes: paced, Events: []TimelineEvent{{At: 15 * day, ResizeTo: 6, DropState: true}}}, true},
		{"wall deadline before the event", ClosedConfig{Duration: 20 * time.Millisecond,
			Events: []TimelineEvent{{At: 15 * day, ResizeTo: 6}, {At: 1000 * month, ResizeTo: 3}}}, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			c.cfg.Users, c.cfg.Month = 16, 1
			f, col := newRingRig(t, g, content, 4)
			r, err := run(f, col, c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			last := c.cfg.Events[len(c.cfg.Events)-1].ResizeTo
			if r.Resizes != int64(len(c.cfg.Events)) || f.NumShards() != last {
				t.Errorf("%d resizes ending at %d shards, want %d ending at %d", r.Resizes, f.NumShards(), len(c.cfg.Events), last)
			}
			if !c.control {
				return
			}
			cf, ccol := newRingRig(t, g, content, 4)
			noEvents := c.cfg
			noEvents.Events = nil
			want, err := run(cf, ccol, noEvents)
			if err != nil {
				t.Fatal(err)
			}
			if r.Requests != want.Requests || r.Served != want.Served || r.Shed+want.Shed != 0 {
				t.Errorf("requests %d served %d shed %d, without events %d/%d/%d", r.Requests, r.Served, r.Shed, want.Requests, want.Served, want.Shed)
			}
		})
	}
	t.Run("failed event", func(t *testing.T) {
		f, col := newRingRig(t, g, content, 4)
		f.Close() // every Do sheds and every resize fails
		_, err := run(f, col, ClosedConfig{Users: 16, Month: 1,
			Events: []TimelineEvent{{At: 15 * day, ResizeTo: 6}, {At: 20 * day, ResizeTo: 3}}})
		if err == nil || !strings.Contains(err.Error(), "timeline resize at 360h0m0s") {
			t.Fatalf("RunClosed returned %v, want the first event's error", err)
		}
		var before uint64
		for _, up := range g.Users() {
			for _, e := range g.UserStream(up, 1) {
				if e.At < 15*day {
					before++
				}
			}
		}
		if cnt := col.snapshot(); cnt.row().Shed != before {
			sent := cnt.row().Shed
			t.Errorf("%d requests went out, want the %d before the failed event", sent, before)
		}
	})
}

// TestReplayOrder pins the control plane's order against the arrival
// tape: everything due at or before an arrival fires before it, a resize
// event before a sample at the same offset; resize events past the last
// arrival fire, samples past it do not.
func TestReplayOrder(t *testing.T) {
	const ms = time.Millisecond
	g := smallGen(t, 16)
	content := smallContent(t, g)
	as := &autoscale.Config{Interval: 100 * ms, Min: 1, Max: 12, UpAfter: 100, DownAfter: 100}
	timeline := []TimelineEvent{{At: 100 * ms, ResizeTo: 6}, {At: 120 * ms}, {At: time.Hour, ResizeTo: 3}}
	for _, c := range []struct {
		name      string
		arrivals  []time.Duration
		autoscale *autoscale.Config
		timeline  []TimelineEvent
		want      []string
		shards    int
	}{
		{"events, samples and arrivals tie", []time.Duration{50 * ms, 100 * ms, 250 * ms}, as, timeline, []string{
			"50ms arrival", "100ms resize", "100ms sample", "100ms arrival",
			"120ms resize", "200ms sample", "250ms arrival", "1h0m0s resize"}, 3},
		{"samples only", []time.Duration{100 * ms, 100 * ms, 399 * ms}, as, nil, []string{
			"100ms sample", "100ms arrival", "100ms arrival", "200ms sample", "300ms sample", "399ms arrival"}, 4},
		{"events only", []time.Duration{10 * ms, 110 * ms}, nil, timeline, []string{
			"10ms arrival", "100ms resize", "110ms arrival", "120ms resize", "1h0m0s resize"}, 3},
		{"empty tape", nil, as, timeline, []string{"100ms resize", "120ms resize", "1h0m0s resize"}, 3},
		{"no control plane", []time.Duration{time.Second}, nil, nil, []string{"1s arrival"}, 4},
	} {
		t.Run(c.name, func(t *testing.T) {
			f, _ := newRingRig(t, g, content, 4)
			var events []TraceEvent
			for i, at := range c.arrivals {
				events = append(events, TraceEvent{At: at, User: g.Users()[i].ID, Query: "q", Click: "c"})
			}
			p, err := NewReplay(f, OpenConfig{Events: c.timeline, Autoscale: c.autoscale}, events)
			if err != nil {
				t.Fatal(err)
			}
			var got []string
			fire := func(through time.Duration) {
				for at, ok := p.Next(); ok && at <= through; at, ok = p.Next() {
					kind, pending := "sample", len(p.timeline)
					if err := p.Fire(); err != nil {
						t.Fatal(err)
					}
					if len(p.timeline) < pending {
						kind = "resize"
					}
					got = append(got, fmt.Sprint(at, " ", kind))
				}
			}
			for _, ev := range events {
				fire(ev.At)
				got = append(got, fmt.Sprint(ev.At, " arrival"))
			}
			fire(1<<63 - 1)
			if !reflect.DeepEqual(got, c.want) {
				t.Errorf("order:\n got  %q\n want %q", got, c.want)
			}
			if samples := len(got) - len(events) - len(c.timeline); p.ctl != nil && len(p.ctl.Samples()) != samples {
				t.Errorf("controller saw %d samples, want %d", len(p.ctl.Samples()), samples)
			}
			if f.NumShards() != c.shards {
				t.Errorf("final shards = %d, want %d", f.NumShards(), c.shards)
			}
			if err := p.Fire(); err != nil || len(p.Actions()) != 0 {
				t.Errorf("Fire with nothing left: err %v, actions %v", err, p.Actions())
			}
		})
	}
}

// refClassEvents is classEvents as it was when every class built its own
// month log and every event its own request text — the reference
// OpenEvents' shared log and interned text are held to.
func refClassEvents(t *testing.T, g *workload.Generator, cfg OpenConfig, cc OpenClassConfig, seed int64, maxReq int) []TraceEvent {
	t.Helper()
	schedule, err := modeltime.Schedule(classSpec(g, cfg, cc, seed, maxReq))
	if err != nil {
		t.Fatal(err)
	}
	profiles := g.Users()
	cursors := make([]*workload.Cursor, len(profiles))
	var tape []searchlog.Entry
	if cc.Arrivals != modeltime.PerUser {
		for _, e := range g.MonthLog(cfg.Month).Entries {
			if idx := int(e.User); idx >= cc.Lo && idx < cc.Hi {
				tape = append(tape, e)
			}
		}
	}
	events := make([]TraceEvent, len(schedule))
	for i, a := range schedule {
		var e searchlog.Entry
		if a.User >= 0 {
			if cursors[a.User] == nil {
				cursors[a.User] = g.Cursor(profiles[a.User], cfg.Month)
			}
			e, _ = cursors[a.User].Next()
		} else {
			e = tape[i%len(tape)]
		}
		rq := request(g.Config().Universe, e, cc.Name)
		events[i] = TraceEvent{At: a.At, User: rq.User, Class: rq.Class, Query: rq.Query, Click: rq.Click}
	}
	return events
}

// bySort is the merge the lazy one replaced: every stream's events
// sorted by (At, class, within-class order), cut at limit.
func bySort(streams [][]TraceEvent, limit int) []TraceEvent {
	type tagged struct {
		ev      TraceEvent
		ci, seq int
	}
	var all []tagged
	for ci, evs := range streams {
		for seq, ev := range evs {
			all = append(all, tagged{ev, ci, seq})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].ev.At != all[j].ev.At {
			return all[i].ev.At < all[j].ev.At
		}
		if all[i].ci != all[j].ci {
			return all[i].ci < all[j].ci
		}
		return all[i].seq < all[j].seq
	})
	if len(all) > limit {
		all = all[:limit]
	}
	out := make([]TraceEvent, len(all))
	for i, tg := range all {
		out[i] = tg.ev
	}
	return out
}

// mergeStreams is the schedule stream's merge over pre-drawn class
// streams, collected.
func mergeStreams(streams [][]TraceEvent, limit int) []TraceEvent {
	return sliceStream(streams, limit).collect()
}

// sliceStream is a schedule stream over pre-drawn class streams.
func sliceStream(streams [][]TraceEvent, limit int) *eventStream {
	s := &eventStream{left: limit}
	for _, evs := range streams {
		c := classHead{next: func() (TraceEvent, bool) {
			if len(evs) == 0 {
				return TraceEvent{}, false
			}
			ev := evs[0]
			evs = evs[1:]
			return ev, true
		}}
		c.ev, c.ok = c.next()
		s.classes = append(s.classes, c)
	}
	return s
}

// threeClasses is a schedule of three classes over 60 users, one of
// each arrival kind.
func threeClasses() OpenConfig {
	return OpenConfig{
		QPS: 3000, Duration: 200 * time.Millisecond, Month: 1, Seed: 5,
		Classes: []OpenClassConfig{
			{Name: "a", Lo: 0, Hi: 20, QPSShare: 0.5},
			{Name: "b", Lo: 20, Hi: 40, QPSShare: 0.3, Arrivals: modeltime.Diurnal, DiurnalPeak: 4},
			{Name: "c", Lo: 40, Hi: 60, QPSShare: 0.2, Arrivals: modeltime.PerUser},
		},
	}
}

// drawClasses draws each class of a multi-class cfg whole, its
// timestamps truncated to grain — coarse enough to force ties within
// and across classes.
func drawClasses(t *testing.T, g *workload.Generator, cfg OpenConfig, grain time.Duration) [][]TraceEvent {
	streams := make([][]TraceEvent, len(cfg.Classes))
	for ci, cc := range cfg.Classes {
		evs := refClassEvents(t, g, cfg, cc, modeltime.DeriveSeed(cfg.Seed, ci), 1<<20)
		for i := range evs {
			evs[i].At = evs[i].At.Truncate(grain)
		}
		streams[ci] = evs
	}
	return streams
}

// oneShot is cfg's schedule drawn the way OpenEvents drew it before it
// streamed: every class whole, merged by the sort, cut at MaxRequests.
func oneShot(t *testing.T, g *workload.Generator, cfg OpenConfig) []TraceEvent {
	maxReq := cfg.MaxRequests
	if maxReq <= 0 {
		maxReq = 10_000_000
	}
	classes := cfg.classes(len(g.Users()))
	streams := make([][]TraceEvent, len(classes))
	for ci, cc := range classes {
		seed := cfg.Seed
		if len(classes) > 1 {
			seed = modeltime.DeriveSeed(cfg.Seed, ci)
		}
		streams[ci] = refClassEvents(t, g, cfg, cc, seed, maxReq)
	}
	return bySort(streams, maxReq)
}

// TestMergeMatchesSort holds the k-way merge against the sort it
// replaced — by (At, class, within-class order) over all streams — on a
// three-class schedule whose timestamps are coarsened to force ties
// within and across classes, and holds OpenEvents to it.
func TestMergeMatchesSort(t *testing.T) {
	g := smallGen(t, 60)
	cfg := threeClasses()
	draw := func(grain time.Duration) [][]TraceEvent { return drawClasses(t, g, cfg, grain) }

	want := bySort(draw(1), 1<<20)
	got, err := OpenEvents(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) < 300 || !reflect.DeepEqual(got, want) {
		t.Fatalf("OpenEvents (%d events) is not the sorted union of its class schedules (%d)", len(got), len(want))
	}

	for _, limit := range []int{1 << 20, 100} {
		want := bySort(draw(5*time.Millisecond), limit)
		ties := 0
		for i := 1; i < len(want); i++ {
			if want[i].At == want[i-1].At && want[i].Class != want[i-1].Class {
				ties++
			}
		}
		if ties < 10 {
			t.Fatalf("only %d cross-class ties; the coarsening forces nothing", ties)
		}
		if got := mergeStreams(draw(5*time.Millisecond), limit); !reflect.DeepEqual(got, want) {
			t.Errorf("limit %d: merge diverges from the (At, class, seq) sort", limit)
		}
	}
	one := draw(5 * time.Millisecond)[:1]
	if got := mergeStreams(one, 1<<20); !reflect.DeepEqual(got, one[0]) {
		t.Error("the merge of one stream is not that stream")
	}
}

// TestChunkBoundaries holds the streamed schedule to the one drawn whole
// with a chunk boundary after every event, at an odd size and at the
// size runs use — both collected (OpenEvents) and as the producer hands
// it over, in chunks of exactly that size but the last — on the forced
// ties of TestMergeMatchesSort, a per-user class, a MaxRequests cut
// inside a chunk, a tape that wraps, and a schedule with no arrivals.
func TestChunkBoundaries(t *testing.T) {
	g := smallGen(t, 60)
	ties := threeClasses()
	cut := threeClasses()
	cut.QPS, cut.MaxRequests = 30000, 4099 // inside a chunk at 7 and at 4096
	perUser := OpenConfig{QPS: 3000, Duration: 300 * time.Millisecond, Month: 1, Seed: 3,
		Classes: []OpenClassConfig{{Name: "p", Hi: 60, QPSShare: 1, Arrivals: modeltime.PerUser}}}
	wrap := OpenConfig{QPS: 20000, Duration: 100 * time.Millisecond, Month: 1, Seed: 4,
		Classes: []OpenClassConfig{{Name: "w", Lo: 0, Hi: 2, QPSShare: 1, Arrivals: modeltime.Diurnal}}}
	empty := OpenConfig{QPS: 1e-6, Duration: time.Millisecond, Month: 1, Seed: 1}
	open := func(cfg OpenConfig) func() *eventStream {
		return func() *eventStream {
			s, err := openStream(g, cfg)
			if err != nil {
				t.Fatal(err)
			}
			return s
		}
	}
	tape := 0
	for _, e := range g.MonthLog(1).Entries {
		if e.User < 2 {
			tape++
		}
	}
	cases := []struct {
		name   string
		stream func() *eventStream
		want   []TraceEvent
	}{
		{"forced ties", func() *eventStream { return sliceStream(drawClasses(t, g, ties, 5*time.Millisecond), 1<<20) },
			bySort(drawClasses(t, g, ties, 5*time.Millisecond), 1<<20)},
		{"forced ties, cut", func() *eventStream { return sliceStream(drawClasses(t, g, ties, 5*time.Millisecond), 100) },
			bySort(drawClasses(t, g, ties, 5*time.Millisecond), 100)},
		{"three classes", open(ties), oneShot(t, g, ties)},
		{"per-user", open(perUser), oneShot(t, g, perUser)},
		{"cut", open(cut), oneShot(t, g, cut)},
		{"wrap", open(wrap), oneShot(t, g, wrap)},
		{"empty", open(empty), oneShot(t, g, empty)},
	}
	for _, c := range cases[:len(cases)-1] {
		if len(c.want) < 100 {
			t.Fatalf("%s: only %d events", c.name, len(c.want))
		}
	}
	if got := len(cases[5].want); got <= 2*tape {
		t.Fatalf("wrap: %d events over a %d-entry tape do not wrap it twice", got, tape)
	}
	if got := len(cases[4].want); got != cut.MaxRequests {
		t.Fatalf("cut: %d events, want MaxRequests %d", got, cut.MaxRequests)
	}
	defer func(size int) { scheduleChunk = size }(scheduleChunk)
	for _, size := range []int{1, 7, scheduleChunk} {
		scheduleChunk = size
		for _, c := range cases {
			if got := c.stream().collect(); !slices.Equal(got, c.want) {
				t.Errorf("chunk %d, %s: collected %d events differ from the %d drawn whole", size, c.name, len(got), len(c.want))
			}
			chunks, spent, stop := c.stream().produce()
			var got []TraceEvent
			for chunk := range chunks {
				if len(got)%size != 0 || len(chunk) == 0 || len(chunk) > size {
					t.Errorf("chunk %d, %s: a %d-event chunk after %d events", size, c.name, len(chunk), len(got))
				}
				got = append(got, chunk...)
				spent <- chunk
			}
			stop()
			if !slices.Equal(got, c.want) {
				t.Errorf("chunk %d, %s: produced %d events differ from the %d drawn whole", size, c.name, len(got), len(c.want))
			}
		}
	}
}

// TestNoProducerOutlivesItsRun: a run whose timeline resize fails
// mid-run returns the error with its schedule producer stopped, and a
// schedule that fails to open leaves no goroutine behind.
func TestNoProducerOutlivesItsRun(t *testing.T) {
	defer func(size int) { scheduleChunk = size }(scheduleChunk)
	scheduleChunk = 7
	g := smallGen(t, 16)
	f, col := newRingRig(t, g, smallContent(t, g), 4)
	f.Close() // every Submit sheds and every resize fails
	// Fewer is fine: a goroutine an earlier test left exiting may finish
	// during this one.
	settled := func(want int) bool {
		for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
			if runtime.NumGoroutine() <= want {
				return true
			}
		}
		return false
	}
	before := runtime.NumGoroutine()
	cfg := OpenConfig{QPS: 20000, Duration: 200 * time.Millisecond, Month: 1, Seed: 1,
		Events: []TimelineEvent{{At: 20 * time.Millisecond, ResizeTo: 6}}}
	_, err := RunOpen(f, col, g, cfg)
	if err == nil || !strings.Contains(err.Error(), "timeline resize") {
		t.Fatalf("RunOpen returned %v, want the timeline resize's error", err)
	}
	// About 400 of the schedule's ~4,000 arrivals come before the resize.
	if cnt := col.snapshot(); cnt.row().Shed == 0 || cnt.row().Shed > 2000 {
		t.Fatalf("%d requests went out before the resize; it should fail a tenth of the way in", cnt.row().Shed)
	}
	if !settled(before) {
		t.Errorf("%d goroutines after the failed run, %d before", runtime.NumGoroutine(), before)
	}
	for _, bad := range []OpenConfig{
		{QPS: -1, Duration: time.Second, Month: 1},
		{QPS: 1000, Duration: time.Second, Month: 1, Classes: []OpenClassConfig{{Name: "none", Lo: 16, Hi: 20, QPSShare: 1}}},
	} {
		if _, err := OpenEvents(g, bad); err == nil {
			t.Fatalf("OpenEvents(%+v) succeeded", bad)
		}
		if _, err := RunOpen(f, col, g, bad); err == nil {
			t.Fatalf("RunOpen(%+v) succeeded", bad)
		}
		if !settled(before) {
			t.Errorf("%d goroutines after a schedule that failed to open, %d before", runtime.NumGoroutine(), before)
		}
	}
}
