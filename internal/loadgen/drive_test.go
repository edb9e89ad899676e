package loadgen

import (
	"errors"
	"fmt"
	"reflect"
	"sort"
	"testing"
	"time"

	"pocketcloudlets/internal/autoscale"
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

// TestFailedRunDisarmsWallResize: a run whose drive fails must not
// leave the wall-timer resize armed behind it — the caller believes the
// fleet idle from the moment the run returns.
func TestFailedRunDisarmsWallResize(t *testing.T) {
	g := smallGen(t, 16)
	f, col := newRingRig(t, g, smallContent(t, g), 4)
	boom := errors.New("boom")
	var r Report
	err := measure(&r, f, col, WallResize{To: 6, At: 20 * time.Millisecond}, func() error { return boom })
	if !errors.Is(err, boom) {
		t.Fatalf("measure returned %v, want the drive's error", err)
	}
	time.Sleep(100 * time.Millisecond)
	if n, resizes := f.NumShards(), f.MigrationStats().Resizes; n != 4 || resizes != 0 {
		t.Errorf("a failed run's wall resize fired after it returned: %d shards, %d resizes", n, resizes)
	}
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
	schedule, err := classSchedule(g, cfg, cc, seed, maxReq)
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

// TestMergeMatchesSort holds the k-way merge against the sort it
// replaced — by (At, class, within-class order) over all streams — on a
// three-class schedule whose timestamps are coarsened to force ties
// within and across classes, and holds OpenEvents to it.
func TestMergeMatchesSort(t *testing.T) {
	g := smallGen(t, 60)
	cfg := OpenConfig{
		QPS: 3000, Duration: 200 * time.Millisecond, Month: 1, Seed: 5,
		Classes: []OpenClassConfig{
			{Name: "a", Lo: 0, Hi: 20, QPSShare: 0.5},
			{Name: "b", Lo: 20, Hi: 40, QPSShare: 0.3, Arrivals: modeltime.Diurnal, DiurnalPeak: 4},
			{Name: "c", Lo: 40, Hi: 60, QPSShare: 0.2, Arrivals: modeltime.PerUser},
		},
	}
	bySort := func(streams [][]TraceEvent, limit int) []TraceEvent {
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
	draw := func(grain time.Duration) [][]TraceEvent {
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
		if got := mergeByArrival(draw(5*time.Millisecond), limit); !reflect.DeepEqual(got, want) {
			t.Errorf("limit %d: merge diverges from the (At, class, seq) sort", limit)
		}
	}
	one := draw(5 * time.Millisecond)[:1]
	if got := mergeByArrival(one, 1<<20); &got[0] != &one[0][0] || len(got) != len(one[0]) {
		t.Error("the merge of one stream is not that stream")
	}
}
