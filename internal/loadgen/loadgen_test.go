package loadgen

import (
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"testing"
	"time"

	"pocketcloudlets/internal/autoscale"
	"pocketcloudlets/internal/cachegen"
	"pocketcloudlets/internal/engine"
	"pocketcloudlets/internal/fleet"
	"pocketcloudlets/internal/modeltime"
	"pocketcloudlets/internal/placement"
	"pocketcloudlets/internal/replay"
	"pocketcloudlets/internal/searchlog"
	"pocketcloudlets/internal/workload"
)

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

// newRig builds a fleet with a collector installed as its observer.
func newRig(t testing.TB, g *workload.Generator, content cachegen.Content) (*fleet.Fleet, *Collector) {
	t.Helper()
	col := NewCollector()
	f, err := fleet.New(fleet.Config{
		Engine:     engine.New(g.Config().Universe),
		Content:    content,
		Shards:     4,
		Workers:    2,
		QueueDepth: 4096,
		Observer:   col,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	return f, col
}

func TestRunValidation(t *testing.T) {
	g := smallGen(t, 16)
	f, col := newRig(t, g, smallContent(t, g))
	if _, err := RunOpen(nil, col, g, OpenConfig{QPS: 1, Duration: time.Second}); err == nil {
		t.Error("nil fleet should fail")
	}
	if _, err := RunOpen(f, col, g, OpenConfig{QPS: 0, Duration: time.Second}); err == nil {
		t.Error("zero QPS should fail")
	}
	if _, err := RunOpen(f, col, g, OpenConfig{QPS: 10, Duration: 0}); err == nil {
		t.Error("zero duration should fail")
	}
	if _, err := RunClosed(f, col, g, ClosedConfig{Users: 0}); err == nil {
		t.Error("zero users should fail")
	}
	if _, err := RunClosed(f, col, g, ClosedConfig{Users: 100}); err == nil {
		t.Error("more users than population should fail")
	}
}

// TestClosedLoopDeterministic runs the same closed-loop experiment on
// two fresh fleets and expects every seed-deterministic field of the
// report to agree bit-for-bit, concurrency notwithstanding.
func TestClosedLoopDeterministic(t *testing.T) {
	g := smallGen(t, 160)
	content := smallContent(t, g)
	cfg := ClosedConfig{Users: 160, Month: 1, Seed: 9}

	run := func() Report {
		f, col := newRig(t, g, content)
		r, err := RunClosed(f, col, g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	r1, r2 := run(), run()

	if r1.Shed != 0 || r2.Shed != 0 {
		t.Fatalf("closed loop shed requests (%d, %d); determinism undefined", r1.Shed, r2.Shed)
	}
	if r1.Requests != r2.Requests || r1.Served != r2.Served ||
		r1.PersonalHits != r2.PersonalHits || r1.CommunityHits != r2.CommunityHits ||
		r1.CloudMisses != r2.CloudMisses {
		t.Errorf("counters differ:\n  %+v\n  %+v", r1, r2)
	}
	if r1.HitRate != r2.HitRate || r1.MeanUserHitRate != r2.MeanUserHitRate {
		t.Errorf("hit rates differ: %v/%v vs %v/%v",
			r1.HitRate, r1.MeanUserHitRate, r2.HitRate, r2.MeanUserHitRate)
	}
	for class, hr := range r1.ClassHitRate {
		if r2.ClassHitRate[class] != hr {
			t.Errorf("class %s hit rate differs: %v vs %v", class, hr, r2.ClassHitRate[class])
		}
	}
	// The modeled-latency histogram is order-independent, so its whole
	// summary is reproducible even though workers interleave freely.
	if r1.Model != r2.Model {
		t.Errorf("model latency summaries differ:\n  %+v\n  %+v", r1.Model, r2.Model)
	}
	if r1.PersonalBytes != r2.PersonalBytes || r1.ResidentUsers != r2.ResidentUsers {
		t.Errorf("residency differs: %d/%d vs %d/%d",
			r1.PersonalBytes, r1.ResidentUsers, r2.PersonalBytes, r2.ResidentUsers)
	}
}

// TestClosedLoopMatchesReplay checks the paper-shape acceptance: the
// fleet's closed-loop mean per-user hit rate lands on the replay
// harness's Full-mode number (~65%, Figure 17) for the same users, and
// so does each workload class's mean.
func TestClosedLoopMatchesReplay(t *testing.T) {
	g := smallGen(t, 160)
	content := smallContent(t, g)

	f, col := newRig(t, g, content)
	r, err := RunClosed(f, col, g, ClosedConfig{Users: 160, Month: 1})
	if err != nil {
		t.Fatal(err)
	}

	res, err := replay.Run(replay.Config{Gen: g, Content: content, Mode: replay.Full, Month: 1})
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	var n int
	classSum := make(map[string]float64)
	classN := make(map[string]int)
	for _, uo := range res.Users {
		if uo.Volume > 0 {
			sum += uo.HitRate()
			n++
			classSum[uo.Profile.Class.String()] += uo.HitRate()
			classN[uo.Profile.Class.String()]++
		}
	}
	want := sum / float64(n)

	if diff := math.Abs(r.MeanUserHitRate - want); diff > 1e-9 {
		t.Errorf("closed-loop mean user hit rate %.6f, replay %.6f (diff %g)",
			r.MeanUserHitRate, want, diff)
	}
	if r.MeanUserHitRate < 0.45 || r.MeanUserHitRate > 0.9 {
		t.Errorf("mean user hit rate %.3f outside the paper's plausible band", r.MeanUserHitRate)
	}
	if r.CommunityHits == 0 || r.PersonalHits == 0 || r.CloudMisses == 0 {
		t.Errorf("expected all three tiers exercised: %+v", r)
	}
	if len(r.ClassHitRate) != len(classN) {
		t.Errorf("class hit rates cover %d classes, want the %d present: %v", len(r.ClassHitRate), len(classN), r.ClassHitRate)
	}
	for c, s := range classSum {
		got, ok := r.ClassHitRate[c]
		if want := s / float64(classN[c]); !ok || math.Abs(got-want) > 1e-9 {
			t.Errorf("class %s mean user hit rate %.6f (reported %v), replay %.6f", c, got, ok, want)
		}
	}
}

// TestOpenLoopSchedule checks the open-loop arrival count is a pure
// function of (seed, QPS, duration) and the report is consistent.
func TestOpenLoopSchedule(t *testing.T) {
	g := smallGen(t, 64)
	content := smallContent(t, g)
	cfg := OpenConfig{QPS: 5000, Duration: 200 * time.Millisecond, Month: 1, Seed: 11}

	run := func() Report {
		f, col := newRig(t, g, content)
		r, err := RunOpen(f, col, g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	r1, r2 := run(), run()
	if r1.Requests != r2.Requests {
		t.Errorf("arrival counts differ across runs: %d vs %d", r1.Requests, r2.Requests)
	}
	if r1.Requests == 0 {
		t.Fatal("no arrivals scheduled")
	}
	// Errors are counted within Served (the request completed, badly).
	if r1.Served+r1.Shed != r1.Requests {
		t.Errorf("served %d + shed %d != requests %d", r1.Served, r1.Shed, r1.Requests)
	}
	if r1.Mode != "open" || r1.OfferedQPS != cfg.QPS || r1.ServedQPS <= 0 {
		t.Errorf("report inconsistent: %+v", r1)
	}
	if r1.Wall.Count != r1.Served || r1.Model.Count != r1.Served {
		t.Errorf("histogram counts %d/%d, want %d", r1.Wall.Count, r1.Model.Count, r1.Served)
	}
	// A different seed draws a different Poisson schedule.
	cfg.Seed = 12
	f, col := newRig(t, g, content)
	r3, err := RunOpen(f, col, g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r3.Requests == r1.Requests {
		t.Logf("note: different seeds drew equal arrival counts (%d); merely unlikely", r1.Requests)
	}
}

func TestReportJSON(t *testing.T) {
	g := smallGen(t, 32)
	f, col := newRig(t, g, smallContent(t, g))
	r, err := RunClosed(f, col, g, ClosedConfig{Users: 20, Month: 1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := r.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"mode", "seed", "requests", "hit_rate",
		"mean_user_hit_rate", "shed_rate", "wall_latency", "model_latency"} {
		if _, ok := m[key]; !ok {
			t.Errorf("JSON report missing %q", key)
		}
	}
	if r.String() == "" {
		t.Error("human-readable summary is empty")
	}
}

func TestCollectorObserve(t *testing.T) {
	col := NewCollector()
	col.Observe(fleet.Response{Shed: true})
	col.Observe(fleet.Response{Err: errors.New("boom")})
	col.Observe(fleet.Response{Source: fleet.SourceCommunity, Wall: time.Millisecond, EnergyJ: 0.5})
	col.Observe(fleet.Response{Source: fleet.SourceCloud, Wall: time.Millisecond, EnergyJ: 2, RadioJ: 1.5})
	col.Observe(fleet.Response{Source: fleet.SourceCloud, Wall: time.Millisecond, EnergyJ: 1, RadioJ: 0.5, BatchSize: 4})
	s := col.snapshot()
	if s.shed != 1 || s.errors != 1 || s.wall.Count() != 3 || s.bySource[fleet.SourceCommunity] != 1 {
		t.Errorf("collector state wrong: %+v", s)
	}
	if s.energyJ != 3.5 || s.radioJ != 2 || s.missRadioJ != 2 {
		t.Errorf("energy sums wrong: energy=%g radio=%g missRadio=%g", s.energyJ, s.radioJ, s.missRadioJ)
	}
	col.Reset()
	s = col.snapshot()
	if s.shed != 0 || s.errors != 0 || s.wall.Count() != 0 || s.energyJ != 0 {
		t.Error("Reset did not clear the collector")
	}
}

// TestRunRequiresObserver is the regression for silently unmeasured
// runs: a fleet with no Observer wired would previously report empty
// histograms as if nothing happened; now the runners refuse it.
func TestRunRequiresObserver(t *testing.T) {
	g := smallGen(t, 16)
	content := smallContent(t, g)
	col := NewCollector()
	f, err := fleet.New(fleet.Config{
		Engine:  engine.New(g.Config().Universe),
		Content: content,
		Shards:  2,
		Workers: 2,
		// Observer deliberately left nil.
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	if _, err := RunOpen(f, col, g, OpenConfig{QPS: 10, Duration: 10 * time.Millisecond}); err == nil {
		t.Error("RunOpen against an observer-less fleet should fail")
	}
	if _, err := RunClosed(f, col, g, ClosedConfig{Users: 4}); err == nil {
		t.Error("RunClosed against an observer-less fleet should fail")
	}
}

// TestBatchedReport runs a closed loop over a coalescing fleet and
// checks the report's energy and batching fields are populated,
// consistent, and serialized.
func TestBatchedReport(t *testing.T) {
	g := smallGen(t, 64)
	content := smallContent(t, g)
	col := NewCollector()
	f, err := fleet.New(fleet.Config{
		Engine:     engine.New(g.Config().Universe),
		Content:    content,
		Shards:     2,
		Workers:    2,
		QueueDepth: 4096,
		Batch:      fleet.BatchOptions{Enabled: true, Linger: time.Millisecond},
		Observer:   col,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)

	r, err := RunClosed(f, col, g, ClosedConfig{Users: 40, Month: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if r.CloudMisses == 0 {
		t.Fatal("no cloud misses; nothing to batch")
	}
	if r.EnergyJ <= 0 || r.EnergyPerQueryJ <= 0 || r.RadioEnergyJ <= 0 || r.RadioEnergyPerMissJ <= 0 {
		t.Errorf("energy fields unpopulated: %+v", r)
	}
	if r.EnergyJ < r.RadioEnergyJ {
		t.Errorf("total energy %.3f J below radio-only %.3f J", r.EnergyJ, r.RadioEnergyJ)
	}
	if r.Batches <= 0 || r.BatchedMisses != int64(r.CloudMisses) {
		t.Errorf("batching fields inconsistent with %d misses: batches=%d batched=%d",
			r.CloudMisses, r.Batches, r.BatchedMisses)
	}
	if r.MeanBatchSize < 1 {
		t.Errorf("mean batch size %.2f < 1", r.MeanBatchSize)
	}
	if r.RadioWakeups != uint64(r.Batches) {
		t.Errorf("radio wakeups %d, want one per batch (%d); dispatcher sessions start cold",
			r.RadioWakeups, r.Batches)
	}
	var sized int64
	for _, n := range r.BatchSizes {
		sized += n
	}
	if sized != r.Batches {
		t.Errorf("batch size histogram sums to %d, want %d", sized, r.Batches)
	}

	raw, err := r.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"energy_j", "energy_per_query_j", "radio_energy_j",
		"radio_energy_per_miss_j", "radio_wakeups", "batches", "batched_misses",
		"mean_batch_size", "batch_sizes"} {
		if _, ok := m[key]; !ok {
			t.Errorf("JSON report missing %q", key)
		}
	}
	if r.String() == "" {
		t.Error("human-readable summary is empty")
	}
}

func TestTape(t *testing.T) {
	g := smallGen(t, 16)
	up := g.Users()[3]
	tape := Tape(g, up, 1)
	stream := g.UserStream(up, 1)
	if len(tape) != len(stream) {
		t.Fatalf("tape length %d, want %d", len(tape), len(stream))
	}
	for i, req := range tape {
		if req.User != up.ID || req.Query == "" || req.Click == "" {
			t.Fatalf("tape entry %d malformed: %+v", i, req)
		}
	}
}

// TestReportShardOccupancyAndResize drives a ring-routed fleet through
// a live resize at a mid-month offset and checks the report's occupancy
// and migration accounting adds up.
func TestReportShardOccupancyAndResize(t *testing.T) {
	g := smallGen(t, 64)
	ring, err := placement.NewRing(4, 0)
	if err != nil {
		t.Fatal(err)
	}
	col := NewCollector()
	f, err := fleet.New(fleet.Config{
		Engine:     engine.New(g.Config().Universe),
		Content:    smallContent(t, g),
		Shards:     4,
		Workers:    2,
		QueueDepth: 4096,
		Observer:   col,
		Placement:  ring,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)

	r, err := RunClosed(f, col, g, ClosedConfig{
		Users: 48, Month: 1,
		Events: []TimelineEvent{{At: 15 * 24 * time.Hour, ResizeTo: 6}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Placement != "ring" {
		t.Errorf("placement = %q, want ring", r.Placement)
	}
	if len(r.ShardOccupancy) != 6 {
		t.Fatalf("occupancy has %d shards, want 6 after resize", len(r.ShardOccupancy))
	}
	var served uint64
	for _, so := range r.ShardOccupancy {
		served += uint64(so.Served)
	}
	if served != r.Served {
		t.Errorf("occupancy sums to %d served, report says %d", served, r.Served)
	}
	if r.ShardSkew < 1 {
		t.Errorf("shard skew %v < 1 is impossible", r.ShardSkew)
	}
	if r.Resizes != 1 || r.MigratedUsers == 0 || r.MigratedBytes == 0 {
		t.Errorf("migration counters missing: %+v", r)
	}
	if r.DroppedUsers != 0 {
		t.Errorf("migrating resize dropped %d users", r.DroppedUsers)
	}

	data, err := r.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"placement", "shard_occupancy", "shard_skew", "resizes", "migrated_users"} {
		if _, ok := decoded[key]; !ok {
			t.Errorf("JSON report missing %q", key)
		}
	}
}

// TestScheduleResizeAlwaysRuns: a resize scheduled past every user's
// last request is still executed before the report, so counters are
// never silently zero.
func TestScheduleResizeAlwaysRuns(t *testing.T) {
	g := smallGen(t, 16)
	f, col := newRig(t, g, smallContent(t, g))
	r, err := RunClosed(f, col, g, ClosedConfig{
		Users: 8, Month: 1,
		Classes: []ClosedClassConfig{{Hi: 8, MaxQueriesPerUser: 2}},
		Events:  []TimelineEvent{{At: 24 * 30 * 24 * time.Hour, ResizeTo: 6}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Resizes != 1 || f.NumShards() != 6 {
		t.Errorf("deferred resize did not run: resizes %d, shards %d", r.Resizes, f.NumShards())
	}
}

// TestPacedClosedLoopByteIdentical is the think-time acceptance: pacing
// is wall-clock only, so a paced run's per-user outcomes — and every
// deterministic counter — are byte-identical to the unpaced run on the
// same tape.
func TestPacedClosedLoopByteIdentical(t *testing.T) {
	g := smallGen(t, 120)
	content := smallContent(t, g)

	run := func(pace modeltime.Pacer) (Report, []fleet.UserServeCount) {
		f, col := newRig(t, g, content)
		r, err := RunClosed(f, col, g, ClosedConfig{Users: 120, Month: 1, Seed: 4,
			Classes: []ClosedClassConfig{{Hi: 120, Pace: pace}}})
		if err != nil {
			t.Fatal(err)
		}
		return r, f.UserServeCounts()
	}
	unpaced, unpacedUsers := run(modeltime.Pacer{})
	paced, pacedUsers := run(modeltime.Pacer{Scale: 1e-4, MaxPause: time.Millisecond})

	if unpaced.Shed != 0 || paced.Shed != 0 {
		t.Fatalf("closed loop shed requests (%d, %d); identity undefined", unpaced.Shed, paced.Shed)
	}
	if unpaced.Paced || !paced.Paced || paced.PaceScale != 1e-4 {
		t.Errorf("pacing not reported: unpaced=%v paced=%v scale=%v", unpaced.Paced, paced.Paced, paced.PaceScale)
	}
	if unpaced.Requests != paced.Requests || unpaced.Served != paced.Served ||
		unpaced.PersonalHits != paced.PersonalHits || unpaced.CommunityHits != paced.CommunityHits ||
		unpaced.CloudMisses != paced.CloudMisses {
		t.Errorf("counters diverge under pacing:\n  unpaced %+v\n  paced   %+v", unpaced, paced)
	}
	if unpaced.Model != paced.Model {
		t.Errorf("model latency summaries diverge:\n  %+v\n  %+v", unpaced.Model, paced.Model)
	}
	if unpaced.ModelMakespanNS != paced.ModelMakespanNS {
		t.Errorf("model makespan diverges: %d vs %d", unpaced.ModelMakespanNS, paced.ModelMakespanNS)
	}
	if !reflect.DeepEqual(unpacedUsers, pacedUsers) {
		t.Error("per-user outcomes diverge under pacing; pacing must be wall-only")
	}
}

// TestDiurnalOpenLoopMatchesFlatArrivals is the diurnal acceptance: at
// the same mean QPS a diurnal run offers exactly the flat run's total
// arrivals, while the measured served-QPS curve concentrates at the
// mid-run peak.
func TestDiurnalOpenLoopMatchesFlatArrivals(t *testing.T) {
	g := smallGen(t, 64)
	content := smallContent(t, g)
	base := OpenConfig{QPS: 2000, Duration: 500 * time.Millisecond, Month: 1, Seed: 11}

	run := func(cfg OpenConfig) Report {
		f, col := newRig(t, g, content)
		r, err := RunOpen(f, col, g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	flat := run(base)
	diCfg := base
	diCfg.Classes = []OpenClassConfig{{Hi: 64, QPSShare: 1, Arrivals: modeltime.Diurnal, DiurnalPeak: 4}}
	di := run(diCfg)

	if di.Requests != flat.Requests {
		t.Errorf("diurnal offered %d arrivals, flat %d; same mean QPS must offer the same total", di.Requests, flat.Requests)
	}
	if di.Arrivals != "diurnal" || di.DiurnalPeak != 4 || flat.Arrivals != "poisson" {
		t.Errorf("arrival process not reported: %q/%g and %q", di.Arrivals, di.DiurnalPeak, flat.Arrivals)
	}
	var offeredSum uint64
	for _, b := range di.OfferedCurve {
		offeredSum += b.Offered
	}
	if offeredSum != di.Requests {
		t.Errorf("offered curve sums to %d, want %d", offeredSum, di.Requests)
	}
	if di.PeakTroughServedRatio < 2 {
		t.Errorf("diurnal peak/trough served ratio = %.2f, want ≥ 2 with a 4:1 curve", di.PeakTroughServedRatio)
	}
	if flat.PeakTroughServedRatio >= di.PeakTroughServedRatio {
		t.Errorf("flat ratio %.2f not below diurnal ratio %.2f; the curve is not concentrating load",
			flat.PeakTroughServedRatio, di.PeakTroughServedRatio)
	}
	if di.ModelMakespanNS <= 0 {
		t.Error("open-loop report has no model makespan")
	}
}

// TestPerUserOpenLoop exercises the per-user renewal arrivals: the
// schedule is deterministic and each arrival replays the arriving
// user's own stream.
func TestPerUserOpenLoop(t *testing.T) {
	g := smallGen(t, 64)
	content := smallContent(t, g)
	cfg := OpenConfig{QPS: 1500, Duration: 300 * time.Millisecond, Month: 1, Seed: 3,
		Classes: []OpenClassConfig{{Hi: 64, QPSShare: 1, Arrivals: modeltime.PerUser}}}

	run := func() Report {
		f, col := newRig(t, g, content)
		r, err := RunOpen(f, col, g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	r1, r2 := run(), run()
	if r1.Requests == 0 {
		t.Fatal("no per-user arrivals scheduled")
	}
	if r1.Shed != 0 || r2.Shed != 0 {
		t.Fatalf("per-user open loop shed requests (%d, %d)", r1.Shed, r2.Shed)
	}
	if r1.Requests != r2.Requests || r1.Model != r2.Model {
		t.Errorf("per-user runs not deterministic:\n  %+v\n  %+v", r1.Model, r2.Model)
	}
	if r1.Arrivals != "peruser" {
		t.Errorf("arrivals reported as %q, want peruser", r1.Arrivals)
	}
}

// newRingRig builds a ring-routed fleet (resizable) with a collector
// installed, for the autoscale and timeline tests.
func newRingRig(t testing.TB, g *workload.Generator, content cachegen.Content, shards int) (*fleet.Fleet, *Collector) {
	t.Helper()
	ring, err := placement.NewRing(shards, 0)
	if err != nil {
		t.Fatal(err)
	}
	col := NewCollector()
	f, err := fleet.New(fleet.Config{
		Engine:     engine.New(g.Config().Universe),
		Content:    content,
		Shards:     shards,
		Workers:    2,
		QueueDepth: 4096,
		Observer:   col,
		Placement:  ring,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	return f, col
}

func energyNear(a, b float64) bool {
	scale := math.Max(math.Max(math.Abs(a), math.Abs(b)), 1)
	return math.Abs(a-b) <= 1e-6*scale
}

// TestAutoscaledOpenLoopDeterministic is the controller's determinism
// acceptance: two identical autoscaled diurnal runs make the same
// resize decisions at the same model offsets and book the same energy,
// because each occupancy sample is taken after a drain and so is a
// pure function of the tape prefix.
func TestAutoscaledOpenLoopDeterministic(t *testing.T) {
	g := smallGen(t, 64)
	content := smallContent(t, g)
	cfg := OpenConfig{
		QPS: 2000, Duration: 500 * time.Millisecond, Month: 1, Seed: 11,
		Classes: []OpenClassConfig{{Hi: 64, QPSShare: 1, Arrivals: modeltime.Diurnal, DiurnalPeak: 6}},
		Autoscale: &autoscale.Config{
			Interval: 50 * time.Millisecond, Min: 2, Max: 12, RatePerShard: 600,
		},
	}

	run := func() Report {
		f, col := newRingRig(t, g, content, 4)
		r, err := RunOpen(f, col, g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	r1, r2 := run(), run()

	if r1.Autoscale == nil || r1.Autoscale.Samples == 0 {
		t.Fatalf("autoscaled run reported no controller block: %+v", r1.Autoscale)
	}
	if len(r1.Autoscale.Actions) == 0 {
		t.Fatalf("6:1 diurnal curve drove no resizes; config exercises nothing: %+v", r1.Autoscale)
	}
	if !reflect.DeepEqual(r1.Autoscale, r2.Autoscale) {
		t.Errorf("controller runs diverge:\n  %+v\n  %+v", r1.Autoscale, r2.Autoscale)
	}
	if r1.Energy == nil || r2.Energy == nil {
		t.Fatal("autoscaled run has no energy block")
	}
	if *r1.Energy != *r2.Energy {
		t.Errorf("energy ledgers diverge:\n  %+v\n  %+v", *r1.Energy, *r2.Energy)
	}

	// The controller owns the topology: the fleet's resize counter books
	// exactly the controller's actions, and the report's final size is
	// the last action's target.
	if r1.Resizes != int64(len(r1.Autoscale.Actions)) {
		t.Errorf("fleet booked %d resizes, controller fired %d actions", r1.Resizes, len(r1.Autoscale.Actions))
	}
	last := r1.Autoscale.Actions[len(r1.Autoscale.Actions)-1]
	if r1.Autoscale.FinalShards != last.To {
		t.Errorf("final shards %d, last action targeted %d", r1.Autoscale.FinalShards, last.To)
	}

	// Occupancy cross-foot survives the retirements the down-scales
	// caused: live shards plus the retired sentinel book every serve.
	var live uint64
	for _, so := range r1.ShardOccupancy {
		live += uint64(so.Served)
	}
	if live+uint64(r1.RetiredServed) != r1.Served {
		t.Errorf("live %d + retired %d != served %d", live, r1.RetiredServed, r1.Served)
	}

	// Ledger cross-foots (the same sums cmd/loadtest -check enforces).
	e := r1.Energy
	if !energyNear(e.DeviceBaseJ+e.RadioJ, e.DeviceJ) ||
		!energyNear(e.ShardIdleJ+e.ShardActiveJ, e.ShardJ) ||
		!energyNear(e.DeviceJ+e.ShardJ, e.FleetJ) {
		t.Errorf("energy report does not cross-foot: %+v", e)
	}
	answered := float64(r1.Served - r1.Unavailable)
	if answered > 0 && !energyNear(e.PerAnsweredJ*answered, e.FleetJ) {
		t.Errorf("per-answered %g J × %g answered != fleet %g J", e.PerAnsweredJ, answered, e.FleetJ)
	}
}

// TestAutoscaleOffReportShape: without a controller the report carries
// no autoscale block, while the energy ledger is always present.
func TestAutoscaleOffReportShape(t *testing.T) {
	g := smallGen(t, 32)
	f, col := newRig(t, g, smallContent(t, g))
	r, err := RunOpen(f, col, g, OpenConfig{QPS: 500, Duration: 100 * time.Millisecond, Month: 1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if r.Autoscale != nil {
		t.Errorf("autoscale off, report has a controller block: %+v", r.Autoscale)
	}
	if r.Energy == nil || r.Energy.FleetJ <= 0 || r.Energy.ShardIdleJ <= 0 {
		t.Errorf("energy ledger missing or empty: %+v", r.Energy)
	}
	raw, err := r.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	if _, ok := m["autoscale"]; ok {
		t.Error(`JSON report carries "autoscale" with the controller off`)
	}
	if _, ok := m["energy"]; !ok {
		t.Error(`JSON report missing "energy"`)
	}
}

// TestShortHorizonCurveIsFinite: an open run whose horizon gives each
// curve bucket less than a nanosecond still reports finite rates, so
// its JSON report encodes.
func TestShortHorizonCurveIsFinite(t *testing.T) {
	g := smallGen(t, 32)
	f, col := newRig(t, g, smallContent(t, g))
	r, err := RunOpen(f, col, g, OpenConfig{QPS: 1000, Duration: 10 * time.Nanosecond, Month: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.JSON(); err != nil {
		t.Fatalf("10 ns open run: %v", err)
	}
	offered, shed := make([]uint64, curveBuckets), make([]uint64, curveBuckets)
	offered[3], offered[7], shed[7] = 2, 3, 1
	curve, ratio := offeredCurve(10*time.Nanosecond, offered, shed)
	for _, b := range curve {
		for _, v := range []float64{b.OfferedQPS, b.ServedQPS} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("bucket %+v: rate %v", b, v)
			}
		}
	}
	if math.Abs(curve[3].ServedQPS-4e9) > 1 || ratio != 1 {
		t.Errorf("2 arrivals in a 0.5 ns bucket served at %v/s (ratio %v), want 4e9/s (ratio 1)", curve[3].ServedQPS, ratio)
	}
}

// TestTimelineResizeEvents: scheduled events fire at model offsets of
// the arrival tape — including events past the last arrival — so the
// resulting topology and per-shard occupancy are deterministic.
func TestTimelineResizeEvents(t *testing.T) {
	g := smallGen(t, 64)
	content := smallContent(t, g)
	cfg := OpenConfig{
		QPS: 1000, Duration: 200 * time.Millisecond, Month: 1, Seed: 3,
		Events: []TimelineEvent{
			{At: 50 * time.Millisecond, ResizeTo: 6},
			{At: time.Hour, ResizeTo: 3},
		},
	}

	run := func() (Report, int) {
		f, col := newRingRig(t, g, content, 4)
		r, err := RunOpen(f, col, g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return r, f.NumShards()
	}
	r1, shards1 := run()
	r2, _ := run()

	if r1.Resizes != 2 {
		t.Errorf("resizes = %d, want 2 (one mid-tape, one after the last arrival)", r1.Resizes)
	}
	if shards1 != 3 {
		t.Errorf("final shards = %d, want 3 from the trailing event", shards1)
	}
	if len(r1.ShardOccupancy) != 3 {
		t.Errorf("occupancy rows = %d, want 3", len(r1.ShardOccupancy))
	}
	var live uint64
	for _, so := range r1.ShardOccupancy {
		live += uint64(so.Served)
	}
	if live+uint64(r1.RetiredServed) != r1.Served {
		t.Errorf("live %d + retired %d != served %d", live, r1.RetiredServed, r1.Served)
	}
	if !reflect.DeepEqual(r1.ShardOccupancy, r2.ShardOccupancy) ||
		r1.RetiredServed != r2.RetiredServed {
		t.Errorf("event timeline not deterministic:\n  %+v retired %d\n  %+v retired %d",
			r1.ShardOccupancy, r1.RetiredServed, r2.ShardOccupancy, r2.RetiredServed)
	}
}
