package scenario

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"pocketcloudlets/internal/backend"
	"pocketcloudlets/internal/cachegen"
	"pocketcloudlets/internal/engine"
	"pocketcloudlets/internal/fleet"
	"pocketcloudlets/internal/loadgen"
	"pocketcloudlets/internal/searchlog"
	"pocketcloudlets/internal/workload"
)

// smallGen builds a scaled-down ecosystem; the corpus mirrors the
// loadgen test fixture so runs stay fast under -race.
func smallGen(t testing.TB, users int, seed int64) *workload.Generator {
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
	cfg := workload.DefaultConfig(u, users, seed)
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

// rig builds a fresh fleet from the compiled scenario's own fleet
// config, with a collector installed.
func rig(t testing.TB, comp *Compiled, g *workload.Generator, content cachegen.Content) (*fleet.Fleet, *loadgen.Collector) {
	t.Helper()
	col := loadgen.NewCollector()
	cfg, err := comp.FleetConfig(col)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Engine = engine.New(g.Config().Universe)
	cfg.Content = content
	f, err := fleet.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	return f, col
}

func TestPresetsParseAndCompile(t *testing.T) {
	names := PresetNames()
	want := []string{"clone-storm", "commuter", "flash-crowd", "green-day", "mixed-fleet", "regional-outage"}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("preset names = %v, want %v", names, want)
	}
	for _, name := range names {
		spec, source, err := Load(name)
		if err != nil {
			t.Fatalf("Load(%s): %v", name, err)
		}
		if source != name || spec.Name != name {
			t.Errorf("Load(%s): source %q, spec name %q", name, source, spec.Name)
		}
		comp, err := Compile(spec, source)
		if err != nil {
			t.Fatalf("Compile(%s): %v", name, err)
		}
		// Every user must belong to exactly one class range.
		covered := 0
		for _, r := range comp.Ranges {
			covered += r.Hi - r.Lo
		}
		if len(comp.Ranges) > 0 && covered != spec.Users {
			t.Errorf("%s: ranges cover %d of %d users", name, covered, spec.Users)
		}
	}
}

// TestExampleFilesMatchPresets pins the example files under
// examples/scenarios/ to the built-in preset text, so docs and code
// cannot drift apart.
func TestExampleFilesMatchPresets(t *testing.T) {
	for _, name := range PresetNames() {
		raw, _ := Preset(name)
		path := filepath.Join("..", "..", "examples", "scenarios", name+".json")
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if string(data) != raw {
			t.Errorf("%s differs from the built-in preset; regenerate it from scenario.Preset(%q)", path, name)
		}
	}
}

// TestValidationGoldens pins the validator's positional error text.
func TestValidationGoldens(t *testing.T) {
	matches, err := filepath.Glob(filepath.Join("testdata", "*.json"))
	if err != nil || len(matches) == 0 {
		t.Fatalf("no testdata specs: %v", err)
	}
	for _, path := range matches {
		name := strings.TrimSuffix(filepath.Base(path), ".json")
		t.Run(name, func(t *testing.T) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			_, perr := Parse(data)
			if perr == nil {
				t.Fatalf("Parse(%s) unexpectedly succeeded", path)
			}
			golden, err := os.ReadFile(filepath.Join("testdata", name+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			want := strings.TrimRight(string(golden), "\n")
			if got := perr.Error(); got != want {
				t.Errorf("error text drifted\n got: %s\nwant: %s", got, want)
			}
		})
	}
}

func TestApportion(t *testing.T) {
	classes := []ClassSpec{
		{Name: "a", Share: 0.5, SLOClass: "a"},
		{Name: "b", Share: 0.3, SLOClass: "b"},
		{Name: "c", Share: 0.2, SLOClass: "c"},
	}
	ranges, err := apportion(10, classes)
	if err != nil {
		t.Fatal(err)
	}
	want := []ClassRange{
		{Name: "a", SLO: "a", Lo: 0, Hi: 5},
		{Name: "b", SLO: "b", Lo: 5, Hi: 8},
		{Name: "c", SLO: "c", Lo: 8, Hi: 10},
	}
	if !reflect.DeepEqual(ranges, want) {
		t.Errorf("apportion = %+v, want %+v", ranges, want)
	}
	if _, err := apportion(2, classes); err == nil {
		t.Error("a class rounding to zero users should fail")
	}
}

func TestTraceRoundTrip(t *testing.T) {
	events := []loadgen.TraceEvent{
		{At: 0, User: 3, Class: "fg", Query: "q one", Click: "http://a"},
		{At: 1500 * time.Microsecond, User: 0, Class: "", Query: "q two", Click: ""},
		{At: 2 * time.Millisecond, User: 7, Class: "bg", Query: "q three", Click: "http://b"},
	}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, events); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, events) {
		t.Errorf("round trip drifted:\n got %+v\nwant %+v", got, events)
	}

	if err := WriteTrace(&bytes.Buffer{}, []loadgen.TraceEvent{{Query: "a\tb"}}); err == nil {
		t.Error("tab in a field should fail")
	}
	if _, err := ReadTrace(strings.NewReader("nonsense\n")); err == nil {
		t.Error("missing header should fail")
	}
	if _, err := ReadTrace(strings.NewReader(TraceHeader + "\n5\t0\t\tq\t\n1\t0\t\tq\t\n")); err == nil {
		t.Error("out-of-order events should fail")
	}
	if _, err := ReadTrace(strings.NewReader(TraceHeader + "\n")); err == nil {
		t.Error("eventless trace should fail")
	}
}

// closedSpec is a small multi-class closed scenario exercising device
// cohorts, per-class faults and per-class pacing.
func closedSpec() *Spec {
	return &Spec{
		Version: 1,
		Mode:    "closed",
		Users:   40,
		Seed:    11,
		Fleet:   FleetSpec{Shards: 4, Workers: 2, Queue: 2048},
		Classes: []ClassSpec{
			{Name: "fg", Share: 0.5, SLOClass: "interactive", Device: "wifi",
				Think: &ThinkSpec{Scale: 0.01}, MaxQueriesPerUser: 25},
			{Name: "bg", Share: 0.5, Device: "edge", MaxQueriesPerUser: 25,
				Faults: &FaultSpec{Loss: 0.2, Outage: "50ms/200ms", Retries: 3}},
		},
	}
}

// openSpec is a small multi-class open scenario.
func openSpec() *Spec {
	return &Spec{
		Version:  1,
		Mode:     "open",
		Users:    48,
		Seed:     11,
		QPS:      400,
		Duration: Duration(300 * time.Millisecond),
		Fleet:    FleetSpec{Shards: 4, Workers: 2, Queue: 4096},
		Classes: []ClassSpec{
			{Name: "fg", Share: 0.5, SLOClass: "interactive", Device: "wifi",
				Arrival: &ArrivalSpec{Process: "diurnal", RateFraction: 0.6, PeakTrough: 6}},
			{Name: "bg", Share: 0.5, Device: "edge",
				Arrival: &ArrivalSpec{Process: "flat", RateFraction: 0.4},
				Faults:  &FaultSpec{Loss: 0.2, Outage: "60ms/200ms", Retries: 3}},
		},
	}
}

// TestScenarioRunDeterministic runs the same closed scenario twice on
// freshly built fleets: per-user outcomes must be byte-identical.
func TestScenarioRunDeterministic(t *testing.T) {
	var counts [][]fleet.UserServeCount
	var reports []loadgen.Report
	for i := 0; i < 2; i++ {
		comp, err := Compile(closedSpec(), "test")
		if err != nil {
			t.Fatal(err)
		}
		g := smallGen(t, comp.Spec.Users, comp.Spec.Seed)
		f, col := rig(t, comp, g, smallContent(t, g))
		r, err := comp.Run(f, col, g)
		if err != nil {
			t.Fatal(err)
		}
		counts = append(counts, f.UserServeCounts())
		reports = append(reports, r)
	}
	if reports[0].Shed != 0 {
		t.Fatalf("closed run shed %d requests; the determinism check needs a shed-free run", reports[0].Shed)
	}
	if !reflect.DeepEqual(counts[0], counts[1]) {
		t.Error("per-user outcomes differ between identical scenario runs")
	}
	if reports[0].Requests != reports[1].Requests || reports[0].PersonalHits != reports[1].PersonalHits {
		t.Errorf("aggregate counters differ: %d/%d vs %d/%d requests/hits",
			reports[0].Requests, reports[0].PersonalHits, reports[1].Requests, reports[1].PersonalHits)
	}
}

// TestTraceReplayDeterministic materializes an open scenario into a
// trace file, replays the recorded trace twice on fresh fleets, and
// checks both replays (and the live open run of the same schedule)
// agree on every per-user outcome.
func TestTraceReplayDeterministic(t *testing.T) {
	comp, err := Compile(openSpec(), "test")
	if err != nil {
		t.Fatal(err)
	}
	g := smallGen(t, comp.Spec.Users, comp.Spec.Seed)
	content := smallContent(t, g)

	events, err := comp.Materialize(g)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "run.trace")
	if err := WriteTraceFile(path, events); err != nil {
		t.Fatal(err)
	}
	back, err := ReadTraceFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, events) {
		t.Fatal("trace file does not round-trip the materialized schedule")
	}

	// Live open run of the same schedule.
	liveF, liveCol := rig(t, comp, g, content)
	liveReport, err := comp.Run(liveF, liveCol, g)
	if err != nil {
		t.Fatal(err)
	}
	if liveReport.Shed != 0 {
		t.Fatalf("open run shed %d requests; the determinism check needs a shed-free run", liveReport.Shed)
	}
	live := liveF.UserServeCounts()

	// The recorded trace replayed twice, via the spec's trace mode.
	var replays [][]fleet.UserServeCount
	for i := 0; i < 2; i++ {
		tspec := &Spec{
			Version: 1, Mode: "trace", Users: comp.Spec.Users, Seed: comp.Spec.Seed,
			Trace: path, Fleet: comp.Spec.Fleet, Classes: comp.Spec.Classes,
		}
		// Trace mode carries no arrival specs — the trace is the schedule.
		for ci := range tspec.Classes {
			tspec.Classes[ci].Arrival = nil
		}
		tcomp, err := Compile(tspec, "test-trace")
		if err != nil {
			t.Fatal(err)
		}
		f, col := rig(t, tcomp, g, content)
		if _, err := tcomp.Run(f, col, g); err != nil {
			t.Fatal(err)
		}
		replays = append(replays, f.UserServeCounts())
	}
	if !reflect.DeepEqual(replays[0], replays[1]) {
		t.Error("per-user outcomes differ between identical trace replays")
	}
	if !reflect.DeepEqual(live, replays[0]) {
		t.Error("trace replay diverges from the live open run of the same schedule")
	}
}

// TestSingleClassMatchesLegacy checks the one-class identities: a
// single-class scenario, a spec with no classes, a hand-built one-class
// loadgen config and the untagged config with no classes at all draw the
// same schedule from the same seed, so per-user outcomes are
// byte-identical; only the tag differs.
func TestSingleClassMatchesLegacy(t *testing.T) {
	const users, seed = 32, 9
	spec := func(classes ...ClassSpec) *Spec {
		return &Spec{
			Version: 1, Mode: "open", Users: users, Seed: seed,
			QPS: 300, Duration: Duration(250 * time.Millisecond),
			Fleet:   FleetSpec{Shards: 4, Workers: 2, Queue: 4096},
			Classes: classes,
		}
	}
	comp, err := Compile(spec(ClassSpec{Name: "only", Share: 1, Arrival: &ArrivalSpec{Process: "flat"}}), "")
	if err != nil {
		t.Fatal(err)
	}
	bare, err := Compile(spec(), "")
	if err != nil {
		t.Fatal(err)
	}
	g := smallGen(t, users, seed)
	content := smallContent(t, g)

	run := func(name string, cfg loadgen.OpenConfig, wantTag string) []fleet.UserServeCount {
		t.Helper()
		f, col := rig(t, comp, g, content)
		r, err := loadgen.RunOpen(f, col, g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if r.Shed != 0 {
			t.Fatalf("%s: shed %d requests; the identity check needs shed-free runs", name, r.Shed)
		}
		if r.Arrivals != "poisson" {
			t.Errorf("%s: arrivals reported as %q, want poisson", name, r.Arrivals)
		}
		switch {
		case wantTag == "" && len(r.Classes) != 0:
			t.Errorf("%s: untagged run has class rows: %+v", name, r.Classes)
		case wantTag != "" && (len(r.Classes) != 1 || r.Classes[0].Class != wantTag):
			t.Errorf("%s: report classes = %+v, want one %q row", name, r.Classes, wantTag)
		}
		return f.UserServeCounts()
	}
	untagged := loadgen.OpenConfig{QPS: 300, Duration: 250 * time.Millisecond, Month: 1, Seed: seed}
	oneClass := untagged
	oneClass.Classes = []loadgen.OpenClassConfig{{Name: "mine", Hi: users, QPSShare: 1}}

	want := run("no classes", untagged, "")
	for _, c := range []struct {
		name string
		cfg  loadgen.OpenConfig
		tag  string
	}{
		{"single-class scenario", comp.Open, "only"},
		{"scenario without classes", bare.Open, "default"},
		{"one hand-built class", oneClass, "mine"},
	} {
		if got := run(c.name, c.cfg, c.tag); !reflect.DeepEqual(got, want) {
			t.Errorf("%s diverges from the untagged run with no classes", c.name)
		}
	}
}

// TestMultiClassReport checks that the per-SLO-class breakdown covers
// every request and carries per-class energy.
func TestMultiClassReport(t *testing.T) {
	comp, err := Compile(openSpec(), "test")
	if err != nil {
		t.Fatal(err)
	}
	g := smallGen(t, comp.Spec.Users, comp.Spec.Seed)
	f, col := rig(t, comp, g, smallContent(t, g))
	r, err := comp.Run(f, col, g)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Classes) != 2 {
		t.Fatalf("report has %d class rows, want 2: %+v", len(r.Classes), r.Classes)
	}
	names := []string{r.Classes[0].Class, r.Classes[1].Class}
	if !reflect.DeepEqual(names, []string{"bg", "interactive"}) {
		t.Errorf("class rows = %v, want [bg interactive] (sorted)", names)
	}
	var served, shed, requests uint64
	for _, cr := range r.Classes {
		served += cr.Served
		shed += cr.Shed
		requests += cr.Requests
		if cr.Served > 0 && cr.EnergyJ <= 0 {
			t.Errorf("class %s served %d requests but reports %g J", cr.Class, cr.Served, cr.EnergyJ)
		}
		if cr.Served > 0 && cr.Model.P99NS <= 0 {
			t.Errorf("class %s served %d requests but has no model p99", cr.Class, cr.Served)
		}
	}
	if served != r.Served || shed != r.Shed || requests != r.Requests {
		t.Errorf("class rows sum to %d/%d/%d served/shed/requests, report says %d/%d/%d",
			served, shed, requests, r.Served, r.Shed, r.Requests)
	}
	// The faulted bg class must see degraded or retried service the
	// clean interactive class never does.
	var bg, fg loadgen.ClassReport
	for _, cr := range r.Classes {
		if cr.Class == "bg" {
			bg = cr
		} else {
			fg = cr
		}
	}
	if fg.Degraded != 0 || fg.Unavailable != 0 {
		t.Errorf("clean class saw %d degraded / %d unavailable", fg.Degraded, fg.Unavailable)
	}
	if bg.Served > 0 && bg.Degraded == 0 && bg.Unavailable == 0 && bg.CloudMisses == bg.Served {
		t.Logf("note: faulted class saw no degradation this run (loss draws can all succeed)")
	}
}

// TestAutoscaleEventsLowering: the fleet.autoscale block reaches the
// open generator config intact, resize events become the model-time
// timeline, and outage events land on the fleet fault profile as
// absolute windows (creating one when the spec has none).
func TestAutoscaleEventsLowering(t *testing.T) {
	spec, err := Parse([]byte(`{
		"version": 1, "mode": "open", "users": 60, "qps": 50, "seed": 7,
		"duration": "2s",
		"fleet": {"shards": 4, "placement": "ring",
			"autoscale": {"interval": "100ms", "min": 2, "max": 10,
				"high": 0.8, "low": 0.3, "up_after": 3, "down_after": 4,
				"rate_per_shard": 25}},
		"events": [
			{"at": "200ms", "outage": "100ms"},
			{"at": "500ms", "resize": 6},
			{"at": "1s", "resize": 3, "drop": true}
		]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	comp, err := Compile(spec, "inline")
	if err != nil {
		t.Fatal(err)
	}
	ac := comp.Open.Autoscale
	if ac == nil || ac.Interval != 100*time.Millisecond || ac.Min != 2 || ac.Max != 10 ||
		ac.High != 0.8 || ac.Low != 0.3 || ac.UpAfter != 3 || ac.DownAfter != 4 ||
		ac.RatePerShard != 25 {
		t.Fatalf("autoscale config not lowered: %+v", ac)
	}
	wantEvents := []loadgen.TimelineEvent{
		{At: 500 * time.Millisecond, ResizeTo: 6},
		{At: time.Second, ResizeTo: 3, DropState: true},
	}
	if !reflect.DeepEqual(comp.Open.Events, wantEvents) {
		t.Fatalf("timeline events = %+v, want %+v", comp.Open.Events, wantEvents)
	}
	cfg, err := comp.FleetConfig(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !cfg.Faults.Enabled || cfg.Faults.Seed != 7 {
		t.Fatalf("outage event did not enable a fault profile: %+v", cfg.Faults)
	}
	if len(cfg.Faults.Windows) != 1 ||
		cfg.Faults.Windows[0].Start != 200*time.Millisecond ||
		cfg.Faults.Windows[0].End != 300*time.Millisecond {
		t.Fatalf("outage windows = %+v", cfg.Faults.Windows)
	}
	if cfg.Faults.LossProb != 0 || cfg.Faults.EngineErrProb != 0 {
		t.Fatalf("event-only profile should inject nothing but the window: %+v", cfg.Faults)
	}

	// A closed spec's resize events become the closed timeline, on any
	// placement.
	closed, err := Parse([]byte(`{"version": 1, "mode": "closed", "users": 60,
		"events": [{"at": "360h", "resize": 12}, {"at": "400h", "resize": 6, "drop": true}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if comp, err = Compile(closed, "inline"); err != nil {
		t.Fatal(err)
	}
	wantEvents = []loadgen.TimelineEvent{
		{At: 360 * time.Hour, ResizeTo: 12},
		{At: 400 * time.Hour, ResizeTo: 6, DropState: true},
	}
	if !reflect.DeepEqual(comp.Closed.Events, wantEvents) {
		t.Fatalf("closed timeline events = %+v, want %+v", comp.Closed.Events, wantEvents)
	}
}

// TestAutoscaleEventsValidation pins the semantic checks: autoscale
// needs open mode and the ring placement, events need exactly one
// operation and sorted offsets, and trace mode replays none. A row with
// no wanted error must parse: resize events run on either placement and
// in closed mode.
func TestAutoscaleEventsValidation(t *testing.T) {
	cases := []struct {
		name, json, wantErr string
	}{
		{"closed-mode-autoscale",
			`{"version":1,"mode":"closed","users":10,
				"fleet":{"placement":"ring","autoscale":{}}}`,
			"only open mode drives the autoscaler"},
		{"modulo-autoscale",
			`{"version":1,"mode":"open","users":10,"qps":5,"duration":"1s",
				"fleet":{"autoscale":{}}}`,
			"needs the ring placement"},
		{"inverted-watermarks",
			`{"version":1,"mode":"open","users":10,"qps":5,"duration":"1s",
				"fleet":{"placement":"ring","autoscale":{"high":0.3,"low":0.5}}}`,
			"must be below high"},
		{"empty-event",
			`{"version":1,"mode":"open","users":10,"qps":5,"duration":"1s",
				"events":[{"at":"1s"}]}`,
			"needs a positive resize target or outage length"},
		{"both-ops",
			`{"version":1,"mode":"open","users":10,"qps":5,"duration":"1s",
				"fleet":{"placement":"ring"},
				"events":[{"at":"1s","resize":4,"outage":"1s"}]}`,
			"pick one of resize or outage"},
		{"unsorted",
			`{"version":1,"mode":"open","users":10,"qps":5,"duration":"1s",
				"events":[{"at":"2s","outage":"1s"},{"at":"1s","outage":"1s"}]}`,
			"sorted by offset"},
		{"resize-on-modulo",
			`{"version":1,"mode":"open","users":10,"qps":5,"duration":"1s",
				"events":[{"at":"1s","resize":4}]}`,
			""},
		{"closed-mode-events",
			`{"version":1,"mode":"closed","users":10,
				"events":[{"at":"1s","outage":"1s"},{"at":"360h","resize":4,"drop":true}]}`,
			""},
		{"trace-mode-events",
			`{"version":1,"mode":"trace","users":10,"trace":"t.trace",
				"events":[{"at":"1s","resize":4}]}`,
			"trace mode replays no timeline"},
		{"drop-on-outage",
			`{"version":1,"mode":"open","users":10,"qps":5,"duration":"1s",
				"events":[{"at":"1s","outage":"1s","drop":true}]}`,
			"only resize events move state"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse([]byte(tc.json))
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("Parse refused %s: %v", tc.json, err)
				}
				return
			}
			if err == nil {
				t.Fatalf("Parse accepted %s", tc.json)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

func TestLoadRejectsUnknown(t *testing.T) {
	_, _, err := Load("no-such-preset-or-file.json")
	if err == nil {
		t.Fatal("unknown scenario should fail")
	}
	if !strings.Contains(err.Error(), "presets:") {
		t.Errorf("error should list the preset names, got: %v", err)
	}
}

// TestBackendSpecLowering: the fleet.backend block reaches the fleet
// config intact — spellings parsed, seed defaulted to the scenario
// seed, "inf" understood — and a backend-bearing preset actually
// builds a fleet whose stats expose per-replica accounting.
func TestBackendSpecLowering(t *testing.T) {
	spec, err := Parse([]byte(`{
		"version": 1, "mode": "open", "users": 60, "qps": 50, "seed": 9,
		"duration": "1s",
		"faults": {"loss": 0.1},
		"fleet": {"replicas": 2,
			"backend": {"service_rate": 12.5, "queue": 8, "discipline": "ps",
				"dist": "fixed", "offered": 6, "cancel_on_win": true}}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	comp, err := Compile(spec, "inline")
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := comp.FleetConfig(nil)
	if err != nil {
		t.Fatal(err)
	}
	bo := cfg.Backend
	if !bo.Enabled || bo.ServiceRate != 12.5 || bo.QueueDepth != 8 ||
		bo.Discipline != backend.PS || bo.Dist != backend.DistFixed ||
		bo.Offered != 6 || !bo.CancelOnWin {
		t.Fatalf("backend options not lowered: %+v", bo)
	}
	if bo.Seed != 9 {
		t.Fatalf("backend seed did not default to the scenario seed: %d", bo.Seed)
	}

	// "inf" is a first-class rate spelling.
	spec2, err := Parse([]byte(`{
		"version": 1, "mode": "closed", "users": 10,
		"faults": {"loss": 0.1},
		"fleet": {"backend": {"service_rate": "inf"}}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(float64(spec2.Fleet.Backend.ServiceRate), 1) {
		t.Fatalf("inf rate parsed as %v", spec2.Fleet.Backend.ServiceRate)
	}

	// The clone-storm preset runs end to end and reports replica stats.
	g := smallGen(t, 60, 9)
	content := smallContent(t, g)
	cs, _, err := Load("clone-storm")
	if err != nil {
		t.Fatal(err)
	}
	cs.Users, cs.QPS, cs.Duration = 60, 40, Duration(300*time.Millisecond)
	comp, err = Compile(cs, "clone-storm")
	if err != nil {
		t.Fatal(err)
	}
	f, col := rig(t, comp, g, content)
	if _, err := comp.Run(f, col, g); err != nil {
		t.Fatal(err)
	}
	st := f.Stats()
	if len(st.Backend) != 3 {
		t.Fatalf("clone-storm fleet has %d replica stats, want 3", len(st.Backend))
	}
	var arrivals int64
	for r, bs := range st.Backend {
		if bs.Arrivals != bs.Served+bs.Rejected+bs.Abandoned {
			t.Errorf("replica %d does not cross-foot: %+v", r, bs)
		}
		arrivals += bs.Arrivals
	}
	if arrivals == 0 {
		t.Error("clone-storm run priced no backend arrivals")
	}
}
