package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"pocketcloudlets"
	"pocketcloudlets/internal/reportnorm"
	"pocketcloudlets/internal/scenario"
)

// parse runs the real flag definitions over a command line, so tests
// exercise exactly what main sees.
func parse(t *testing.T, args ...string) *runFlags {
	t.Helper()
	var rf runFlags
	fs := flag.NewFlagSet("loadtest", flag.ContinueOnError)
	rf.register(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatalf("parse %v: %v", args, err)
	}
	rf.noteSet(fs)
	return &rf
}

// problemsOf is every problem compile finds with a command line.
func problemsOf(t *testing.T, args ...string) []string {
	t.Helper()
	_, problems := parse(t, args...).compile()
	return problems
}

// compiled is the scenario a runnable command line compiles to.
func compiled(t *testing.T, args ...string) *scenario.Compiled {
	t.Helper()
	comp, problems := parse(t, args...).compile()
	if len(problems) != 0 {
		t.Fatalf("args %v should compile, got %v", args, problems)
	}
	return comp
}

func TestValidateDefaultsAreRunnable(t *testing.T) {
	if problems := problemsOf(t); len(problems) != 0 {
		t.Errorf("default flags should validate: %v", problems)
	}
}

func TestValidateCatchesBadFlags(t *testing.T) {
	cases := []struct {
		args []string
		want string // substring of the expected problem
	}{
		{[]string{"-shards", "0"}, "-shards"},
		{[]string{"-shards", "-3"}, "-shards"},
		{[]string{"-workers", "-1"}, "-workers"},
		{[]string{"-users", "0"}, "-users"},
		{[]string{"-queue", "0"}, "-queue"},
		{[]string{"-qps", "0"}, "-qps"},
		{[]string{"-mode", "open", "-duration", "0"}, "-duration"},
		{[]string{"-mode", "sideways"}, "-mode"},
		{[]string{"-share", "1.5"}, "-share"},
		{[]string{"-share", "0"}, "-share"},
		{[]string{"-month", "0"}, "-month"},
		{[]string{"-radio", "5g"}, "-radio"},
		{[]string{"-userbudget", "-1"}, "-userbudget"},
		{[]string{"-batchmax", "4"}, "-batchmax"},
		{[]string{"-batchlinger", "1ms"}, "-batchlinger"},
		{[]string{"-batchwide"}, "-batchwide"},
		{[]string{"-batch", "-batchmax", "-2"}, "-batchmax"},
		{[]string{"-loss", "0.5"}, "-loss requires -faults"},
		{[]string{"-engineerr", "0.1"}, "-engineerr requires -faults"},
		{[]string{"-outage", "6s/30s"}, "-outage requires -faults"},
		{[]string{"-retries", "3"}, "-retries requires -faults"},
		{[]string{"-faultseed", "7"}, "-faultseed requires -faults"},
		{[]string{"-faults", "-loss", "1.5"}, "-loss"},
		{[]string{"-faults", "-outage", "gibberish"}, "-outage"},
		{[]string{"-placement", "rendezvous"}, "-placement"},
		{[]string{"-vnodes", "-1"}, "-vnodes"},
		{[]string{"-vnodes", "32"}, "-vnodes"},
		{[]string{"-resize-to", "-2"}, "-resize-to: events[0].resize: must be non-negative, got -2"},
		{[]string{"-resize-to", "0"}, "-resize-to: events[0]: needs a positive resize target"},
		{[]string{"-resize-to", "10000000"}, "-resize-to: events[0].resize: 10000000 is over the 1024 limit: every shard preloads a community replica"},
		{[]string{"-resize-to", "12", "-resize-at", "-1s"}, "-resize-at: events[0].at: must be non-negative"},
		{[]string{"-resize-at", "1s"}, "-resize-at requires -resize-to"},
		{[]string{"-resize-drop"}, "-resize-drop requires -resize-to"},
		{[]string{"-arrivals", "weekly"}, "-arrivals"},
		{[]string{"-mode", "closed", "-arrivals", "diurnal"}, "-arrivals"},
		{[]string{"-diurnal-peak", "4"}, "-diurnal-peak"},
		{[]string{"-arrivals", "diurnal", "-diurnal-peak", "0.5"}, "-diurnal-peak"},
		{[]string{"-pace", "0.01"}, "-pace"},
		{[]string{"-mode", "closed", "-pace", "-1"}, "-pace"},
		{[]string{"-backend-rate", "50"}, "-backend-rate"},
		{[]string{"-backend-queue", "8"}, "-backend-queue requires -backend-rate"},
		{[]string{"-backend-disc", "ps"}, "-backend-disc requires -backend-rate"},
		{[]string{"-backend-dist", "fixed"}, "-backend-dist requires -backend-rate"},
		{[]string{"-backend-offered", "20"}, "-backend-offered requires -backend-rate"},
		{[]string{"-backend-cancel"}, "-backend-cancel requires -backend-rate"},
		{[]string{"-faults", "-backend-rate", "fast"}, "-backend-rate"},
		{[]string{"-faults", "-backend-rate", "-5"}, "-backend-rate"},
		{[]string{"-faults", "-backend-rate", "0"}, "-backend-rate"},
		{[]string{"-faults", "-backend-rate", "50", "-backend-queue", "-1"}, "-backend-queue"},
		{[]string{"-faults", "-backend-rate", "50", "-backend-disc", "lifo"}, "-backend-disc"},
		{[]string{"-faults", "-backend-rate", "50", "-backend-dist", "pareto"}, "-backend-dist"},
		{[]string{"-faults", "-backend-rate", "50", "-backend-offered", "-2"}, "-backend-offered"},
		{[]string{"-faults", "-backend-rate", "30", "-backend-offered", "1e6"}, "-backend-offered: fleet.backend.offered: 1e+06/s is over the 100000/s limit"},
		{[]string{"-faults", "-backend-rate", "30", "-backend-offered", "1e300"}, "-backend-offered: fleet.backend.offered: 1e+300/s is over the 100000/s limit"},
		{[]string{"-faults", "-replicas", "10000", "-hedge", "10000"}, "-replicas: fleet.replicas: 10000 is over the 64 limit"},
		{[]string{"-faults", "-replicas", "3", "-hedge", "1000"}, "-hedge: classes[0].hedge.clone_factor: 1000 is over the 64 limit"},
		{[]string{"-batch", "-batchmax", "1000000000"}, "-batchmax: fleet.batch.max: 1000000000 is over the 4096 limit"},
		{[]string{"-placement", "ring", "-vnodes", "100000000"}, "-vnodes: fleet.vnodes: 100000000 is over the 4096 limit"},
		{[]string{"-shards", "10000000"}, "-shards: fleet.shards: 10000000 is over the 1024 limit"},
		{[]string{"-placement", "ring", "-autoscale", "-autoscale-max", "10000000"}, "-autoscale-max: fleet.autoscale.max: 10000000 is over the 1024 limit"},
		{[]string{"-users", "30", "-duration", "200ms", "-qps", "2000", "-placement", "ring",
			"-autoscale", "-autoscale-interval", "2ns"}, "-autoscale-interval: fleet.autoscale.interval: 2ns samples the 200ms run"},
	}
	for _, tc := range cases {
		problems := problemsOf(t, tc.args...)
		found := false
		for _, p := range problems {
			if strings.Contains(p, tc.want) {
				found = true
			}
		}
		if !found {
			t.Errorf("args %v: problems %v do not mention %q", tc.args, problems, tc.want)
		}
	}
	// -fleetbudget and -batchadaptive are no flags: the parser refuses
	// them, not silently ignoring them.
	for _, args := range [][]string{{"-fleetbudget", "100000"}, {"-batchadaptive"}} {
		var rf runFlags
		fs := flag.NewFlagSet("loadtest", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		rf.register(fs)
		name := args[0]
		if err := fs.Parse(args); err == nil ||
			!strings.Contains(err.Error(), "flag provided but not defined: "+name) {
			t.Errorf("%s: %v, want it refused as an unknown flag", name, err)
		}
	}
}

func TestValidateAcceptsRealInvocations(t *testing.T) {
	cases := [][]string{
		{"-mode", "closed", "-users", "100", "-duration", "0", "-seed", "3",
			"-faults", "-loss", "0.3", "-outage", "6s/30s", "-retries", "3",
			"-batch", "-check", "-json"},
		{"-placement", "ring", "-vnodes", "128", "-resize-to", "12", "-resize-at", "2s"},
		{"-placement", "ring", "-resize-to", "12", "-resize-drop"},
		{"-resize-to", "12", "-resize-at", "2s", "-resize-drop"},
		{"-mode", "closed", "-duration", "0", "-placement", "ring", "-resize-to", "12", "-resize-at", "360h"},
		{"-placement", "ring", "-autoscale", "-resize-to", "12", "-resize-at", "2s"},
		{"-mode", "closed", "-duration", "0"},
		{"-arrivals", "diurnal", "-diurnal-peak", "4"},
		{"-arrivals", "peruser"},
		{"-mode", "closed", "-duration", "0", "-pace", "0.001"},
		{"-faults", "-loss", "0.1", "-backend-rate", "40", "-backend-queue", "32",
			"-backend-disc", "ps", "-backend-dist", "exp", "-backend-offered", "25",
			"-backend-cancel", "-check"},
		{"-faults", "-backend-rate", "inf"},
	}
	for _, args := range cases {
		if problems := problemsOf(t, args...); len(problems) != 0 {
			t.Errorf("args %v should validate, got %v", args, problems)
		}
	}
}

func TestProfileFlags(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
	// Writable paths validate, alone and composed with a scenario.
	for _, args := range [][]string{
		{"-cpuprofile", cpu, "-memprofile", mem},
		{"-scenario", "flash-crowd", "-cpuprofile", cpu},
	} {
		if problems := problemsOf(t, args...); len(problems) != 0 {
			t.Errorf("args %v should validate, got %v", args, problems)
		}
	}
	// An unwritable path is a usage error, found before the run.
	missing := filepath.Join(dir, "no-such-dir", "x.prof")
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-cpuprofile", missing}, "-cpuprofile"},
		{[]string{"-memprofile", missing}, "-memprofile"},
		{[]string{"-memprofile", dir}, "-memprofile"}, // a directory
		{[]string{"-scenario", "commuter", "-memprofile", missing}, "-memprofile"},
		{[]string{"-cpuprofile", cpu, "-memprofile", cpu}, "same file"},
	} {
		problems := strings.Join(problemsOf(t, tc.args...), "\n")
		if !strings.Contains(problems, tc.want) {
			t.Errorf("args %v: problems %q, want one mentioning %q", tc.args, problems, tc.want)
		}
	}

	// Both profiles are written when the returned stop function runs.
	stop, err := startProfiles(cpu, mem)
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{cpu, mem} {
		if st, err := os.Stat(path); err != nil || st.Size() == 0 {
			t.Errorf("%s: %v, want a non-empty profile", path, err)
		}
	}
	if _, err := startProfiles(missing, ""); err == nil {
		t.Error("an unwritable -cpuprofile should fail to start")
	}
}

func TestPlacementResolution(t *testing.T) {
	cfg, err := compiled(t, "-placement", "ring", "-shards", "8", "-vnodes", "16").FleetConfig(nil)
	if err != nil || cfg.Placement == nil {
		t.Fatalf("ring placement: %v, %v", cfg.Placement, err)
	}
	if p := cfg.Placement; p.Name() != "ring" || p.Shards() != 8 {
		t.Errorf("got %s/%d", p.Name(), p.Shards())
	}
	if cfg, err := compiled(t).FleetConfig(nil); err != nil || cfg.Placement != nil {
		t.Errorf("modulo must resolve to nil (fleet default), got %v, %v", cfg.Placement, err)
	}
}

// TestResizeFlagDefaults: the -resize-* flags are shorthand for the
// spec's events[0], which both loops replay on the model-time timeline;
// their defaults are the zero event's, and without them a run has no
// event.
func TestResizeFlagDefaults(t *testing.T) {
	fs := flag.NewFlagSet("loadtest", flag.ContinueOnError)
	new(runFlags).register(fs)
	for name, want := range map[string]string{"resize-to": "0", "resize-at": "0s", "resize-drop": "false"} {
		if got := fs.Lookup(name).DefValue; got != want {
			t.Errorf("-%s defaults to %s, want %s", name, got, want)
		}
	}
	for _, mode := range []string{"open", "closed"} {
		if comp := compiled(t, "-mode", mode); len(comp.Spec.Events) != 0 || len(comp.Open.Events)+len(comp.Closed.Events) != 0 {
			t.Errorf("%s: no resize flag, yet events %+v", mode, comp.Spec.Events)
		}
		comp := compiled(t, "-mode", mode, "-placement", "ring", "-resize-to", "12", "-resize-at", "360h", "-resize-drop")
		want := []scenario.EventSpec{{At: scenario.Duration(360 * time.Hour), Resize: 12, Drop: true}}
		if !reflect.DeepEqual(comp.Spec.Events, want) {
			t.Errorf("%s: events %+v, want %+v", mode, comp.Spec.Events, want)
		}
		timeline := comp.Open.Events
		if mode == "closed" {
			timeline = comp.Closed.Events
		}
		if wantTL := []pocketcloudlets.LoadTimelineEvent{{At: 360 * time.Hour, ResizeTo: 12, DropState: true}}; !reflect.DeepEqual(timeline, wantTL) {
			t.Errorf("%s: timeline %+v, want %+v", mode, timeline, wantTL)
		}
	}
}

func TestScenarioFlagConflicts(t *testing.T) {
	// Every workload-shaping flag conflicts with -scenario; each
	// conflict names the flag so the fix is obvious.
	conflicting := [][]string{
		{"-mode", "closed"},
		{"-qps", "500"},
		{"-duration", "1s"},
		{"-arrivals", "diurnal"},
		{"-pace", "0.1"},
		{"-shards", "4"},
		{"-workers", "2"},
		{"-queue", "64"},
		{"-share", "0.4"},
		{"-month", "2"},
		{"-radio", "wifi"},
		{"-placement", "ring"},
		{"-batch"},
		{"-faults"},
		{"-loss", "0.1"},
		{"-resize-to", "4"},
		{"-resize-at", "1s"},
		{"-resize-drop"},
	}
	for _, extra := range conflicting {
		args := append([]string{"-scenario", "flash-crowd"}, extra...)
		problems := problemsOf(t, args...)
		found := false
		for _, p := range problems {
			if strings.Contains(p, extra[0]+" conflicts with -scenario") {
				found = true
			}
		}
		if !found {
			t.Errorf("args %v: problems %v do not flag the %s conflict", args, problems, extra[0])
		}
	}
}

func TestScenarioFlagComposition(t *testing.T) {
	// -users, -seed, -json and -check compose with -scenario.
	ok := [][]string{
		{"-scenario", "flash-crowd"},
		{"-scenario", "mixed-fleet", "-users", "200", "-seed", "7"},
		{"-scenario", "commuter", "-json", "-check"},
	}
	for _, args := range ok {
		if problems := problemsOf(t, args...); len(problems) != 0 {
			t.Errorf("args %v should validate, got %v", args, problems)
		}
	}
	problems := strings.Join(problemsOf(t, "-scenario", "commuter", "-users", "0"), "\n")
	if !strings.Contains(problems, "-users") {
		t.Errorf("-scenario with -users 0 should fail naming -users, got %q", problems)
	}
}

func TestOverlayCompiles(t *testing.T) {
	// The flag overlay must produce a spec the scenario compiler
	// accepts, for both modes and with the kitchen sink on.
	cases := [][]string{
		{},
		{"-mode", "closed", "-duration", "0", "-pace", "0.01"},
		{"-arrivals", "diurnal", "-diurnal-peak", "6"},
		{"-mode", "closed", "-faults", "-loss", "0.3", "-outage", "6s/30s", "-retries", "3",
			"-batch"},
		{"-placement", "ring", "-vnodes", "64"},
		{"-faults", "-loss", "0.1", "-backend-rate", "40", "-backend-queue", "32",
			"-backend-disc", "ps", "-backend-offered", "25", "-backend-cancel"},
	}
	for _, args := range cases {
		comp := compiled(t, args...)
		spec := comp.Spec
		if len(spec.Classes) != 1 || spec.Classes[0].Name != "default" {
			t.Errorf("args %v: flag overlay should produce one \"default\" class, got %+v", args, spec.Classes)
		}
		switch spec.Mode {
		case "open":
			if tag := comp.Open.Classes[0].Name; tag != "default" {
				t.Errorf("args %v: open class tag %q", args, tag)
			}
		case "closed":
			if tag := comp.Closed.Classes[0].Name; tag != "default" {
				t.Errorf("args %v: closed class tag %q", args, tag)
			}
		}
	}
}

func TestOverlayLowersBackendFlags(t *testing.T) {
	comp := compiled(t, "-faults", "-loss", "0.1", "-backend-rate", "40", "-backend-queue", "32",
		"-backend-disc", "ps", "-backend-dist", "fixed", "-backend-offered", "25", "-backend-cancel")
	b := comp.Spec.Fleet.Backend
	if b == nil {
		t.Fatal("the overlay dropped the backend block")
	}
	if float64(b.ServiceRate) != 40 || b.Queue != 32 || b.Discipline != "ps" ||
		b.Dist != "fixed" || b.Offered != 25 || !b.CancelOnWin {
		t.Errorf("backend block mislowered: %+v", *b)
	}
	cfg, err := comp.FleetConfig(nil)
	if err != nil {
		t.Fatalf("FleetConfig: %v", err)
	}
	if !cfg.Backend.Enabled {
		t.Error("compiled fleet config should have the backend enabled")
	}
}

func TestBackendRateFlag(t *testing.T) {
	rate := func(arg string) float64 {
		return float64(compiled(t, "-faults", "-backend-rate", arg).Spec.Fleet.Backend.ServiceRate)
	}
	if v := rate("inf"); !math.IsInf(v, 1) {
		t.Errorf(`-backend-rate inf = %v`, v)
	}
	if v := rate("12.5"); v != 12.5 {
		t.Errorf(`-backend-rate 12.5 = %v`, v)
	}
	for _, bad := range []string{"fast", "0", "-3", "nan", "-inf", ""} {
		if problems := strings.Join(problemsOf(t, "-faults", "-backend-rate", bad), "\n"); !strings.Contains(problems, "-backend-rate") {
			t.Errorf("-backend-rate %q should fail naming the flag, got %q", bad, problems)
		}
	}
}

// TestKnobPathsResolve holds every row of the flag table to the spec:
// its path must resolve through scenario.Field and Set on the base spec
// of each mode, creating a block only where the row may — which also
// holds the table's order, a block's flag before the flags inside it —
// so a typo in a path fails here and not in front of a user.
func TestKnobPathsResolve(t *testing.T) {
	for _, closed := range []bool{false, true} {
		spec := baseSpec(closed)
		if _, err := scenario.Compile(baseSpec(closed), ""); err != nil {
			t.Errorf("%s base spec is not runnable: %v", spec.Mode, err)
		}
		for _, k := range knobs {
			leaf, err := scenario.Field(spec, k.path, k.enables)
			if err != nil {
				t.Errorf("%s base, -%s: path %q: %v", spec.Mode, k.name, k.path, err)
				continue
			}
			// Setting a key to its own text must decode.
			text := k.block
			if text == "" {
				raw, _ := json.Marshal(leaf.Interface())
				text = strings.Trim(string(raw), `"`)
			}
			if err := scenario.Set(spec, k.path, text, k.enables); err != nil {
				t.Errorf("%s base, -%s: Set(%q, %q): %v", spec.Mode, k.name, k.path, text, err)
			}
		}
	}
	if got := len(knobs); got != 49 {
		t.Errorf("%d workload flags, want 49 (none may be added or dropped silently)", got)
	}
}

// TestReadmeFlagTable holds README's flag table to the binary: every
// flag -h prints has a row, every row names a real flag, and a
// workload flag's row names the spec key the table maps it to.
func TestReadmeFlagTable(t *testing.T) {
	readme, err := os.ReadFile(filepath.Join("..", "..", "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string]string{} // flag → its README row
	for _, line := range strings.Split(string(readme), "\n") {
		if name, _, ok := strings.Cut(strings.TrimPrefix(line, "| `-"), "`"); ok && strings.HasPrefix(line, "| `-") {
			rows[name] = line
		}
	}
	keys := map[string]string{}
	for _, k := range knobs {
		keys[k.name] = k.path
	}
	var rf runFlags
	fs := flag.NewFlagSet("loadtest", flag.ContinueOnError)
	rf.register(fs)
	fs.VisitAll(func(f *flag.Flag) {
		row, ok := rows[f.Name]
		if !ok {
			t.Errorf("README's flag table has no row for -%s", f.Name)
			return
		}
		delete(rows, f.Name)
		if key := keys[f.Name]; key != "" && !strings.Contains(row, "`"+key+"`") {
			t.Errorf("README's row for -%s does not name its spec key %s: %s", f.Name, key, row)
		}
	})
	for name := range rows {
		t.Errorf("README's flag table lists -%s, which loadtest does not have", name)
	}
}

// runScenario serves a command line's scenario the way main does —
// ecosystem, community content, fleet, generator run — and returns what
// -check gets to look at.
func runScenario(t *testing.T, args ...string) (*scenario.Compiled, *pocketcloudlets.Fleet, pocketcloudlets.LoadReport) {
	t.Helper()
	comp := compiled(t, args...)
	spec := comp.Spec
	ucfg := scenario.UniverseConfig()
	sim, err := pocketcloudlets.NewSimulation(pocketcloudlets.SimConfig{
		Seed: spec.Seed, Users: spec.Users, UniverseConfig: &ucfg,
	})
	if err != nil {
		t.Fatal(err)
	}
	content, err := sim.CommunityContentFrom(spec.Month-1, spec.CommunityShare, 0)
	if err != nil {
		t.Fatal(err)
	}
	col := pocketcloudlets.NewLoadCollector()
	fcfg, err := comp.FleetConfig(col)
	if err != nil {
		t.Fatal(err)
	}
	f, err := sim.NewFleet(content, fcfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	report, err := comp.Run(f, col, sim.Generator)
	if err != nil {
		t.Fatal(err)
	}
	return comp, f, report
}

// TestCheckHedgeWinsPartitionHedgedMisses: -check holds the hedge wins
// against the cloud misses of the classes that hedge. With one class
// hedging beside one that does not, that is the hedging class's row —
// demanding the fleet-wide count failed a correct run — and with every
// class hedging it is still the fleet-wide count, enforced.
func TestCheckHedgeWinsPartitionHedgedMisses(t *testing.T) {
	comp, f, report := runScenario(t, "-scenario", filepath.Join("testdata", "mixed-hedge.json"))
	on, misses := hedgedMisses(f, comp, report)
	var hedgers uint64
	for _, cr := range report.Classes {
		if cr.Class == "hedgers" {
			hedgers = cr.CloudMisses
		}
	}
	if !on || misses != int64(hedgers) || hedgers == 0 || hedgers >= report.CloudMisses {
		t.Fatalf("mixed spec: hedging %v over %d misses, hedgers row has %d of %d cloud misses", on, misses, hedgers, report.CloudMisses)
	}
	if problems := check(comp, f, report); len(problems) != 0 {
		t.Errorf("mixed spec: a correct run fails -check: %v", problems)
	}

	comp, f, report = runScenario(t, "-scenario", "clone-storm", "-users", "120")
	on, misses = hedgedMisses(f, comp, report)
	if !on || misses != int64(report.CloudMisses) {
		t.Fatalf("every class hedges: hedging %v over %d misses, want all %d", on, misses, report.CloudMisses)
	}
	if problems := check(comp, f, report); len(problems) != 0 {
		t.Errorf("clone-storm fails -check: %v", problems)
	}
	report.PrimaryWins--
	problems := check(comp, f, report)
	if len(problems) != 1 || !strings.Contains(problems[0], "cloud misses of the classes that hedge") {
		t.Errorf("a lost hedge win went unnoticed fleet-wide: %v", problems)
	}
}

// TestCheckLedgerRadioAgainstCollector: -check holds the fleet ledger's
// radio joules against the collector's per-response radio sum. A report
// whose ledger moved joules from device base to radio still adds up —
// device = base + radio, device ≈ energy_j — so only that comparison can
// see it.
func TestCheckLedgerRadioAgainstCollector(t *testing.T) {
	comp, f, report := runScenario(t, "-mode", "closed", "-duration", "0", "-users", "40",
		"-faults", "-loss", "0.2", "-batch")
	if problems := check(comp, f, report); len(problems) != 0 {
		t.Fatalf("a correct run fails -check: %v", problems)
	}
	e := *report.Energy
	if e.RadioJ <= 0 {
		t.Fatalf("the run booked no radio joules: %+v", e)
	}
	shift := e.RadioJ / 10
	e.RadioJ += shift
	e.DeviceBaseJ -= shift
	report.Energy = &e
	problems := check(comp, f, report)
	if len(problems) != 1 || !strings.Contains(problems[0], "radio_energy_j") {
		t.Errorf("a ledger radio 10%% off the collector's went unnoticed: %v", problems)
	}
}

// TestCheckCollectorAgainstFleet: -check holds the collector's total row
// against the fleet's own serving counters. A count moved between two
// tiers of the row still adds up to served, so only that comparison can
// see it.
func TestCheckCollectorAgainstFleet(t *testing.T) {
	comp, f, report := runScenario(t, "-mode", "closed", "-duration", "0", "-users", "40")
	if problems := check(comp, f, report); len(problems) != 0 {
		t.Fatalf("a correct run fails -check: %v", problems)
	}
	if report.PersonalHits == 0 {
		t.Fatalf("the run booked no personal hits: %+v", report.Row)
	}
	report.PersonalHits--
	report.CommunityHits++
	problems := check(comp, f, report)
	if len(problems) != 1 || !strings.Contains(problems[0], "personal_hits") || !strings.Contains(problems[0], "community_hits") {
		t.Errorf("a hit moved between tiers of the collector's row went unnoticed: %v", problems)
	}
}

// TestSmokes runs loadtest's end-to-end smokes in-process. A row with
// one command line must pass -check; a row with two must give reports
// that reportnorm cannot tell apart. The rows run one at a time, so no
// shed separates the two runs of a pair.
func TestSmokes(t *testing.T) {
	with := func(base []string, extra ...string) []string { return append(slices.Clone(base), extra...) }
	closed := []string{"-mode", "closed", "-users", "64", "-duration", "0", "-seed", "3", "-faults", "-loss", "0.2", "-retries", "3"}
	outage := with(closed, "-outage", "6s/30s")
	hedged := with(outage, "-replicas", "3", "-hedge", "2")
	autoscaled := []string{"-users", "200", "-qps", "800", "-duration", "2s", "-seed", "5",
		"-arrivals", "diurnal", "-diurnal-peak", "6", "-placement", "ring", "-shards", "4",
		"-autoscale", "-autoscale-interval", "250ms", "-autoscale-rate", "120"}
	for _, tc := range []struct {
		name string
		a, b []string
	}{
		{"faults", []string{"-mode", "closed", "-users", "100", "-duration", "0", "-seed", "3",
			"-faults", "-loss", "0.3", "-outage", "6s/30s", "-retries", "3", "-batch"}, nil},
		{"clone factor 1 ≡ single backend", outage, with(outage, "-replicas", "3", "-hedge", "1")},
		{"hedged", hedged, nil},
		{"backend-rate inf ≡ no backend", hedged, with(hedged, "-backend-rate", "inf")},
		{"finite-rate backend", with(closed, "-replicas", "3", "-hedge", "2", "-backend-rate", "30",
			"-backend-queue", "16", "-backend-disc", "ps", "-backend-offered", "20", "-backend-cancel"), nil},
		{"flash-crowd", []string{"-scenario", "flash-crowd", "-users", "150"}, nil},
		{"green-day", []string{"-scenario", "green-day", "-users", "300"}, nil},
		{"autoscaled run ≡ itself", autoscaled, autoscaled},
	} {
		t.Run(tc.name, func(t *testing.T) {
			comp, f, report := runScenario(t, tc.a...)
			if tc.b == nil {
				if problems := check(comp, f, report); len(problems) > 0 {
					t.Errorf("%v fails -check: %v", tc.a, problems)
				}
				return
			}
			_, _, other := runScenario(t, tc.b...)
			a, b := normalized(t, report), normalized(t, other)
			for i := range min(len(a), len(b)) {
				if a[i] != b[i] {
					t.Fatalf("%v and %v diverge at report line %d:\n%s\n%s", tc.a, tc.b, i+1, a[i], b[i])
				}
			}
			if len(a) != len(b) {
				t.Fatalf("%v and %v: reports of %d and %d lines", tc.a, tc.b, len(a), len(b))
			}
		})
	}
}

// normalized is a report's JSON through reportnorm, line by line.
func normalized(t *testing.T, r pocketcloudlets.LoadReport) []string {
	t.Helper()
	raw, err := r.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := reportnorm.Run("", bytes.NewReader(raw), &out); err != nil {
		t.Fatal(err)
	}
	return strings.Split(out.String(), "\n")
}

// TestMidRunResizeEnergyIsWidthIndependent: an open-loop run with one
// resize event mid-tape, on a queue deep enough that nothing sheds,
// reports the same energy block with one worker as with several. The
// resize drains under its fence before it stamps the grown shards'
// provisioning instant, so their idle integral starts at the makespan
// of the tape prefix admitted before the event, whoever served it. The
// offered rate is far past what the fleet serves, so a backlog of cold
// first requests is queued when the event fires: a stamp taken without
// the drain reads a makespan that depends on how far the workers got.
func TestMidRunResizeEnergyIsWidthIndependent(t *testing.T) {
	spec := func(workers int) string {
		path := filepath.Join(t.TempDir(), "resize.json")
		body := fmt.Sprintf(`{"version": 1, "mode": "open", "users": 200, "seed": 4, "qps": 1000000, "duration": "20ms",
			"fleet": {"shards": 4, "placement": "ring", "workers": %d, "queue": 100000},
			"events": [{"at": "2ms", "resize": 6}]}`, workers)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	_, _, one := runScenario(t, "-scenario", spec(1))
	_, _, wide := runScenario(t, "-scenario", spec(max(runtime.GOMAXPROCS(0), 4)))
	if one.Shed+wide.Shed > 0 || one.Resizes != 1 || wide.Resizes != 1 {
		t.Fatalf("shed %d and %d, resized %d and %d times: want no shed and one resize each", one.Shed, wide.Shed, one.Resizes, wide.Resizes)
	}
	if one.Workers == wide.Workers {
		t.Fatalf("both runs had %d workers", one.Workers)
	}
	if !reflect.DeepEqual(one.Energy, wide.Energy) {
		t.Errorf("energy with %d worker: %+v\nwith %d: %+v", one.Workers, *one.Energy, wide.Workers, *wide.Energy)
	}
}

// TestClosedLoopResizeRail: a closed run's -resize-to fires at a model
// offset of the users' month logs, so where it lands is a function of
// the command line. Migrating and dropping, the normalized reports at
// one worker and at several agree — movers and dropped users included —
// but for the worker count itself. A migrating resize moves no request
// to another tier: its tier counters and every user's serve counts are
// those of a run that never resized.
func TestClosedLoopResizeRail(t *testing.T) {
	with := func(base []string, extra ...string) []string { return append(slices.Clone(base), extra...) }
	base := []string{"-mode", "closed", "-users", "200", "-duration", "0", "-seed", "1", "-shards", "8", "-placement", "ring"}
	resize := with(base, "-resize-to", "12", "-resize-at", "360h")
	wide := fmt.Sprint(max(runtime.GOMAXPROCS(0), 4))
	_, cf, control := runScenario(t, with(base, "-workers", "1")...)
	for _, drop := range []bool{false, true} {
		args := resize
		if drop {
			args = with(resize, "-resize-drop")
		}
		_, f, one := runScenario(t, with(args, "-workers", "1")...)
		_, _, many := runScenario(t, with(args, "-workers", wide)...)
		if one.Resizes != 1 || one.MigratedUsers == 0 || one.Shed+many.Shed != 0 {
			t.Fatalf("drop %v: %d resizes moving %d users, %d and %d shed: want one resize that moves users, no shed",
				drop, one.Resizes, one.MigratedUsers, one.Shed, many.Shed)
		}
		if dropped := one.DroppedUsers; (dropped == one.MigratedUsers) != drop || (dropped == 0) == drop {
			t.Errorf("drop %v: %d of %d movers dropped", drop, dropped, one.MigratedUsers)
		}
		if one.Workers == many.Workers {
			t.Fatalf("both runs had %d workers", one.Workers)
		}
		many.Workers = one.Workers
		a, b := normalized(t, one), normalized(t, many)
		if !slices.Equal(a, b) {
			for i := range min(len(a), len(b)) {
				if a[i] != b[i] {
					t.Fatalf("drop %v: reports diverge at line %d:\n%s\n%s", drop, i+1, a[i], b[i])
				}
			}
			t.Fatalf("drop %v: reports of %d and %d lines", drop, len(a), len(b))
		}
		if drop {
			if one.PersonalHits >= control.PersonalHits {
				t.Errorf("dropping %d movers' state cost no personal hit: %d vs %d", one.DroppedUsers, one.PersonalHits, control.PersonalHits)
			}
			continue
		}
		if one.Requests != control.Requests || one.PersonalHits != control.PersonalHits ||
			one.CommunityHits != control.CommunityHits || one.CloudMisses != control.CloudMisses {
			t.Errorf("migrating resize moved tiers: %+v\nno resize: %+v", one.Row, control.Row)
		}
		if !reflect.DeepEqual(f.UserServeCounts(), cf.UserServeCounts()) {
			t.Error("migrating resize changed a user's serve counts")
		}
	}
}
