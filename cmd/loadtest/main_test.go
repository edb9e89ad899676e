package main

import (
	"flag"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

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

func TestValidateDefaultsAreRunnable(t *testing.T) {
	if problems := parse(t).validate(); len(problems) != 0 {
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
		{[]string{"-batchmax", "4"}, "-batchmax requires -batch"},
		{[]string{"-batchlinger", "1ms"}, "-batchlinger requires -batch"},
		{[]string{"-batchwide"}, "-batchwide requires -batch"},
		{[]string{"-batchadaptive"}, "-batchadaptive requires -batch"},
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
		{[]string{"-vnodes", "32"}, "-vnodes only applies"},
		{[]string{"-resize-to", "-2"}, "-resize-to"},
		{[]string{"-resize-at", "-1s"}, "-resize-at"},
		{[]string{"-resize-drop"}, "-resize-drop requires -resize-to"},
		{[]string{"-arrivals", "weekly"}, "-arrivals"},
		{[]string{"-mode", "closed", "-arrivals", "diurnal"}, "-arrivals only applies"},
		{[]string{"-diurnal-peak", "4"}, "-diurnal-peak requires -arrivals diurnal"},
		{[]string{"-arrivals", "diurnal", "-diurnal-peak", "0.5"}, "-diurnal-peak"},
		{[]string{"-pace", "0.01"}, "-pace only applies"},
		{[]string{"-mode", "closed", "-pace", "-1"}, "-pace"},
		{[]string{"-backend-rate", "50"}, "-backend-rate requires -faults"},
		{[]string{"-backend-queue", "8"}, "-backend-queue requires -backend-rate"},
		{[]string{"-backend-disc", "ps"}, "-backend-disc requires -backend-rate"},
		{[]string{"-backend-dist", "fixed"}, "-backend-dist requires -backend-rate"},
		{[]string{"-backend-offered", "20"}, "-backend-offered requires -backend-rate"},
		{[]string{"-backend-cancel"}, "-backend-cancel requires -backend-rate"},
		{[]string{"-faults", "-backend-rate", "fast"}, "bad -backend-rate"},
		{[]string{"-faults", "-backend-rate", "-5"}, "bad -backend-rate"},
		{[]string{"-faults", "-backend-rate", "0"}, "bad -backend-rate"},
		{[]string{"-faults", "-backend-rate", "50", "-backend-queue", "-1"}, "-backend-queue"},
		{[]string{"-faults", "-backend-rate", "50", "-backend-disc", "lifo"}, "-backend-disc"},
		{[]string{"-faults", "-backend-rate", "50", "-backend-dist", "pareto"}, "-backend-dist"},
		{[]string{"-faults", "-backend-rate", "50", "-backend-offered", "-2"}, "-backend-offered"},
	}
	for _, tc := range cases {
		problems := parse(t, tc.args...).validate()
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
}

func TestValidateAcceptsRealInvocations(t *testing.T) {
	cases := [][]string{
		{"-mode", "closed", "-users", "100", "-duration", "0", "-seed", "3",
			"-faults", "-loss", "0.3", "-outage", "6s/30s", "-retries", "3",
			"-batch", "-batchadaptive", "-check", "-json"},
		{"-placement", "ring", "-vnodes", "128", "-resize-to", "12", "-resize-at", "2s"},
		{"-placement", "ring", "-resize-to", "12", "-resize-drop"},
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
		if problems := parse(t, args...).validate(); len(problems) != 0 {
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
		if problems := parse(t, args...).validate(); len(problems) != 0 {
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
		problems := strings.Join(parse(t, tc.args...).validate(), "\n")
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
	rf := parse(t, "-placement", "ring", "-shards", "8", "-vnodes", "16")
	p, err := rf.placement()
	if err != nil || p == nil {
		t.Fatalf("ring placement: %v, %v", p, err)
	}
	if p.Name() != "ring" || p.Shards() != 8 {
		t.Errorf("got %s/%d", p.Name(), p.Shards())
	}
	rf = parse(t)
	if p, err := rf.placement(); err != nil || p != nil {
		t.Errorf("modulo must resolve to nil (fleet default), got %v, %v", p, err)
	}
}

func TestResizeFlagDefaults(t *testing.T) {
	rf := parse(t)
	if rf.resizeTo != 0 || rf.resizeAt != time.Second || rf.resizeDrop {
		t.Errorf("resize defaults changed: %+v", rf)
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
	}
	for _, extra := range conflicting {
		args := append([]string{"-scenario", "flash-crowd"}, extra...)
		problems := parse(t, args...).validate()
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
		if problems := parse(t, args...).validate(); len(problems) != 0 {
			t.Errorf("args %v should validate, got %v", args, problems)
		}
	}
	problems := parse(t, "-scenario", "commuter", "-users", "0").validate()
	if len(problems) == 0 {
		t.Error("-scenario with -users 0 should fail")
	}
}

func TestToSpecCompiles(t *testing.T) {
	// The flag funnel must produce a spec the scenario compiler
	// accepts, for both modes and with the kitchen sink on.
	cases := [][]string{
		{},
		{"-mode", "closed", "-duration", "0", "-pace", "0.01"},
		{"-arrivals", "diurnal", "-diurnal-peak", "6"},
		{"-mode", "closed", "-faults", "-loss", "0.3", "-outage", "6s/30s", "-retries", "3",
			"-batch", "-batchadaptive"},
		{"-placement", "ring", "-vnodes", "64"},
		{"-faults", "-loss", "0.1", "-backend-rate", "40", "-backend-queue", "32",
			"-backend-disc", "ps", "-backend-offered", "25", "-backend-cancel"},
	}
	for _, args := range cases {
		rf := parse(t, args...)
		if problems := rf.validate(); len(problems) != 0 {
			t.Fatalf("args %v should validate, got %v", args, problems)
		}
		spec := rf.toSpec()
		comp, err := scenario.Compile(spec, "")
		if err != nil {
			t.Errorf("args %v: compiled spec rejected: %v", args, err)
			continue
		}
		if len(spec.Classes) != 1 || spec.Classes[0].Name != "default" {
			t.Errorf("args %v: flag funnel should produce one \"default\" class, got %+v", args, spec.Classes)
		}
		switch rf.mode {
		case "open":
			if comp.Open.ClassTag != "default" {
				t.Errorf("args %v: open class tag %q", args, comp.Open.ClassTag)
			}
		case "closed":
			if comp.Closed.ClassTag != "default" {
				t.Errorf("args %v: closed class tag %q", args, comp.Closed.ClassTag)
			}
		}
	}
}

func TestToSpecLowersBackendFlags(t *testing.T) {
	rf := parse(t, "-faults", "-loss", "0.1", "-backend-rate", "40", "-backend-queue", "32",
		"-backend-disc", "ps", "-backend-dist", "fixed", "-backend-offered", "25", "-backend-cancel")
	if problems := rf.validate(); len(problems) != 0 {
		t.Fatalf("backend flags should validate, got %v", problems)
	}
	spec := rf.toSpec()
	b := spec.Fleet.Backend
	if b == nil {
		t.Fatal("toSpec dropped the backend block")
	}
	if float64(b.ServiceRate) != 40 || b.Queue != 32 || b.Discipline != "ps" ||
		b.Dist != "fixed" || b.Offered != 25 || !b.CancelOnWin {
		t.Errorf("backend block mislowered: %+v", *b)
	}
	comp, err := scenario.Compile(spec, "")
	if err != nil {
		t.Fatalf("compiled backend spec rejected: %v", err)
	}
	cfg, err := comp.FleetConfig(nil)
	if err != nil {
		t.Fatalf("FleetConfig: %v", err)
	}
	if !cfg.Backend.Enabled {
		t.Error("compiled fleet config should have the backend enabled")
	}
}

func TestParseRate(t *testing.T) {
	if v, err := parseRate("inf"); err != nil || !math.IsInf(v, 1) {
		t.Errorf(`parseRate("inf") = %v, %v`, v, err)
	}
	if v, err := parseRate("12.5"); err != nil || v != 12.5 {
		t.Errorf(`parseRate("12.5") = %v, %v`, v, err)
	}
	for _, bad := range []string{"fast", "0", "-3", "nan", "-inf"} {
		if _, err := parseRate(bad); err == nil {
			t.Errorf("parseRate(%q) should fail", bad)
		}
	}
}
