package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"pocketcloudlets/internal/scenario"
)

// TestOutputUnchanged pins what the command writes for a command line
// that sets no overriding flag, and for the search-log path, to the
// bytes it wrote before -users/-seed/-month composed with -scenario.
func TestOutputUnchanged(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-scenario", "flash-crowd"}, "1ef6f4b51f3d2ed279bb10e2e6131049a5cc1eac30208a101113b21b98d0853c"},
		{[]string{"-users", "30", "-seed", "2", "-month", "1"}, "c37cea786bff8ff135c191c9e3af2436ae9724b36ad974813a6f0200188f5ece"},
	} {
		var out bytes.Buffer
		if err := run(c.args, &out); err != nil {
			t.Fatalf("%v: %v", c.args, err)
		}
		sum := sha256.Sum256(out.Bytes())
		if got := hex.EncodeToString(sum[:]); got != c.want {
			t.Errorf("%v: output digest %s, want %s", c.args, got, c.want)
		}
	}
}

// TestScenarioFlagsOverlay: -users, -seed and -month override the loaded
// spec's keys, as cmd/loadtest's do.
func TestScenarioFlagsOverlay(t *testing.T) {
	trace := func(args ...string) []byte {
		t.Helper()
		var out bytes.Buffer
		if err := run(append([]string{"-scenario", "flash-crowd"}, args...), &out); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		return out.Bytes()
	}
	small := trace("-users", "50")
	events, err := scenario.ReadTrace(bytes.NewReader(small))
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("-users 50 wrote no events")
	}
	for _, ev := range events {
		if ev.User >= 50 {
			t.Fatalf("-users 50 wrote an event for user %d", ev.User)
		}
	}
	if bytes.Equal(small, trace("-users", "50", "-seed", "4")) {
		t.Error("-seed did not change the trace")
	}
	if bytes.Equal(small, trace("-users", "50", "-month", "2")) {
		t.Error("-month did not change the trace")
	}
	var out bytes.Buffer
	if err := run([]string{"-scenario", "flash-crowd", "-users", "0"}, &out); err == nil {
		t.Error("-users 0 should be rejected by the spec validator")
	}
}
