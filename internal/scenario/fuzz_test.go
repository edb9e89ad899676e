package scenario

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// FuzzParse hammers the spec decoder and validator, seeded from the
// presets and the validation goldens' inputs: whatever the bytes, Parse
// must not panic; a rejection is an *Error that names at least one
// problem and carries no spec; and an accepted spec — defaults
// resolved — marshals to JSON that parses back to the very same spec,
// so what a report or a tool writes out is what a later run reads in.
func FuzzParse(f *testing.F) {
	for _, name := range PresetNames() {
		raw, _ := Preset(name)
		f.Add([]byte(raw))
	}
	inputs, err := filepath.Glob(filepath.Join("testdata", "*.json"))
	if err != nil || len(inputs) == 0 {
		f.Fatalf("no testdata specs: %v", err)
	}
	for _, path := range inputs {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := Parse(data)
		if err != nil {
			var invalid *Error
			if !errors.As(err, &invalid) || len(invalid.Problems) == 0 {
				t.Fatalf("rejection is not an *Error with problems: %#v", err)
			}
			if spec != nil {
				t.Fatalf("error %v came with a spec", err)
			}
			return
		}
		raw, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("accepted spec does not marshal: %v", err)
		}
		back, err := Parse(raw)
		if err != nil {
			t.Fatalf("accepted spec re-marshalled as %s is rejected: %v", raw, err)
		}
		if !reflect.DeepEqual(spec, back) {
			t.Fatalf("round trip changed the spec:\n was %+v\n now %+v\n via %s", spec, back, raw)
		}
	})
}

// traceSeeds materializes the four open-mode presets (commuter is
// closed-loop and cannot Materialize) into serialized traces, shrunk
// so seeding stays cheap. Real preset output keeps the corpus honest:
// multi-class tags, hedged clone-storm schedules, comment lines.
func traceSeeds(f *testing.F) [][]byte {
	f.Helper()
	var seeds [][]byte
	for _, name := range []string{"flash-crowd", "regional-outage", "mixed-fleet", "clone-storm"} {
		spec, _, err := Load(name)
		if err != nil {
			f.Fatal(err)
		}
		spec.Users, spec.QPS, spec.Duration = 50, 30, Duration(200*time.Millisecond)
		comp, err := Compile(spec, name)
		if err != nil {
			f.Fatalf("%s: %v", name, err)
		}
		g := smallGen(f, spec.Users, spec.Seed)
		events, err := comp.Materialize(g)
		if err != nil {
			f.Fatalf("%s: %v", name, err)
		}
		var buf bytes.Buffer
		if err := WriteTrace(&buf, events); err != nil {
			f.Fatalf("%s: %v", name, err)
		}
		seeds = append(seeds, buf.Bytes())
	}
	return seeds
}

// FuzzReadTrace hammers the #pocketcloudlets-trace v1 TSV reader
// (mirroring FuzzParseOutageSpec for the outage grammar): whatever the
// input, the parser must not panic, errors must come with no events,
// and anything it accepts must be a well-formed schedule — non-empty,
// time-ordered, non-negative users, non-empty queries — that survives
// a WriteTrace/ReadTrace round trip byte-for-byte.
func FuzzReadTrace(f *testing.F) {
	for _, seed := range traceSeeds(f) {
		f.Add(seed)
	}
	for _, seed := range []string{
		"",
		"nonsense\n",
		TraceHeader,
		TraceHeader + "\n",
		TraceHeader + "\n# comment only\n",
		TraceHeader + "\n0\t0\t\tq\t\n",
		TraceHeader + "\n5\t0\t\tq\t\n1\t0\t\tq\t\n", // out of order
		TraceHeader + "\n0\t0\t\t\t\n",               // empty query
		TraceHeader + "\n-1\t0\t\tq\t\n",             // negative at
		TraceHeader + "\n0\t-1\t\tq\t\n",             // negative user
		TraceHeader + "\n0\t0\tq\n",                  // too few fields
		TraceHeader + "\n0\t0\t\tq\t\textra\n",       // too many fields
		TraceHeader + "\r\n0\t0\tvip\tq\tc\r\n",      // CRLF endings
		TraceHeader + "\n9223372036854775807\t0\t\tq\t\n",
		TraceHeader + "\n9223372036854775808\t0\t\tq\t\n", // int64 overflow
		TraceHeader + "\n0\t0\tcla\rss\tq\tc\n",           // CR inside a field
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		events, err := ReadTrace(bytes.NewReader(data))
		if err != nil {
			if events != nil {
				t.Fatalf("error %v with %d events", err, len(events))
			}
			return
		}
		if len(events) == 0 {
			t.Fatal("accepted a trace with no events")
		}
		var last time.Duration
		for i, ev := range events {
			if ev.At < 0 || ev.At < last {
				t.Fatalf("event %d: at %v out of order (prev %v)", i, ev.At, last)
			}
			last = ev.At
			if ev.User < 0 {
				t.Fatalf("event %d: negative user %d", i, ev.User)
			}
			if ev.Query == "" {
				t.Fatalf("event %d: empty query", i)
			}
		}
		var buf bytes.Buffer
		if werr := WriteTrace(&buf, events); werr != nil {
			// The only parseable-but-unwritable shape: a carriage return
			// in the middle of a field (line splitting removes \n, field
			// splitting removes \t, but only a *trailing* \r is trimmed).
			for _, ev := range events {
				if strings.Contains(ev.Class+ev.Query+ev.Click, "\r") {
					return
				}
			}
			t.Fatalf("clean events do not re-serialize: %v", werr)
		}
		back, rerr := ReadTrace(bytes.NewReader(buf.Bytes()))
		if rerr != nil {
			t.Fatalf("round trip rejected: %v", rerr)
		}
		if len(back) != len(events) {
			t.Fatalf("round trip changed event count: %d vs %d", len(back), len(events))
		}
		for i := range back {
			if back[i] != events[i] {
				t.Fatalf("round trip changed event %d: %+v vs %+v", i, back[i], events[i])
			}
		}
	})
}
