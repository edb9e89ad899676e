package scenario

import (
	"errors"
	"math"
	"strings"
	"testing"
	"time"
)

// TestSet covers the path setter: every leaf kind decodes from its
// flag-style text exactly as Parse decodes it from a file, a pointer
// block is entered only when present or creatable, and a bad path or
// value comes back as a positional error.
func TestSet(t *testing.T) {
	s := &Spec{Classes: []ClassSpec{{Name: "a", Share: 1}}}
	for _, tc := range []struct {
		path, value string
		create      bool
	}{
		{"users", "250", false},
		{"name", "007", false}, // a string key takes its text verbatim
		{"duration", "250ms", false},
		{"qps", "1e3", false},
		{"fleet.batch.enabled", "true", false},
		{"fleet.batch.linger", "0.5", false}, // bare seconds, as in a file
		{"fleet.user_budget_bytes", "4096", false},
		{"faults", "{}", true},
		{"faults.loss", "0.25", false},
		{"fleet.backend.service_rate", "inf", true},
		{"fleet.backend.discipline", "ps", false},
		{"classes[0].hedge.clone_factor", "2", true},
		{"classes[0].hedge.delay", "5ms", false},
	} {
		if err := Set(s, tc.path, tc.value, tc.create); err != nil {
			t.Fatalf("Set(%q, %q): %v", tc.path, tc.value, err)
		}
	}
	h := s.Classes[0].Hedge
	switch {
	case s.Users != 250, s.Name != "007", s.Duration.D() != 250*time.Millisecond, s.QPS != 1000,
		!s.Fleet.Batch.Enabled, s.Fleet.Batch.Linger.D() != 500*time.Millisecond, s.Fleet.UserBudgetBytes != 4096,
		s.Faults == nil || s.Faults.Loss != 0.25,
		s.Fleet.Backend == nil || !math.IsInf(float64(s.Fleet.Backend.ServiceRate), 1) || s.Fleet.Backend.Discipline != "ps",
		h == nil || h.CloneFactor != 2 || h.Delay.D() != 5*time.Millisecond:
		t.Errorf("Set left the spec at %+v (fleet %+v, faults %+v, backend %+v, hedge %+v)", s, s.Fleet, s.Faults, s.Fleet.Backend, h)
	}

	// An absent block is a typed error naming the block, and stays absent.
	var absent *AbsentBlockError
	if err := Set(s, "fleet.autoscale.min", "2", false); !errors.As(err, &absent) || absent.Block != "fleet.autoscale" {
		t.Errorf("Set through an absent block: %v, want an AbsentBlockError for fleet.autoscale", err)
	}
	if s.Fleet.Autoscale != nil {
		t.Error("a refused Set created the block anyway")
	}
	if err := Set(s, "classes[0].think.scale", "0.1", false); !errors.As(err, &absent) || absent.Block != "classes[0].think" {
		t.Errorf("Set through an absent class block: %v", err)
	}

	// Bad paths and values read like the decoder's problems.
	for _, tc := range []struct{ path, value, want string }{
		{"fleet.qdepth", "1", "fleet.qdepth: unknown field"},
		{"users.max", "1", "users.max: unknown field"},
		{"classes[3].share", "1", "classes[3]: no such element"},
		{"fleet[0].shards", "1", "fleet[0]: no such element"},
		{"users", "many", "users: want int, got JSON string"},
		{"users", "2.5", "users: want int, got JSON number 2.5"},
		{"duration", "soon", `duration: time: invalid duration "soon"`},
		{"fleet.backend.service_rate", "fast", `fleet.backend.service_rate: want a rate number or "inf"`},
		{"faults", "on", "faults: want a JSON object"},
		{"faults", `{"jitter": 1}`, "faults.jitter: unknown field"},
	} {
		err := Set(s, tc.path, tc.value, true)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Set(%q, %q) = %v, want an error containing %q", tc.path, tc.value, err, tc.want)
		}
	}
	// fleet_budget_bytes is no spec key: a spec carrying it is refused,
	// not silently ignored.
	if _, err := Parse([]byte(`{"version": 1, "mode": "closed", "users": 10, "fleet": {"fleet_budget_bytes": 100000}}`)); err == nil ||
		!strings.Contains(err.Error(), "fleet.fleet_budget_bytes: unknown field") {
		t.Errorf("a spec carrying fleet.fleet_budget_bytes: %v, want it rejected as an unknown field", err)
	}
}

// TestNullBlockIsPresent pins what the null_block golden shows from the
// side: JSON null for a pointer block is that block, present and empty
// (so "faults": null turns fault injection on with nothing to inject),
// while null for a plain block, a list or a leaf leaves it untouched.
func TestNullBlockIsPresent(t *testing.T) {
	spec, err := Parse([]byte(`{"version": 1, "mode": "closed", "users": 10, "name": null,
		"faults": null, "events": null, "classes": null, "fleet": {"batch": null, "backend": null}}`))
	if err == nil || !strings.Contains(err.Error(), "fleet.backend.service_rate: must be positive") {
		t.Fatalf("a null backend block should be present (and so lack its rate), got %v, %v", spec, err)
	}
	spec, err = Parse([]byte(`{"version": 1, "mode": "closed", "users": 10, "name": null,
		"faults": null, "events": null, "classes": null, "fleet": {"batch": null}}`))
	if err != nil {
		t.Fatal(err)
	}
	if spec.Faults == nil || *spec.Faults != (FaultSpec{}) {
		t.Errorf("\"faults\": null should be a present-but-empty profile, got %+v", spec.Faults)
	}
	if spec.Events != nil || spec.Classes != nil || spec.Fleet.Batch != (BatchSpec{}) || spec.Name != "" {
		t.Errorf("null lists, plain blocks and leaves should stay zero, got %+v", spec)
	}
}
