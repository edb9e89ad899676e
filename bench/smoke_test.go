package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
)

// smokeScale shrinks populations and rates so that all four workloads,
// both passes, finish in seconds — also under the race detector.
const smokeScale = 20

// benchmarkJSON mirrors the keys of ../BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

// TestBenchmarkJSONMatchesTables holds BENCHMARK.json to the program's
// own tables: same workloads, same metrics, same units and bounds.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b := readBenchmarkJSON(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program has %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)",
				i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json names %d end-to-end metrics, the program has %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range b.EndToEnd {
		if want := endToEnd[i]; m.Name != want.Name || m.Unit != want.Unit || m.Better != want.Better || m.Bound != want.Bound {
			t.Errorf("end_to_end[%d] = %+v, the program has %+v", i, m, want)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json names %d per-layer metrics, the program has %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		if want := perLayer[i]; m.Name != want.Name || m.Unit != want.Unit || m.Better != want.Better {
			t.Errorf("per_layer[%d] = %+v, the program has %+v", i, m, want)
		}
	}
}

// TestSmoke runs every workload's timed and traced pass at short scale
// and checks the surface later changes rely on: every metric
// BENCHMARK.json names is emitted, once, finite; nothing fails; the
// traced pass reproduces the timed pass's simulated statistics, and so
// does a second timed run.
func TestSmoke(t *testing.T) {
	b := readBenchmarkJSON(t)
	for i := range workloads {
		def := &workloads[i]
		t.Run(def.name, func(t *testing.T) {
			opts := runOptions{seed: 3, scale: smokeScale}
			timed, err := runTimed(def, opts)
			if err != nil {
				t.Fatal(err)
			}
			again, err := runTimed(def, opts)
			if err != nil {
				t.Fatal(err)
			}
			traced, err := runTraced(def, opts)
			if err != nil {
				t.Fatal(err)
			}
			for _, rr := range []*runRecord{timed, again, traced} {
				if !rr.Correct || rr.Failed != 0 || rr.Attempted < 1 {
					t.Errorf("traced=%v: correct=%v attempted=%d failed=%d problems=%v",
						rr.Traced, rr.Correct, rr.Attempted, rr.Failed, rr.Problems)
				}
			}
			if d := again.Digest.diff(timed.Digest); d != "" {
				t.Errorf("two timed runs disagree: %s", d)
			}
			if d := traced.Digest.diff(timed.Digest); d != "" {
				t.Errorf("traced pass disagrees with the timed pass: %s", d)
			}

			if len(timed.Metrics) != len(b.EndToEnd) {
				t.Errorf("timed pass emitted %d metrics, BENCHMARK.json names %d", len(timed.Metrics), len(b.EndToEnd))
			}
			for _, m := range b.EndToEnd {
				got, ok := timed.Metrics[m.Name]
				if !ok {
					t.Errorf("timed pass did not emit %s", m.Name)
				} else if got.Unit != m.Unit || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) || got.Value <= 0 {
					t.Errorf("%s = %v %s, want a positive finite value in %s", m.Name, got.Value, got.Unit, m.Unit)
				}
			}
			if len(traced.Metrics) != len(b.PerLayer) {
				t.Errorf("traced pass emitted %d metrics, BENCHMARK.json names %d", len(traced.Metrics), len(b.PerLayer))
			}
			for _, m := range b.PerLayer {
				got, ok := traced.Metrics[m.Name]
				if !ok {
					t.Errorf("traced pass did not emit %s", m.Name)
				} else if got.Unit != m.Unit || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
					t.Errorf("%s = %v %s, want a finite value in %s", m.Name, got.Value, got.Unit, m.Unit)
				}
			}
			if v := traced.Metrics["driver.failed_frac"].Value; v != 0 {
				t.Errorf("driver.failed_frac = %v, want 0", v)
			}
		})
	}
}

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4)
	if q1, q2, q3 = quartiles([]float64{1, 2, 4}); q1 != 1 || q2 != 2 || q3 != 4 {
		t.Errorf("quartiles = %v %v %v, want 1 2 4", q1, q2, q3)
	}
}

func TestVerdict(t *testing.T) {
	rps := metricDef{"throughput_rps", "req/s", "higher", 0.10}
	steady := func(v float64) measurement { return summarize("req/s", []float64{v * 0.99, v, v * 1.01}) }
	noisy := func(v float64) measurement { return summarize("req/s", []float64{v * 0.7, v, v * 1.3}) }
	for _, tc := range []struct {
		name       string
		base, next measurement
		want       string
	}{
		{"same", steady(100), steady(101), "within-bound"},
		{"faster", steady(100), steady(120), "better"},
		{"slower", steady(100), steady(85), "worse"},
		{"noisy overlap", noisy(100), steady(85), "unresolved"},
		{"noisy but separated", noisy(100), steady(60), "worse"},
	} {
		if got := verdict(rps, tc.base, tc.next); got != tc.want {
			t.Errorf("%s: verdict = %s, want %s", tc.name, got, tc.want)
		}
	}
}
