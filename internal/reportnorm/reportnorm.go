// Package reportnorm canonicalizes a cmd/loadtest JSON report so two
// reports can be compared byte-for-byte for *model* determinism. The
// modeled outcome of a run is a pure function of its configuration and
// seeds (DESIGN.md, "Model time"; "Hedged misses and replicas"), but
// the report also records host-side measurements that legitimately
// vary run to run. Run reads a report and writes it back with:
//
//   - wall-clock fields removed (elapsed_ns, served_qps, wall_latency,
//     max_schedule_lag_ns, heap_alloc_bytes) — these measure the host,
//     not the model;
//   - the replica presentation field removed (replicas) — a replicated
//     fleet with hedging off is required to be model-identical to a
//     single-backend fleet, and this field is the only permitted report
//     difference;
//   - the per-replica backend rows removed ("backend") — they are keyed
//     by replica index, so the single-backend vs replicated comparison
//     would trivially differ, and the backend-free vs -backend-rate inf
//     one differs in them by construction; keep "backend" to retain
//     them (scripts/bench.sh and scripts/clidiff.sh do, so backend
//     counters can be diffed across commits);
//   - floating-point values reformatted at 9 significant digits —
//     energy totals are accumulated across worker goroutines and the
//     summation order perturbs the last few ulps;
//   - object keys sorted and output indented.
//
// cmd/loadtest's smoke test compares normalized reports in-process (a
// single-backend run against -replicas 3 -hedge 1, among others);
// cmd/reportnorm is the same normalizer on stdin for scripts.
package reportnorm

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// volatileKeys are deleted wherever they appear (top level, per-class
// rows, nested latency blocks). Unlike defaultStrip, keep cannot
// restore them: they measure the host, never the model.
var volatileKeys = map[string]bool{
	"elapsed_ns":          true,
	"served_qps":          true,
	"wall_latency":        true,
	"max_schedule_lag_ns": true,
	"heap_alloc_bytes":    true,
	"replicas":            true,
}

// defaultStrip keys are model-deterministic but presentation-variant
// (per-replica shape), so they are stripped unless named in keep.
var defaultStrip = map[string]bool{
	"backend": true,
}

// StripSet resolves the final delete set: all volatile keys, plus the
// default-stripped keys not named in the comma-separated keep list.
func StripSet(keep string) (map[string]bool, error) {
	strip := make(map[string]bool, len(volatileKeys)+len(defaultStrip))
	for k := range volatileKeys {
		strip[k] = true
	}
	for k := range defaultStrip {
		strip[k] = true
	}
	for _, k := range strings.Split(keep, ",") {
		k = strings.TrimSpace(k)
		if k == "" {
			continue
		}
		if !defaultStrip[k] {
			return nil, fmt.Errorf("-keep %q: not a default-stripped key (want \"backend\")", k)
		}
		delete(strip, k)
	}
	return strip, nil
}

func normalize(v any, strip map[string]bool) any {
	switch t := v.(type) {
	case map[string]any:
		for k, e := range t {
			if strip[k] {
				delete(t, k)
				continue
			}
			t[k] = normalize(e, strip)
		}
		return t
	case []any:
		for i, e := range t {
			t[i] = normalize(e, strip)
		}
		return t
	case json.Number:
		s := t.String()
		if !strings.ContainsAny(s, ".eE") {
			return t // integer: already canonical
		}
		f, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return t
		}
		return json.Number(strconv.FormatFloat(f, 'g', 9, 64))
	default:
		return v
	}
}

// Run normalizes one report from in to out, retaining the
// default-stripped keys named in the comma-separated keep list.
func Run(keep string, in io.Reader, out io.Writer) error {
	strip, err := StripSet(keep)
	if err != nil {
		return err
	}
	dec := json.NewDecoder(in)
	dec.UseNumber()
	var report any
	if err := dec.Decode(&report); err != nil {
		return err
	}
	buf, err := json.MarshalIndent(normalize(report, strip), "", "  ")
	if err != nil {
		return err
	}
	_, err = out.Write(append(buf, '\n'))
	return err
}
