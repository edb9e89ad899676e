package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// compareFiles is the benchdiff: it holds the timed runs of two results
// files against each other, one row per workload and end-to-end metric,
// every ratio printed with its base. A metric is
//
//	better        the new median improved on the base by more than the bound
//	within-bound  it moved by no more than the bound
//	worse         it worsened by more than the bound
//	unresolved    either side's inter-quartile spread exceeds the bound,
//	              and the two sides' samples overlap
//
// The exit code is non-zero on any worse row and when more requests
// failed than in the base.
func compareFiles(oldPath, newPath string, w io.Writer) int {
	base, err := readResults(oldPath)
	if err == nil {
		var next *resultsFile
		if next, err = readResults(newPath); err == nil {
			return compareResults(base, next, w)
		}
	}
	fmt.Fprintf(os.Stderr, "bench: %v\n", err)
	return 2
}

func readResults(path string) (*resultsFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var res resultsFile
	if err := json.Unmarshal(data, &res); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &res, nil
}

// timedRun finds a workload's timed run in a results file.
func (res *resultsFile) timedRun(workload string) *runRecord {
	for _, rr := range res.Runs {
		if rr.Workload == workload && !rr.Traced {
			return rr
		}
	}
	return nil
}

func compareResults(base, next *resultsFile, w io.Writer) int {
	fmt.Fprintf(w, "base %s (%s)  new %s (%s)\n", base.UTC, base.Commit, next.UTC, next.Commit)
	code := 0
	for _, def := range workloads {
		b, n := base.timedRun(def.name), next.timedRun(def.name)
		if b == nil || n == nil {
			fmt.Fprintf(w, "%-12s missing from one side\n", def.name)
			code = 1
			continue
		}
		for _, md := range endToEnd {
			bm, nm := b.Metrics[md.Name], n.Metrics[md.Name]
			v := verdict(md, bm, nm)
			if v == "worse" {
				code = 1
			}
			ratio := 0.0
			if bm.Value != 0 {
				ratio = nm.Value / bm.Value
			}
			fmt.Fprintf(w, "%-12s %-26s %-12s new %.6g / base %.6g %s = %.4f  (bound %.0f%%, spread base %.1f%% new %.1f%%)\n",
				def.name, md.Name, v, nm.Value, bm.Value, md.Unit, ratio,
				100*md.Bound, 100*bm.spread(), 100*nm.spread())
		}
		if bf, nf := failedFrac(b), failedFrac(n); nf > bf {
			fmt.Fprintf(w, "%-12s %-26s %-12s new %.6g / base %.6g\n", def.name, "failed_frac", "worse", nf, bf)
			code = 1
		}
		if d := n.Digest.diff(b.Digest); d != "" {
			fmt.Fprintf(w, "%-12s simulated statistics differ: %s\n", def.name, d)
		}
	}
	return code
}

func failedFrac(rr *runRecord) float64 {
	if rr.Attempted == 0 {
		return 0
	}
	return float64(rr.Failed) / float64(rr.Attempted)
}

// verdict grades one metric of one workload.
func verdict(md metricDef, base, next measurement) string {
	if base.Value == 0 {
		return "unresolved"
	}
	// change > 0 means the metric got worse.
	change := (next.Value - base.Value) / base.Value
	if md.Better == "higher" {
		change = -change
	}
	if base.spread() > md.Bound || next.spread() > md.Bound {
		// Too noisy to call — unless the sides do not overlap at all.
		switch {
		case separated(md, next.Raw, base.Raw) && change < -md.Bound:
			return "better"
		case separated(md, base.Raw, next.Raw) && change > md.Bound:
			return "worse"
		}
		return "unresolved"
	}
	switch {
	case change > md.Bound:
		return "worse"
	case change < -md.Bound:
		return "better"
	}
	return "within-bound"
}

// separated reports whether every sample of a reads better than every
// sample of b.
func separated(md metricDef, a, b []float64) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	for _, x := range a {
		for _, y := range b {
			if md.Better == "higher" && x <= y || md.Better == "lower" && x >= y {
				return false
			}
		}
	}
	return true
}
