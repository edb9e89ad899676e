package main

import (
	"fmt"
	"runtime"
	"time"
)

// processStart stands in for process start: the first set-up is timed
// from here, so runtime and package initialisation count toward it.
var processStart = time.Now()

// setupReps is how many times the timed pass performs the whole set-up;
// setup_s is their median.
const setupReps = 3

// runOptions select one run of one workload.
type runOptions struct {
	seed    int64
	seconds int
	traced  bool
	// scale divides populations and rates; anything above 1 is the smoke
	// test's short scale, where committed goldens do not apply.
	scale int
	// spansPath, when set, receives the traced pass's spans.
	spansPath string
	// updateGolden skips the golden comparison: the run's digest is about
	// to replace the committed one.
	updateGolden bool
}

// runRecord is the outcome of one run: what the contract line reports,
// plus everything the results file and -compare need.
type runRecord struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Traced    bool                   `json:"traced"`
	Seconds   int                    `json:"seconds"`
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Units     int                    `json:"units"`
	Metrics   map[string]measurement `json:"metrics"`
	Digest    digest                 `json:"digest"`
	Problems  []string               `json:"problems,omitempty"`
}

func (rr *runRecord) problemf(format string, args ...any) {
	rr.Problems = append(rr.Problems, fmt.Sprintf(format, args...))
}

// checkDigest compares the run's digest with the committed golden for
// its seed, when one is committed and the run is full scale.
func (rr *runRecord) checkDigest(opts runOptions) error {
	if rr.Digest == nil {
		rr.problemf("no digest was taken")
		return nil
	}
	if opts.scale > 1 || opts.updateGolden {
		return nil
	}
	want, ok, err := loadGolden(rr.Workload, rr.Seed)
	if err != nil || !ok {
		return err
	}
	if d := rr.Digest.diff(want); d != "" {
		rr.problemf("digest differs from golden/%s: %s", goldenName(rr.Workload, rr.Seed), d)
	}
	return nil
}

// finish settles correctness once every check has run.
func (rr *runRecord) finish() {
	if rr.Failed > 0 {
		rr.problemf("%d of %d requests failed (shed, errored or canceled)", rr.Failed, rr.Attempted)
	}
	if rr.Attempted < 1 {
		rr.problemf("no requests were attempted")
	}
	rr.Correct = len(rr.Problems) == 0
}

// foldUnit books one unit's counts into the record and holds its digest
// against the run's: fresh-fleet workloads must repeat theirs exactly.
func (rr *runRecord) foldUnit(i int, s unitSample) {
	rr.Units++
	rr.Attempted += s.requests
	rr.Failed += s.failed
	if s.digest == nil {
		return
	}
	if rr.Digest == nil {
		rr.Digest = s.digest
		return
	}
	if d := s.digest.diff(rr.Digest); d != "" {
		rr.problemf("unit %d's digest disagrees with the run's: %s", i, d)
	}
}

// runTimed is the timed pass: tracing off, the product's collector as
// the only observer. It performs the set-up setupReps times, then
// measures units until the window is used up (never fewer than
// minUnits), and reports each end-to-end metric as the median over its
// samples.
func runTimed(def *workloadDef, opts runOptions) (*runRecord, error) {
	rr := &runRecord{Workload: def.name, Seed: opts.seed, Seconds: opts.seconds}

	var (
		r      *rig
		setups []float64
	)
	for k := 0; k < setupReps; k++ {
		start := time.Now()
		if k == 0 {
			start = processStart
		} else {
			r.close()
			r = nil
			runtime.GC()
			start = time.Now()
		}
		var err error
		if r, err = newRig(def, opts.seed, opts.scale, false); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer func() { r.close() }()

	var rps, heap []float64
	window := time.Duration(opts.seconds) * time.Second
	begin := time.Now()
	for i := 0; i < minUnits || time.Since(begin) < window; i++ {
		if err := r.prepare(i); err != nil {
			return nil, err
		}
		s, err := r.unit(i)
		if err != nil {
			return nil, err
		}
		rr.foldUnit(i, s)
		rps = append(rps, float64(s.requests)/s.wall.Seconds())
		if def.kind != passes {
			heap = append(heap, r.heapPerUser())
		}
	}
	if def.kind == passes {
		heap = append(heap, r.heapPerUser())
	}

	rr.Metrics = map[string]measurement{
		"setup_s":                  summarize("s", setups),
		"throughput_rps":           summarize("req/s", rps),
		"heap_live_bytes_per_user": summarize("B", heap),
	}
	if err := rr.checkDigest(opts); err != nil {
		return nil, err
	}
	rr.finish()
	return rr, nil
}
