// Command bench is the repository benchmark: four workloads over the
// fleet serving stack, end-to-end metrics from a timed pass with
// tracing off, per-layer metrics from a separate traced pass, and a
// digest of every simulated statistic held against committed goldens.
// README.md in this directory documents workloads, metrics and the
// repository surface the benchmark stands on.
//
// Usage (from the repository root, building into .bench_build/):
//
//	bash bench/run.sh                         # all workloads, both passes
//	bash bench/run.sh -workload hit_closed -trace 0
//	bash bench/run.sh -compare old.json new.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
)

func main() {
	var (
		workload     = flag.String("workload", "", "run one workload (hit_closed, cold_fill, fault_hedge, day_replay); empty runs all four, each in its own process")
		seed         = flag.Int64("seed", 1, "seed for every generator: workload streams, arrivals, faults, backend")
		seconds      = flag.Int("seconds", 12, "length of one workload's measured window")
		trace        = flag.String("trace", "", "0 = timed pass (end-to-end metrics), 1 = traced pass (per-layer metrics); empty runs both")
		spans        = flag.String("spans", "", "write the traced pass's spans to this file (JSON)")
		out          = flag.String("out", "", "write the run's full record to this file (JSON)")
		compare      = flag.Bool("compare", false, "compare two results files: -compare old.json new.json")
		updateGolden = flag.Bool("update-golden", false, "rewrite golden/<workload>.seed<N>.json from this run's digests")
	)
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatalf("usage: -compare old.json new.json")
		}
		os.Exit(compareFiles(flag.Arg(0), flag.Arg(1), os.Stdout))
	}
	if flag.NArg() != 0 {
		fatalf("unexpected arguments: %v", flag.Args())
	}
	if *seconds < 1 {
		fatalf("-seconds must be at least 1, got %d", *seconds)
	}
	if *trace != "" && *trace != "0" && *trace != "1" {
		fatalf("-trace must be 0 or 1, got %q", *trace)
	}

	if *workload == "" {
		os.Exit(runAll(*seed, *seconds, *trace, *updateGolden))
	}
	def := workloadByName(*workload)
	if def == nil {
		fatalf("unknown workload %q", *workload)
	}
	if *trace == "" {
		fatalf("-workload needs -trace 0 or -trace 1 (one pass per process)")
	}
	opts := runOptions{
		seed: *seed, seconds: *seconds, traced: *trace == "1", scale: 1,
		spansPath: *spans, updateGolden: *updateGolden,
	}
	os.Exit(runOne(def, opts, *out))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

// runOne runs one pass of one workload in this process, prints its
// metrics, and ends standard output with the one-line JSON result.
func runOne(def *workloadDef, opts runOptions, outPath string) int {
	run := runTimed
	if opts.traced {
		run = runTraced
	}
	rr, err := run(def, opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", def.name, err)
		return 1
	}
	if opts.updateGolden && rr.Correct {
		if err := writeGolden(benchDir(), def.name, opts.seed, rr.Digest); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
	}
	printRecord(os.Stdout, rr)
	if outPath != "" {
		data, err := json.Marshal(rr)
		if err == nil {
			err = os.WriteFile(outPath, data, 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
	}
	fmt.Println(contractLine(rr))
	if !rr.Correct {
		return 1
	}
	return 0
}

// printRecord lists every metric by name with its unit, and the
// quartiles of those measured more than once.
func printRecord(w io.Writer, rr *runRecord) {
	pass := "timed"
	defs := endToEnd
	if rr.Traced {
		pass, defs = "traced", perLayer
	}
	fmt.Fprintf(w, "%s  seed %d  %s pass  %d units  %d requests  %d failed\n",
		rr.Workload, rr.Seed, pass, rr.Units, rr.Attempted, rr.Failed)
	for _, d := range defs {
		m, ok := rr.Metrics[d.Name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "  %-36s %16.6g %-8s", d.Name, m.Value, m.Unit)
		if len(m.Raw) > 1 {
			fmt.Fprintf(w, "  q1 %.6g  q3 %.6g  n %d", m.Q1, m.Q3, len(m.Raw))
		}
		fmt.Fprintln(w)
	}
	for _, p := range rr.Problems {
		fmt.Fprintf(w, "  PROBLEM: %s\n", p)
	}
}

// contractLine renders the result as the one JSON object the benchmark
// contract reads from the last line of standard output.
func contractLine(rr *runRecord) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(rr.Metrics))
	for name, m := range rr.Metrics {
		metrics[name] = value{m.Value, m.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rr.Correct, rr.Attempted, rr.Failed, metrics})
	if err != nil {
		// Only non-finite floats can fail to marshal; name them.
		var bad []string
		for name, m := range rr.Metrics {
			if _, err := json.Marshal(m.Value); err != nil {
				bad = append(bad, name)
			}
		}
		sort.Strings(bad)
		fatalf("metrics are not finite: %v", bad)
	}
	return string(line)
}

// benchDir is the benchmark's own directory: run.sh exports it; a bare
// `go run .` from inside the directory falls back to the working
// directory.
func benchDir() string {
	if d := os.Getenv("BENCH_DIR"); d != "" {
		return d
	}
	return "."
}
