package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// resultsFile is what a full run leaves under results/: enough to
// re-read every number, and what -compare takes two of.
type resultsFile struct {
	UTC        string             `json:"utc"`
	Commit     string             `json:"commit"`
	GoVersion  string             `json:"go_version"`
	NumCPU     int                `json:"nproc"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	Seed       int64              `json:"seed"`
	Seconds    int                `json:"seconds"`
	Bounds     map[string]float64 `json:"bounds"`
	Runs       []*runRecord       `json:"runs"`
}

// runAll runs every workload, each pass in a fresh child process so
// that heap, collector state and set-up time are not coloured by the
// workload before it. It prints every metric, writes the results file,
// and returns the process exit code.
func runAll(seed int64, seconds int, trace string, updateGolden bool) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	resultsDir := filepath.Join(benchDir(), "results")
	if err := os.MkdirAll(resultsDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	passes := []string{"0", "1"}
	if trace != "" {
		passes = []string{trace}
	}
	res := resultsFile{
		UTC:        time.Now().UTC().Format("20060102T150405Z"),
		Commit:     commit(),
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed:       seed,
		Seconds:    seconds,
		Bounds:     make(map[string]float64),
	}
	for _, d := range endToEnd {
		res.Bounds[d.Name] = d.Bound
	}

	code := 0
	for _, def := range workloads {
		for _, pass := range passes {
			tmp := filepath.Join(resultsDir, fmt.Sprintf(".run-%s-%s.json", def.name, pass))
			args := []string{
				"-workload", def.name, "-seed", strconv.FormatInt(seed, 10),
				"-seconds", strconv.Itoa(seconds), "-trace", pass, "-out", tmp,
			}
			if updateGolden {
				args = append(args, "-update-golden")
			}
			cmd := exec.Command(self, args...)
			cmd.Stderr = os.Stderr
			// The child's own listing is the record printed below.
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s (trace %s): %v\n", def.name, pass, err)
				code = 1
			}
			data, err := os.ReadFile(tmp)
			if err != nil {
				// The child failed before it had a record to write.
				continue
			}
			_ = os.Remove(tmp) // a leftover scratch file is harmless
			rr := new(runRecord)
			if err := json.Unmarshal(data, rr); err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", tmp, err)
				code = 1
				continue
			}
			printRecord(os.Stdout, rr)
			res.Runs = append(res.Runs, rr)
		}
	}

	path := filepath.Join(resultsDir, res.UTC+".json")
	data, err := json.Marshal(res)
	if err == nil {
		err = os.WriteFile(path, append(data, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Printf("wrote %s\n", path)
	return code
}

// commit names the checkout being measured, when it is one.
func commit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
