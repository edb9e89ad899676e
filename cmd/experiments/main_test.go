package main

import (
	"bytes"
	"regexp"
	"strings"
	"testing"

	"pocketcloudlets/internal/experiments"
)

// timing matches the wall-clock lines a run prints.
var timing = regexp.MustCompile(`(?m)^(  note: computed in |total: ).*\n`)

// TestLightExperimentsPass runs the experiments that build no month
// log: every row holds, and stdout is their rendered tables.
func TestLightExperimentsPass(t *testing.T) {
	names := []string{"table1", "fig2", "table2", "fig12", "ablation-threetier", "ablation-eviction"}
	var stdout, stderr, want bytes.Buffer
	if code := run([]string{"-run", strings.Join(names, ",")}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
	}
	for _, name := range names {
		s, _ := experiments.Find(name)
		table, _ := s.Run(nil)
		table.Render(&want)
	}
	if got := timing.ReplaceAllString(stdout.String(), ""); got != want.String() {
		t.Errorf("stdout is not the rendered tables:\n%s", got)
	}
}

// TestFailedCheckExits1 feeds the reporter a failing row.
func TestFailedCheckExits1(t *testing.T) {
	spec := experiments.Spec{Name: "synthetic", Run: func(*experiments.Lab) (experiments.Table, []experiments.Check) {
		return experiments.Table{ID: "X"}, []experiments.Check{
			{Claim: "held", Paper: "1", Got: 1, Bound: experiments.Exactly(1)},
			{Claim: "answer (s)", Paper: "~42 s", Got: 41.5, Bound: experiments.In(40, 41), Deviation: 7},
		}
	}}
	var stdout, stderr bytes.Buffer
	if code := runSpecs(nil, []experiments.Spec{spec}, &stdout, &stderr); code != 1 {
		t.Errorf("exit %d, want 1", code)
	}
	want := "experiments: synthetic: check failed: answer (s) = 41.5, want [40, 41] (paper: ~42 s; EXPERIMENTS.md known deviation 7)\n" +
		"experiments: 1 of the paper's checks failed\n"
	if stderr.String() != want {
		t.Errorf("stderr:\n%s\nwant:\n%s", stderr.String(), want)
	}
	if code := run([]string{"-run", "nope"}, &stdout, &stderr); code != 2 {
		t.Errorf("unknown experiment: exit %d, want 2", code)
	}
}
