// Command experiments regenerates every table and figure of the Pocket
// Cloudlets paper from the simulated system, and holds each result to
// the paper's checks.
//
// Usage:
//
//	experiments                 # run everything (about a minute)
//	experiments -run fig17      # run one experiment
//	experiments -list           # list experiment names
//	experiments -quick          # smaller replay samples (faster)
//
// Each experiment's rows of the paper's checks (experiments.Check) are
// evaluated on the result its table renders. A row that fails is printed
// on stderr with its claim, computed value, bound and paper value. The
// exit status is 0 when every row of every experiment run holds, 1 when
// a row failed (the tables are all printed first), and 2 for a usage
// error.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"pocketcloudlets/internal/experiments"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		names = fs.String("run", "", "comma-separated experiment names (default: all)")
		list  = fs.Bool("list", false, "list experiment names and exit")
		quick = fs.Bool("quick", false, "use smaller replay samples for faster runs")
		seed  = fs.Int64("seed", 1, "simulation seed")
		users = fs.Int("users", 0, "community population size (0 = calibrated default)")
	)
	if err := fs.Parse(args); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2
	}

	if *list {
		for _, s := range experiments.All() {
			heavy := ""
			if s.Heavy {
				heavy = " (heavy)"
			}
			fmt.Fprintf(stdout, "  %-20s %s%s\n", s.Name, s.ID, heavy)
		}
		return 0
	}

	usersPerClass := 100
	if *quick {
		usersPerClass = 25
	}
	lab := experiments.NewLab(*seed, *users, usersPerClass)

	var specs []experiments.Spec
	if *names == "" {
		specs = experiments.All()
	} else {
		for _, name := range strings.Split(*names, ",") {
			s, ok := experiments.Find(strings.TrimSpace(name))
			if !ok {
				fmt.Fprintf(stderr, "unknown experiment %q (use -list)\n", name)
				return 2
			}
			specs = append(specs, s)
		}
	}
	return runSpecs(lab, specs, stdout, stderr)
}

// runSpecs runs each spec on the lab, renders its table on stdout and
// reports each of its failed checks on stderr. It returns 1 if a check
// failed.
func runSpecs(lab *experiments.Lab, specs []experiments.Spec, stdout, stderr io.Writer) int {
	start := time.Now()
	failed := 0
	for _, s := range specs {
		t0 := time.Now()
		table, checks := s.Run(lab)
		table.Notes = append(table.Notes, fmt.Sprintf("computed in %v", time.Since(t0).Round(time.Millisecond)))
		table.Render(stdout)
		for _, c := range checks {
			if !c.Holds() {
				fmt.Fprintf(stderr, "experiments: %s: check failed: %s\n", s.Name, c)
				failed++
			}
		}
	}
	fmt.Fprintf(stdout, "total: %v\n", time.Since(start).Round(time.Millisecond))
	if failed > 0 {
		fmt.Fprintf(stderr, "experiments: %d of the paper's checks failed\n", failed)
		return 1
	}
	return 0
}
