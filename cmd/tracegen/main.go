// Command tracegen generates a synthetic mobile search log in the
// plain-text interchange format of internal/searchlog — the stand-in
// for the paper's m.bing.com logs. The output can be analyzed with
// cmd/logstats.
//
// With -scenario <file|preset>, tracegen instead materializes the
// scenario's open-loop arrival schedule as a replayable request trace
// (internal/scenario trace format): every arrival with its release
// offset, user, SLO-class tag, query and click. The trace is drawn
// against the same corpus cmd/loadtest builds, so
//
//	tracegen -scenario flash-crowd -o crowd.trace
//	loadtest -scenario replay.json        # {"mode": "trace", "trace": "crowd.trace", ...}
//
// replays byte-identical per-user requests, run after run.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"

	"pocketcloudlets/internal/engine"
	"pocketcloudlets/internal/scenario"
	"pocketcloudlets/internal/searchlog"
	"pocketcloudlets/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// run is the command: args are the command line, stdout where "-o -"
// writes.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("tracegen", flag.ExitOnError)
	var (
		users   = fs.Int("users", 2000, "population size (with -scenario: overrides the spec's users)")
		seed    = fs.Int64("seed", 1, "generator seed (with -scenario: overrides the spec's seed)")
		month   = fs.Int("month", 0, "month index to generate (with -scenario: overrides the spec's month)")
		scenRef = fs.String("scenario", "", "materialize this scenario's open-loop schedule as a replayable trace instead of a search log")
		out     = fs.String("o", "-", "output file (- for stdout)")
	)
	fs.Parse(args) // exits on a bad command line

	w := stdout
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}

	if *scenRef != "" {
		spec, source, err := scenario.Load(*scenRef)
		if err != nil {
			return err
		}
		// As in cmd/loadtest, a flag set on the command line overrides
		// the key it names in the loaded spec.
		fs.Visit(func(f *flag.Flag) {
			if f.Name == "users" || f.Name == "seed" || f.Name == "month" {
				if serr := scenario.Set(spec, f.Name, f.Value.String(), false); serr != nil && err == nil {
					err = fmt.Errorf("-%s: %w", f.Name, serr)
				}
			}
		})
		if err != nil {
			return err
		}
		comp, err := scenario.Compile(spec, source)
		if err != nil {
			return err
		}
		// The corpus must match cmd/loadtest's, or the recorded queries
		// would not exist in the replaying fleet's universe.
		ucfg := scenario.UniverseConfig()
		u, err := engine.NewUniverse(ucfg)
		if err != nil {
			return err
		}
		g, err := workload.New(workload.DefaultConfig(u, spec.Users, spec.Seed))
		if err != nil {
			return err
		}
		events, err := comp.Materialize(g)
		if err != nil {
			return err
		}
		if err := scenario.WriteTrace(w, events); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %d trace events (%s, %d users, seed %d)\n",
			len(events), source, spec.Users, spec.Seed)
		return nil
	}

	u := engine.MustUniverse(engine.DefaultConfig())
	g, err := workload.New(workload.DefaultConfig(u, *users, *seed))
	if err != nil {
		return err
	}
	log := g.MonthLog(*month)

	bw := bufio.NewWriter(w)
	if err := searchlog.Write(bw, log, u); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %d entries (%d users, month %d)\n", len(log.Entries), *users, *month)
	return nil
}
