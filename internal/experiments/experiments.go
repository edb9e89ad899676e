// Package experiments regenerates every table and figure of the Pocket
// Cloudlets paper's evaluation from the simulated system. Each
// experiment returns typed data plus a renderable Table so that
// cmd/experiments can print paper-style output and the benchmark
// harness (bench_test.go) can exercise the same code paths.
//
// The per-experiment index lives in DESIGN.md; expected-versus-measured
// values are recorded in EXPERIMENTS.md.
package experiments

import (
	"fmt"
	"io"
	"strings"

	"pocketcloudlets/internal/cachegen"
	"pocketcloudlets/internal/engine"
	"pocketcloudlets/internal/searchlog"
	"pocketcloudlets/internal/workload"
)

// Table is a rendered experiment result.
type Table struct {
	// ID is the paper artifact this reproduces ("Table 4", "Figure 17").
	ID string
	// Title describes the experiment.
	Title string
	// Columns are the header labels.
	Columns []string
	// Rows hold the formatted cells.
	Rows [][]string
	// Notes carry comparison points from the paper.
	Notes []string
}

// Render writes the table as aligned text.
func (t Table) Render(w io.Writer) {
	fmt.Fprintf(w, "%s — %s\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = pad(c, widths[i])
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintf(w, "  %s\n", strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// Lab owns the shared, lazily computed simulation state every
// log-driven experiment needs: the universe, the user population, the
// month logs, the triplet table and the evaluation cache's content, the
// replays, and the results two registry entries read.
type Lab struct {
	// Seed drives all randomness.
	Seed int64
	// Users is the community population size (defaults to the
	// calibrated workload.CommunityUsers).
	Users int
	// UsersPerClass is the replay sample per class (the paper uses
	// 100; benchmarks may use fewer).
	UsersPerClass int

	built map[string]any // see shared
}

// NewLab creates a lab. Zero values select the calibrated defaults
// (20000 users, 100 replayed users per class).
func NewLab(seed int64, users, usersPerClass int) *Lab {
	if users <= 0 {
		users = workload.CommunityUsers
	}
	if usersPerClass <= 0 {
		usersPerClass = 100
	}
	return &Lab{Seed: seed, Users: users, UsersPerClass: usersPerClass, built: make(map[string]any)}
}

// shared returns f(l), built on first use and kept under key.
func shared[R any](l *Lab, key string, f func(*Lab) R) R {
	if r, ok := l.built[key]; ok {
		return r.(R)
	}
	r := f(l)
	l.built[key] = r
	return r
}

// Universe returns the lab's corpus.
func (l *Lab) Universe() *engine.Universe {
	return shared(l, "universe", func(*Lab) *engine.Universe { return engine.MustUniverse(engine.DefaultConfig()) })
}

// Engine returns the lab's cloud engine.
func (l *Lab) Engine() *engine.Engine {
	return shared(l, "engine", func(l *Lab) *engine.Engine { return engine.New(l.Universe()) })
}

// Generator returns the lab's workload generator.
func (l *Lab) Generator() *workload.Generator {
	return shared(l, "generator", func(l *Lab) *workload.Generator {
		g, err := workload.New(workload.DefaultConfig(l.Universe(), l.Users, l.Seed))
		if err != nil {
			panic(fmt.Sprintf("experiments: generator: %v", err))
		}
		return g
	})
}

// MonthLog returns the community log for a month.
func (l *Lab) MonthLog(month int) searchlog.Log {
	return shared(l, fmt.Sprint("log ", month), func(l *Lab) searchlog.Log { return l.Generator().MonthLog(month) })
}

// Triplets returns month 0's sorted triplet table.
func (l *Lab) Triplets() searchlog.TripletTable {
	return shared(l, "triplets", func(l *Lab) searchlog.TripletTable { return searchlog.ExtractTriplets(l.MonthLog(0).Entries) })
}

// Content returns the evaluation cache's community content: month 0's
// most popular pairs up to EvalShare of the volume.
func (l *Lab) Content() cachegen.Content {
	return shared(l, "content", func(l *Lab) cachegen.Content {
		n, err := cachegen.SelectByShare(l.Triplets(), EvalShare)
		if err != nil {
			panic(fmt.Sprintf("experiments: content selection: %v", err))
		}
		return cachegen.Generate(l.Triplets(), l.Universe(), n)
	})
}

// EvalShare is the cumulative-volume share the paper's evaluation cache
// covers ("approximately 55% of the cumulative query-search result
// volume").
const EvalShare = 0.55

// percent formats a fraction as a percentage cell.
func percent(f float64) string { return fmt.Sprintf("%.1f%%", 100*f) }
