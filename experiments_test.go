package pocketcloudlets_test

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// An EXPERIMENTS.md section that claims a measured change keeps its raw
// runs in a data file, testdata/experiments/<name>.json: alternating
// parent/change pairs of one command, grouped by workload and seed.
// TestExperimentsMatchData re-derives the section's table — medians,
// quartiles, ratios and pair wins — from that file, so neither the file
// nor the published numbers can drift from the other.

type experimentFile struct {
	// Section is the EXPERIMENTS.md heading, without "## ".
	Section string            `json:"section"`
	Groups  []experimentGroup `json:"groups"`
}

type experimentGroup struct {
	// Label names the workload (and anything else the command varied).
	Label string `json:"label"`
	Seed  int    `json:"seed"` // 0 for a go benchmark
	// Metrics are the rows the section publishes for this group, in order.
	Metrics []string `json:"metrics"`
	Pairs   []struct {
		// First is the side that ran first: "parent" on odd pairs.
		First  string             `json:"first"`
		Parent map[string]float64 `json:"parent"`
		Change map[string]float64 `json:"change"`
	} `json:"pairs"`
}

// experimentMetrics says which way each published metric improves and
// how the table prints it.
var experimentMetrics = map[string]struct {
	higherBetter bool
	format       func(float64) string
}{
	"throughput_rps":           {true, withThousands},
	"heap_live_bytes_per_user": {false, withThousands},
	"setup_s":                  {false, func(v float64) string { return fmt.Sprintf("%.3f", v) }},
	"ns_per_op":                {false, withThousands},
	"ns_per_draw":              {false, func(v float64) string { return fmt.Sprintf("%.2f", v) }},
	"arrivals_per_op":          {false, func(v float64) string { return fmt.Sprintf("%.1f", v) }},
	"arrivals_per_price":       {false, func(v float64) string { return fmt.Sprintf("%.1f", v) }},
	"served_qps":               {true, withThousands},
	"wall_p99_ms":              {false, func(v float64) string { return fmt.Sprintf("%.2f", v) }},
	"resize_wall_ms":           {false, func(v float64) string { return fmt.Sprintf("%.1f", v) }},
	"max_schedule_lag_ms":      {false, func(v float64) string { return fmt.Sprintf("%.1f", v) }},
	"served":                   {true, withThousands},
	"retries":                  {false, withThousands},
	"unavailable":              {false, withThousands},
}

func TestExperimentsMatchData(t *testing.T) {
	doc, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join("testdata", "experiments", "*.json"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no experiment data files: %v", err)
	}
	for _, path := range files {
		t.Run(filepath.Base(path), func(t *testing.T) {
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var ef experimentFile
			if err := json.Unmarshal(raw, &ef); err != nil {
				t.Fatal(err)
			}
			want := experimentRows(t, &ef)
			got := sectionRows(string(doc), ef.Section)
			if got == nil {
				t.Fatalf("EXPERIMENTS.md has no section %q with a table", ef.Section)
			}
			for i := 0; i < len(want) || i < len(got); i++ {
				var w, g string
				if i < len(want) {
					w = want[i]
				}
				if i < len(got) {
					g = got[i]
				}
				if w != g {
					t.Errorf("row %d drifted from %s\n  doc:  %s\n  data: %s", i+1, path, g, w)
				}
			}
		})
	}
}

// experimentRows computes the table rows a data file backs.
func experimentRows(t *testing.T, ef *experimentFile) []string {
	t.Helper()
	var rows []string
	for _, g := range ef.Groups {
		for i, p := range g.Pairs {
			if want := [2]string{"parent", "change"}[i%2]; p.First != want {
				t.Errorf("%s seed %d pair %d: %s ran first, want %s (sides alternate)", g.Label, g.Seed, i+1, p.First, want)
			}
		}
		for _, name := range g.Metrics {
			m, ok := experimentMetrics[name]
			if !ok {
				t.Fatalf("%s: unknown metric %q", g.Label, name)
			}
			var parent, change []float64
			wins := 0
			for i, p := range g.Pairs {
				a, okA := p.Parent[name]
				b, okB := p.Change[name]
				if !okA || !okB {
					t.Fatalf("%s seed %d pair %d lacks %s", g.Label, g.Seed, i+1, name)
				}
				parent, change = append(parent, a), append(change, b)
				if (m.higherBetter && b > a) || (!m.higherBetter && b < a) {
					wins++
				}
			}
			pq1, pm, pq3 := quartiles(parent)
			cq1, cm, cq3 := quartiles(change)
			seed := "–" // a go benchmark takes no seed
			if g.Seed != 0 {
				seed = fmt.Sprint(g.Seed)
			}
			rows = append(rows, fmt.Sprintf("| %s | %s | %s | %d | %s [%s, %s] | %s [%s, %s] | %.3f× | %d/%d |",
				g.Label, seed, name, len(g.Pairs),
				m.format(pm), m.format(pq1), m.format(pq3),
				m.format(cm), m.format(cq1), m.format(cq3),
				cm/pm, wins, len(g.Pairs)))
		}
	}
	return rows
}

// sectionRows returns the data rows of the first table under the heading
// "## section", nil when there is none.
func sectionRows(doc, section string) []string {
	_, body, ok := strings.Cut(doc, "\n## "+section+"\n")
	if !ok {
		return nil
	}
	body, _, _ = strings.Cut(body, "\n## ")
	var rows []string
	seen := 0
	for _, line := range strings.Split(body, "\n") {
		if !strings.HasPrefix(line, "|") {
			if len(rows) > 0 {
				break
			}
			continue
		}
		if seen++; seen > 2 { // past the header and its rule
			rows = append(rows, line)
		}
	}
	return rows
}

// quartiles are the cut points of Python's statistics.quantiles(n=4),
// the exclusive method the repository benchmark reports.
func quartiles(values []float64) (q1, q2, q3 float64) {
	n := len(values)
	if n < 2 {
		return values[0], values[0], values[0]
	}
	d := append([]float64(nil), values...)
	sort.Float64s(d)
	cut := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// withThousands prints v rounded to a whole number with comma separators.
func withThousands(v float64) string {
	s := fmt.Sprintf("%.0f", v)
	for i := len(s) - 3; i > 0 && s[i-1] != '-'; i -= 3 {
		s = s[:i] + "," + s[i:]
	}
	return s
}
