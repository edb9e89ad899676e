package experiments

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"pocketcloudlets/internal/analysis"
)

func TestTableRender(t *testing.T) {
	tbl := Table{
		ID:      "Table X",
		Title:   "demo",
		Columns: []string{"a", "bb"},
		Rows:    [][]string{{"1", "2"}, {"333", "4"}},
		Notes:   []string{"note"},
	}
	var buf bytes.Buffer
	tbl.Render(&buf)
	out := buf.String()
	for _, want := range []string{"Table X", "demo", "333", "note:"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q:\n%s", want, out)
		}
	}
}

func TestRegistryComplete(t *testing.T) {
	// The registry is cmd/experiments' -list surface, and every paper
	// artifact has an experiment: adding, removing, renaming or
	// reordering one is an edit here too.
	want := []string{
		"table1 Table 1", "fig2 Figure 2", "table2 Table 2", "fig4a Figure 4a", "fig4b Figure 4b",
		"fig5 Figure 5", "table3 Table 3", "fig7 Figure 7", "fig8 Figure 8", "fig11 Figure 11",
		"fig12 Figure 12", "table4 Table 4", "fig15a Figure 15a", "fig15b Figure 15b", "fig16 Figure 16",
		"table5 Table 5", "table6 Table 6", "fig17 Figure 17", "fig18 Figure 18", "fig19 Figure 19",
		"dailyupdates Section 6.2.2", "ablation-shared Ablation", "ablation-decay Ablation",
		"ablation-threetier Ablation", "ablation-eviction Ablation", "ext-autocomplete Extension",
	}
	var got []string
	for _, s := range All() {
		got = append(got, s.Name+" "+s.ID)
	}
	if !slices.Equal(got, want) {
		t.Errorf("experiments:\n got %q\nwant %q", got, want)
	}
}

// heldBy names the test that holds each experiment's rows of the
// paper's checks. Every registry entry is here; TestPaperChecks holds
// the rows of an experiment that no figure's test claims.
var heldBy = map[string]string{
	"table1": "TestTable1Shape", "fig2": "TestFig2Shape", "table2": "TestTable2Shape",
	"fig4a": "TestFig4Shapes", "fig4b": "TestFig4Shapes", "fig5": "TestFig5Shape",
	"table3": "TestTable3Shape", "fig7": "TestFig7Shape", "fig8": "TestFig8Shape",
	"fig11": "TestFig11TwoSlotsOptimal", "fig12": "TestFig12Knee", "table4": "TestTable4Shape",
	"fig15a": "TestFig15Ratios", "fig15b": "TestFig15Ratios", "fig16": "TestFig16Shape",
	"table5": "TestTable5Shape", "table6": "TestTable6Shape", "fig17": "TestFig17Shapes",
	"fig18": "TestFig18Warmup", "fig19": "TestFig19Trend", "dailyupdates": "TestDailyUpdatesNeutralOrBetter",
	"ablation-shared": "TestAblationShapes", "ablation-decay": "TestAblationDecayInsensitiveHitRate",
	"ablation-threetier": "TestAblationShapes", "ablation-eviction": "TestAblationShapes",
	"ext-autocomplete": "TestPaperChecks",
}

// testLab is built once for the whole package: experiments share the
// generated logs and replays exactly as cmd/experiments does.
var testLab = sync.OnceValue(func() *Lab { return NewLab(1, 0, 40) })

// knownDeviations is EXPERIMENTS.md's "Known deviations" section.
var knownDeviations = sync.OnceValues(func() (string, error) {
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	_, deviations, _ := strings.Cut(string(doc), "## Known deviations")
	return deviations, err
})

// holdRows runs the experiments heldBy names for the calling test on
// the shared lab and holds each of their rows, one subtest a row, and
// each known deviation a row names to be listed in EXPERIMENTS.md. The
// heavy experiments generate month-scale logs and are left out under
// -short.
func holdRows(t *testing.T) {
	deviations, err := knownDeviations()
	if err != nil {
		t.Fatal(err)
	}
	held, skipped := 0, 0
	for _, s := range All() {
		if heldBy[s.Name] != t.Name() {
			continue
		}
		if held++; s.Heavy && testing.Short() {
			skipped++
			continue
		}
		_, checks := s.Run(testLab())
		for _, c := range checks {
			t.Run(s.Name+"/"+c.Claim, func(t *testing.T) {
				if !c.Holds() {
					t.Error(c)
				}
				if c.Deviation != 0 && !strings.Contains(deviations, fmt.Sprintf("\n%d. **", c.Deviation)) {
					t.Errorf("EXPERIMENTS.md lists no known deviation %d", c.Deviation)
				}
			})
		}
	}
	switch {
	case held == 0:
		t.Fatalf("no experiment is held by %s", t.Name())
	case skipped == held:
		t.Skip("experiment tests generate month-scale logs")
	}
}

// TestPaperChecks holds that every experiment's rows are held by a
// test, and holds the rows of those no figure's test claims.
func TestPaperChecks(t *testing.T) {
	for _, s := range All() {
		if _, ok := heldBy[s.Name]; !ok {
			t.Errorf("no test holds the rows of %s", s.Name)
		}
	}
	if len(heldBy) != len(All()) {
		t.Errorf("heldBy names %d experiments, the registry has %d", len(heldBy), len(All()))
	}
	holdRows(t)
}

func TestTable1Shape(t *testing.T)                     { holdRows(t) }
func TestFig2Shape(t *testing.T)                       { holdRows(t) }
func TestTable2Shape(t *testing.T)                     { holdRows(t) }
func TestFig4Shapes(t *testing.T)                      { holdRows(t) }
func TestFig5Shape(t *testing.T)                       { holdRows(t) }
func TestTable3Shape(t *testing.T)                     { holdRows(t) }
func TestFig7Shape(t *testing.T)                       { holdRows(t) }
func TestFig8Shape(t *testing.T)                       { holdRows(t) }
func TestFig11TwoSlotsOptimal(t *testing.T)            { holdRows(t) }
func TestFig12Knee(t *testing.T)                       { holdRows(t) }
func TestTable4Shape(t *testing.T)                     { holdRows(t) }
func TestFig15Ratios(t *testing.T)                     { holdRows(t) }
func TestFig16Shape(t *testing.T)                      { holdRows(t) }
func TestTable5Shape(t *testing.T)                     { holdRows(t) }
func TestTable6Shape(t *testing.T)                     { holdRows(t) }
func TestFig17Shapes(t *testing.T)                     { holdRows(t) }
func TestFig18Warmup(t *testing.T)                     { holdRows(t) }
func TestFig19Trend(t *testing.T)                      { holdRows(t) }
func TestDailyUpdatesNeutralOrBetter(t *testing.T)     { holdRows(t) }
func TestAblationShapes(t *testing.T)                  { holdRows(t) }
func TestAblationDecayInsensitiveHitRate(t *testing.T) { holdRows(t) }

func TestBoundEnds(t *testing.T) {
	for _, c := range []struct {
		b    Bound
		x    float64
		want bool
	}{
		{In(1, 2), 1, true}, {In(1, 2), 2, true}, {In(1, 2), 2.5, false},
		{AtLeast(1), 1, true}, {AtMost(1), 1, true}, {AtMost(1), 1.5, false},
		{Above(1), 1, false}, {Above(1), 1.5, true}, {Below(1), 1, false}, {Below(1), 0.5, true},
		{Exactly(2), 2, true}, {Exactly(2), 3, false}, {AtLeast(0), math.NaN(), false},
	} {
		if got := c.b.Holds(c.x); got != c.want {
			t.Errorf("%v holds %v = %v, want %v", c.b, c.x, got, c.want)
		}
	}
}

// TestAccessorSentinels holds what the accessors answer for a point a
// result does not have.
func TestAccessorSentinels(t *testing.T) {
	f4 := Fig4Result{Series: []string{"all"}, Shares: [][]analysis.CDFPoint{{{TopN: 10, Share: 0.5}}}}
	if got := f4.Share("missing-series", 10); got != -1 {
		t.Errorf("unknown series share = %v, want -1", got)
	}
	f5 := Fig5Result{Probs: Fig5Probs, FracUsers: [][]float64{make([]float64, len(Fig5Probs))}}
	if got := f5.AtProb(0.123); got != -1 {
		t.Errorf("unknown prob = %v, want -1", got)
	}
	f12 := Fig12Result{Files: Fig12Files, MeanFetch: make([]time.Duration, len(Fig12Files))}
	if _, ok := f12.FetchAt(999); ok {
		t.Error("unknown file count should miss")
	}
}
