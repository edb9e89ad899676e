package experiments

import (
	"fmt"

	"pocketcloudlets/internal/analysis"
)

// Fig4TopNs are the x-axis points of the Figure 4 CDFs.
var Fig4TopNs = []int{500, 1000, 2000, 4000, 5000, 6000, 10000, 20000, 40000}

// fig4Series names one curve of Figure 4.
type fig4Series struct {
	name   string
	filter analysis.Filter
}

func fig4SeriesSet() []fig4Series {
	return []fig4Series{
		{"all", analysis.Filter{}},
		{"navigational", analysis.Filter{Nav: analysis.NavOnly}},
		{"non-navigational", analysis.Filter{Nav: analysis.NonNavOnly}},
		{"smartphone", analysis.Filter{Device: analysis.SmartphoneOnly}},
		{"featurephone", analysis.Filter{Device: analysis.FeaturephoneOnly}},
	}
}

// Fig4Result carries one Figure 4 panel: for each series, the
// cumulative volume share at each top-N.
type Fig4Result struct {
	Panel  string // "query" (4a) or "search result" (4b)
	TopNs  []int
	Series []string
	Shares [][]analysis.CDFPoint
}

// Fig4a computes the cumulative query-volume CDF (Figure 4a).
func Fig4a(l *Lab) Fig4Result {
	return fig4(l, "query", func(f analysis.Filter) []int64 {
		return analysis.QueryVolumes(l.MonthLog(0).Entries, l.Universe(), f)
	})
}

// Fig4b computes the cumulative clicked-result-volume CDF (Figure 4b).
func Fig4b(l *Lab) Fig4Result {
	return fig4(l, "search result", func(f analysis.Filter) []int64 {
		return analysis.ResultVolumes(l.MonthLog(0).Entries, l.Universe(), f)
	})
}

func fig4(l *Lab, panel string, volumes func(analysis.Filter) []int64) Fig4Result {
	r := Fig4Result{Panel: panel, TopNs: Fig4TopNs}
	for _, s := range fig4SeriesSet() {
		r.Series = append(r.Series, s.name)
		r.Shares = append(r.Shares, analysis.TopShares(volumes(s.filter), Fig4TopNs))
	}
	return r
}

// Share returns the share for a series name at a top-N, or -1.
func (r Fig4Result) Share(series string, topN int) float64 {
	for i, s := range r.Series {
		if s != series {
			continue
		}
		for _, p := range r.Shares[i] {
			if p.TopN == topN {
				return p.Share
			}
		}
	}
	return -1
}

// Table renders the panel.
func (r Fig4Result) Table() Table {
	id, plural := "Figure 4a", "queries"
	note := "paper: top 6000 queries cover ~60% of volume; navigational far more concentrated (top 5000 ~90%) than non-navigational (~30%)"
	if r.Panel == "search result" {
		id, plural = "Figure 4b", "search results"
		note = "paper: only ~4000 results are needed for the ~60% the top 6000 queries cover (misspellings and shortcuts share results)"
	}
	t := Table{
		ID:      id,
		Title:   fmt.Sprintf("Cumulative %s volume vs. most popular %s", r.Panel, plural),
		Columns: []string{"series"},
		Notes:   []string{note},
	}
	for _, n := range r.TopNs {
		t.Columns = append(t.Columns, fmt.Sprintf("top %d", n))
	}
	for i, s := range r.Series {
		row := []string{s}
		for _, p := range r.Shares[i] {
			row = append(row, percent(p.Share))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// Fig5Probs are the x-axis points of Figure 5: P(new query).
var Fig5Probs = []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}

// Fig5Result carries the Figure 5 repeatability CDF.
type Fig5Result struct {
	Probs  []float64
	Series []string
	// FracUsers[s][p]: fraction of users whose probability of
	// submitting a new query is at most Probs[p].
	FracUsers  [][]float64
	MeanRepeat float64
}

// Fig5 computes the per-user repeatability CDF over one month.
func Fig5(l *Lab) Fig5Result {
	r := Fig5Result{Probs: Fig5Probs}
	entries := l.MonthLog(0).Entries
	for _, s := range []fig4Series{
		{"all queries", analysis.Filter{}},
		{"navigational", analysis.Filter{Nav: analysis.NavOnly}},
		{"non-navigational", analysis.Filter{Nav: analysis.NonNavOnly}},
	} {
		stats := analysis.RepeatStats(entries, l.Universe(), s.filter)
		row := make([]float64, len(Fig5Probs))
		for i, p := range Fig5Probs {
			row[i] = analysis.FracUsersNewAtMost(stats, p)
		}
		r.Series = append(r.Series, s.name)
		r.FracUsers = append(r.FracUsers, row)
		if s.name == "all queries" {
			r.MeanRepeat = analysis.MeanRepeatFrac(stats)
		}
	}
	return r
}

// AtProb returns the all-queries CDF value at probability p, or -1.
func (r Fig5Result) AtProb(p float64) float64 {
	for i, pp := range r.Probs {
		if pp == p && len(r.FracUsers) > 0 {
			return r.FracUsers[0][i]
		}
	}
	return -1
}

// Table renders the CDF.
func (r Fig5Result) Table() Table {
	t := Table{
		ID:      "Figure 5",
		Title:   "Fraction of users vs. probability of submitting a new query (1 month)",
		Columns: []string{"series"},
		Notes: []string{
			"paper: ~50% of users submit a new query at most 30% of the time (>=70% repeats)",
			fmt.Sprintf("measured mean repeat rate: %s (paper: 56.5%% mobile vs ~40%% desktop)", percent(r.MeanRepeat)),
		},
	}
	for _, p := range r.Probs {
		t.Columns = append(t.Columns, fmt.Sprintf("<=%.1f", p))
	}
	for i, s := range r.Series {
		row := []string{s}
		for _, f := range r.FracUsers[i] {
			row = append(row, percent(f))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// Table3Result carries the head of the community triplet table.
type Table3Result struct {
	Rows        []Table3Row
	TotalVolume int64
}

// Table3Row is one materialized triplet.
type Table3Row struct {
	Query  string
	URL    string
	Volume int64
}

// Table3 extracts the most popular (query, search result, volume)
// triplets from the community logs.
func Table3(l *Lab, topN int) Table3Result {
	tbl := l.Triplets()
	u := l.Universe()
	if topN > len(tbl.Triplets) {
		topN = len(tbl.Triplets)
	}
	r := Table3Result{TotalVolume: tbl.TotalVolume}
	for _, tr := range tbl.Triplets[:topN] {
		r.Rows = append(r.Rows, Table3Row{
			Query:  u.QueryText(u.QueryOf(tr.Pair)),
			URL:    u.ResultURL(u.ResultOf(tr.Pair)),
			Volume: tr.Volume,
		})
	}
	return r
}

// Table renders the triplets.
func (r Table3Result) Table() Table {
	t := Table{
		ID:      "Table 3",
		Title:   "Most popular (query, search result, volume) triplets",
		Columns: []string{"query", "search result", "volume"},
		Notes:   []string{fmt.Sprintf("total volume: %d", r.TotalVolume)},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{row.Query, row.URL, fmt.Sprintf("%d", row.Volume)})
	}
	return t
}

// Table6Result carries the measured user-class shares.
type Table6Result struct {
	Shares []analysis.BracketShare
}

// Table6 classifies the generated population by monthly query volume.
func Table6(l *Lab) Table6Result {
	volumes := analysis.MonthlyVolumes(l.MonthLog(0).Entries)
	return Table6Result{Shares: analysis.ClassShares(volumes, analysis.Table6Brackets())}
}

// Table renders the classification.
func (r Table6Result) Table() Table {
	t := Table{
		ID:      "Table 6",
		Title:   "Classes of users by monthly query volume",
		Columns: []string{"user class", "monthly query volume", "% of users"},
		Notes:   []string{"paper: 55% / 36% / 8% / 1%"},
	}
	for _, s := range r.Shares {
		bracket := fmt.Sprintf("[%d, %d)", s.Bracket.Min, s.Bracket.Max)
		if s.Bracket.Max >= 1<<29 {
			bracket = fmt.Sprintf("[%d, inf)", s.Bracket.Min)
		}
		t.Rows = append(t.Rows, []string{s.Bracket.Name, bracket, percent(s.Share)})
	}
	return t
}
