package experiments

import (
	"fmt"
	"sort"
	"time"

	"pocketcloudlets/internal/cachegen"
	"pocketcloudlets/internal/replay"
	"pocketcloudlets/internal/searchlog"
	"pocketcloudlets/internal/workload"
)

// runReplay executes (and keeps) one Figure 17 replay configuration;
// Figures 17, 18 and 19 all read from the same three replays.
func (l *Lab) runReplay(mode replay.Mode) replay.Result {
	return shared(l, "replay "+mode.String(), func(l *Lab) replay.Result {
		res, err := replay.Run(replay.Config{
			Gen:           l.Generator(),
			Content:       l.Content(),
			Mode:          mode,
			UsersPerClass: l.UsersPerClass,
			Month:         1,
		})
		if err != nil {
			panic(fmt.Sprintf("experiments: replay: %v", err))
		}
		return res
	})
}

// Fig17Result carries per-mode, per-class hit rates.
type Fig17Result struct {
	Modes   []replay.Mode
	Results []replay.Result
}

// Fig17 replays the month-1 streams of sampled users of every class
// against the month-0 cache in the full, community-only and
// personalization-only configurations.
func Fig17(l *Lab) Fig17Result {
	var r Fig17Result
	for _, m := range replay.Modes() {
		r.Modes = append(r.Modes, m)
		r.Results = append(r.Results, l.runReplay(m))
	}
	return r
}

// Rate returns the hit rate for a mode and class.
func (r Fig17Result) Rate(mode replay.Mode, class workload.Class) float64 {
	for i, m := range r.Modes {
		if m == mode {
			return r.Results[i].ClassRate(class)
		}
	}
	return 0
}

// Average returns the mode's class-averaged hit rate.
func (r Fig17Result) Average(mode replay.Mode) float64 {
	for i, m := range r.Modes {
		if m == mode {
			return meanRate(r.Results[i])
		}
	}
	return 0
}

// meanRate is a replay's class-averaged hit rate.
func meanRate(res replay.Result) float64 {
	var sum float64
	for _, cr := range res.Classes {
		sum += cr.HitRate
	}
	return sum / float64(len(res.Classes))
}

// Table renders the hit rates.
func (r Fig17Result) Table() Table {
	t := Table{
		ID:      "Figure 17",
		Title:   "PocketSearch average cache hit rate per user class",
		Columns: []string{"configuration", "low", "medium", "high", "extreme", "average"},
		Notes: []string{
			"paper: full ~60/70/75/75 (avg 65%); community-only avg 55%, rising with volume; personalization-only avg 56.5%",
		},
	}
	for i, m := range r.Modes {
		row := []string{m.String()}
		for _, c := range workload.Classes() {
			row = append(row, percent(r.Results[i].ClassRate(c)))
		}
		row = append(row, percent(r.Average(m)))
		t.Rows = append(t.Rows, row)
	}
	return t
}

// Fig18Result carries the warm-up dynamics: cumulative hit rates after
// week one and after weeks one-two, per mode and class.
type Fig18Result struct {
	Modes []replay.Mode
	// Week1[m][c] and Weeks12[m][c] index by mode then class.
	Week1   [][]float64
	Weeks12 [][]float64
}

// Fig18 computes the Figure 18 warm-up curves from the same replays.
func Fig18(l *Lab) Fig18Result {
	var r Fig18Result
	for _, m := range replay.Modes() {
		res := l.runReplay(m)
		var w1, w12 []float64
		for _, cr := range res.Classes {
			w1 = append(w1, cr.CumWeekHitRate[0])
			w12 = append(w12, cr.CumWeekHitRate[1])
		}
		r.Modes = append(r.Modes, m)
		r.Week1 = append(r.Week1, w1)
		r.Weeks12 = append(r.Weeks12, w12)
	}
	return r
}

// week1 returns a mode's week-one hit rates by class, or nil.
func (r Fig18Result) week1(mode replay.Mode) []float64 {
	for i, m := range r.Modes {
		if m == mode {
			return r.Week1[i]
		}
	}
	return nil
}

// Table renders both panels.
func (r Fig18Result) Table() Table {
	t := Table{
		ID:      "Figure 18",
		Title:   "Average cache hit rate during the first week (a) and first two weeks (b)",
		Columns: []string{"configuration", "window", "low", "medium", "high", "extreme"},
		Notes: []string{
			"paper: the community component provides the warm start; personalization lags it during week one, especially for light users",
		},
	}
	for i, m := range r.Modes {
		row1 := []string{m.String(), "week 1"}
		row2 := []string{m.String(), "weeks 1-2"}
		for c := range workload.Classes() {
			row1 = append(row1, percent(r.Week1[i][c]))
			row2 = append(row2, percent(r.Weeks12[i][c]))
		}
		t.Rows = append(t.Rows, row1, row2)
	}
	return t
}

// Fig19Result carries the navigational share of hits per class.
type Fig19Result struct {
	Classes  []workload.Class
	NavShare []float64
}

// Fig19 breaks the full configuration's cache hits into navigational
// and non-navigational per class.
func Fig19(l *Lab) Fig19Result {
	res := l.runReplay(replay.Full)
	var r Fig19Result
	for _, cr := range res.Classes {
		r.Classes = append(r.Classes, cr.Class)
		r.NavShare = append(r.NavShare, cr.NavShare)
	}
	return r
}

// Table renders the breakdown.
func (r Fig19Result) Table() Table {
	t := Table{
		ID:      "Figure 19",
		Title:   "Breakdown of cache hits into navigational and non-navigational",
		Columns: []string{"user class", "navigational", "non-navigational"},
		Notes: []string{
			"paper: ~59% of hits are navigational on average; high/extreme classes have markedly higher non-navigational shares",
		},
	}
	for i, c := range r.Classes {
		t.Rows = append(t.Rows, []string{
			c.String(), percent(r.NavShare[i]), percent(1 - r.NavShare[i]),
		})
	}
	return t
}

// DailyUpdatesResult compares static and daily-updated caches.
type DailyUpdatesResult struct {
	StaticAvg float64
	DailyAvg  float64
	// ChangedPairsPerDay is the mean size of the daily popular-set
	// delta (adds + removes).
	ChangedPairsPerDay float64
}

// DailyUpdates reproduces the Section 6.2.2 experiment: the community
// popular set is re-extracted daily from a sliding window that absorbs
// the replay month's traffic, and the per-day delta is applied to each
// user's cache. The paper measured a 1.5-point improvement (66% vs 65%)
// because the popular set changes little within a month.
func DailyUpdates(l *Lab) DailyUpdatesResult {
	static := l.runReplay(replay.Full)

	// Build per-day popular sets over month0 + month1[:day].
	month1 := l.MonthLog(1).Entries
	sort.Slice(month1, func(i, j int) bool { return month1[i].At < month1[j].At })
	counts := make(map[searchlog.PairID]int64, 1<<20)
	var totalVolume int64
	for _, e := range l.MonthLog(0).Entries {
		counts[e.Pair]++
		totalVolume++
	}
	deltas := make([]replay.Delta, 31)
	prevSet := contentPairSet(l.Content())
	idx := 0
	totalChanged := 0
	for day := 1; day <= 30; day++ {
		cutoff := time.Duration(day) * 24 * time.Hour
		for idx < len(month1) && month1[idx].At < cutoff {
			counts[month1[idx].Pair]++
			totalVolume++
			idx++
		}
		tbl := tableFromCounts(counts, totalVolume)
		n, err := cachegen.SelectByShare(tbl, EvalShare)
		if err != nil {
			panic(err)
		}
		content := cachegen.Generate(tbl, l.Universe(), n)
		newSet := contentPairSet(content)
		delta := diffContent(content, prevSet, newSet)
		totalChanged += len(delta.Add.Triplets) + len(delta.Remove)
		deltas[day] = delta
		prevSet = newSet
	}

	daily, err := replay.Run(replay.Config{
		Gen:           l.Generator(),
		Content:       l.Content(),
		Mode:          replay.Full,
		UsersPerClass: l.UsersPerClass,
		Month:         1,
		DailyDelta: func(day int) replay.Delta {
			if day >= 1 && day < len(deltas) {
				return deltas[day]
			}
			return replay.Delta{}
		},
	})
	if err != nil {
		panic(err)
	}

	return DailyUpdatesResult{
		StaticAvg:          meanRate(static),
		DailyAvg:           meanRate(daily),
		ChangedPairsPerDay: float64(totalChanged) / 30,
	}
}

func contentPairSet(c cachegen.Content) map[searchlog.PairID]bool {
	set := make(map[searchlog.PairID]bool, len(c.Triplets))
	for _, tr := range c.Triplets {
		set[tr.Pair] = true
	}
	return set
}

// diffContent computes the delta from prevSet to the new content.
func diffContent(content cachegen.Content, prevSet, newSet map[searchlog.PairID]bool) replay.Delta {
	var d replay.Delta
	d.Add.Scores = make(map[searchlog.PairID]float64)
	for _, tr := range content.Triplets {
		if !prevSet[tr.Pair] {
			d.Add.Triplets = append(d.Add.Triplets, tr)
			d.Add.Scores[tr.Pair] = content.Scores[tr.Pair]
		}
	}
	for p := range prevSet {
		if !newSet[p] {
			d.Remove = append(d.Remove, p)
		}
	}
	sort.Slice(d.Remove, func(i, j int) bool { return d.Remove[i] < d.Remove[j] })
	return d
}

// tableFromCounts builds a sorted triplet table from a running count map.
func tableFromCounts(counts map[searchlog.PairID]int64, total int64) searchlog.TripletTable {
	tbl := searchlog.TripletTable{TotalVolume: total}
	tbl.Triplets = make([]searchlog.Triplet, 0, len(counts))
	for p, v := range counts {
		tbl.Triplets = append(tbl.Triplets, searchlog.Triplet{Pair: p, Volume: v})
	}
	sort.Slice(tbl.Triplets, func(i, j int) bool {
		a, b := tbl.Triplets[i], tbl.Triplets[j]
		if a.Volume != b.Volume {
			return a.Volume > b.Volume
		}
		return a.Pair < b.Pair
	})
	return tbl
}

// Table renders the comparison.
func (r DailyUpdatesResult) Table() Table {
	return Table{
		ID:      "Section 6.2.2",
		Title:   "Daily cache updates",
		Columns: []string{"configuration", "average hit rate"},
		Rows: [][]string{
			{"monthly cache (static)", percent(r.StaticAvg)},
			{"daily updates", percent(r.DailyAvg)},
		},
		Notes: []string{
			"paper: 66% with daily updates vs 65% without — the popular set changes little within the month",
			fmt.Sprintf("measured mean daily popular-set churn: %.0f pairs", r.ChangedPairsPerDay),
		},
	}
}
