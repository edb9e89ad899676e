package experiments

import (
	"fmt"
	"math"

	"pocketcloudlets/internal/replay"
	"pocketcloudlets/internal/workload"
)

// Spec describes one runnable experiment for the command-line driver
// and the tests.
type Spec struct {
	// Name is the short handle used with `cmd/experiments -run`.
	Name string
	// ID is the paper artifact it reproduces.
	ID string
	// Heavy marks experiments that generate logs or run replays and
	// therefore take seconds to minutes.
	Heavy bool
	// Run executes the experiment and returns its table and its rows of
	// the paper's checks, evaluated on the result the table shows. The
	// lab may be shared across experiments within a process.
	Run func(l *Lab) (Table, []Check)
}

// All lists every experiment in paper order, each with the paper's
// claims its result is held to. Every bound is the tolerance the
// calibration was accepted at; a row whose bound is wide because the
// model deviates from the paper names the deviation.
func All() []Spec {
	return []Spec{
		{Name: "table1", ID: "Table 1", Run: func(*Lab) (Table, []Check) {
			r := Table1()
			t := r.Table()
			return t, []Check{
				{Shape: true, Claim: "trend points", Paper: "9 rows, 2010–2026", Got: float64(len(r.Trends)), Bound: Exactly(9)},
				{Shape: true, Claim: "rendered rows", Paper: "9 rows", Got: float64(len(t.Rows)), Bound: Exactly(9)},
			}
		}},
		{Name: "fig2", ID: "Figure 2", Run: func(*Lab) (Table, []Check) {
			r := Fig2()
			below := math.NaN()
			if len(r.HighEnd) == 4 {
				below = countIf(0, len(r.HighEnd[0]), func(i int) bool { return r.HighEnd[3][i].Bytes < r.HighEnd[0][i].Bytes })
			}
			return r.Table(), []Check{
				{Shape: true, Claim: "scenarios", Paper: "4 curves", Got: float64(len(r.Scenarios)), Bound: Exactly(4)},
				{Shape: true, Claim: "high-end curves", Paper: "4 curves", Got: float64(len(r.HighEnd)), Bound: Exactly(4)},
				{Shape: true, Claim: "low-end curves", Paper: "4 curves", Got: float64(len(r.LowEnd)), Bound: Exactly(4)},
				{Shape: true, Claim: "years all techniques fall below scaling only", Paper: "all techniques on top", Got: below, Bound: Exactly(0)},
			}
		}},
		{Name: "table2", ID: "Table 2", Run: func(*Lab) (Table, []Check) {
			r := Table2()
			return r.Table(), []Check{{Shape: true, Claim: "cloudlet rows", Paper: "5 rows", Got: float64(len(r.Rows)), Bound: Exactly(5)}}
		}},
		{Name: "fig4a", ID: "Figure 4a", Heavy: true, Run: func(l *Lab) (Table, []Check) {
			r := shared(l, "fig4a", Fig4a)
			nav, nonNav := r.Share("navigational", 5000), r.Share("non-navigational", 5000)
			falls := 0.0
			for _, s := range r.Shares {
				falls += countIf(1, len(s), func(i int) bool { return s[i].Share < s[i-1].Share-1e-9 })
			}
			return r.Table(), []Check{
				{Claim: "top-6000 query share", Paper: "~60%", Got: r.Share("all", 6000), Bound: In(0.52, 0.68)},
				{Claim: "navigational top-5000 share", Paper: "~90%", Got: nav, Bound: In(0.82, 0.97)},
				{Claim: "non-navigational top-5000 share", Paper: "<30%", Got: nonNav, Bound: In(0.20, 0.45), Deviation: 2},
				{Claim: "navigational top-5000 share vs non-navigational + 0.3", Paper: "~90% vs <30%", Got: nav, Bound: AtLeast(nonNav + 0.3)},
				{Claim: "featurephone top-6000 share vs smartphone", Paper: "featurephone more concentrated", Got: r.Share("featurephone", 6000), Bound: Above(r.Share("smartphone", 6000))},
				{Shape: true, Claim: "CDF steps that fall", Paper: "cumulative curves", Got: falls, Bound: Exactly(0)},
			}
		}},
		{Name: "fig4b", ID: "Figure 4b", Heavy: true, Run: func(l *Lab) (Table, []Check) {
			r := Fig4b(l)
			queries := shared(l, "fig4a", Fig4a).Share("all", 6000)
			return r.Table(), []Check{
				{Claim: "top-4000 result share vs top-6000 query share − 0.06", Paper: "4000 results carry what 6000 queries do", Got: r.Share("all", 4000), Bound: AtLeast(queries - 0.06)},
			}
		}},
		{Name: "fig5", ID: "Figure 5", Heavy: true, Run: func(l *Lab) (Table, []Check) {
			r := Fig5(l)
			return r.Table(), []Check{
				{Claim: "users with P(new query) ≤ 0.3", Paper: "~50%", Got: r.AtProb(0.3), Bound: In(0.30, 0.62), Deviation: 3},
				{Claim: "mean repeat rate", Paper: "56.5%", Got: r.MeanRepeat, Bound: In(0.45, 0.64)},
				{Shape: true, Claim: "users with P(new query) ≤ 1", Paper: "a CDF reaching 1", Got: r.AtProb(1.0), Bound: AtLeast(0.999)},
			}
		}},
		{Name: "table3", ID: "Table 3", Heavy: true, Run: func(l *Lab) (Table, []Check) {
			r := Table3(l, 10)
			named := 0.0
			if len(r.Rows) > 0 && r.Rows[0].Query != "" && r.Rows[0].URL != "" {
				named = 1
			}
			return r.Table(), []Check{
				{Shape: true, Claim: "triplets", Paper: "10 rows", Got: float64(len(r.Rows)), Bound: Exactly(10)},
				{Shape: true, Claim: "triplets above a heavier one", Paper: "sorted by volume", Got: countIf(1, len(r.Rows), func(i int) bool { return r.Rows[i].Volume > r.Rows[i-1].Volume }), Bound: Exactly(0)},
				{Shape: true, Claim: "top triplet named by its query and result", Paper: "materialized triplets", Got: named, Bound: Exactly(1)},
			}
		}},
		{Name: "fig7", ID: "Figure 7", Heavy: true, Run: func(l *Lab) (Table, []Check) {
			r := Fig7(l)
			first := at(r.Shares, 4) // the first 20000 pairs
			return r.Table(), []Check{
				{Shape: true, Claim: "cumulative-volume steps that fall", Paper: "cumulative curve", Got: countIf(1, len(r.Shares), func(i int) bool { return r.Shares[i] < r.Shares[i-1] }), Bound: Exactly(0)},
				{Claim: "volume the second 20000 pairs add vs the first 20000", Paper: "58% at 20000, 62% at 40000", Got: at(r.Shares, 5) - first, Bound: Below(first)},
				{Shape: true, Claim: "pairs in the 55% cache", Paper: "≈4200", Got: float64(r.SaturationPairs), Bound: Above(0)},
			}
		}},
		{Name: "fig8", ID: "Figure 8", Heavy: true, Run: func(l *Lab) (Table, []Check) {
			r := Fig8(l)
			fp, _ := r.At(EvalShare) // a missing point reads zero and fails both rows
			fps := r.Footprints
			return r.Table(), []Check{
				{Claim: "DRAM at the 55% share (B)", Paper: "~200 KB", Got: float64(fp.DRAMBytes), Bound: In(100_000, 500_000), Deviation: 4},
				{Claim: "flash at the 55% share (B)", Paper: "~1 MB", Got: float64(fp.FlashBytes), Bound: In(800_000, 4_000_000), Deviation: 4},
				{Shape: true, Claim: "footprint steps that fall", Paper: "growing with share", Got: countIf(1, len(fps), func(i int) bool {
					return fps[i].DRAMBytes < fps[i-1].DRAMBytes || fps[i].FlashBytes < fps[i-1].FlashBytes
				}), Bound: Exactly(0)},
			}
		}},
		{Name: "fig11", ID: "Figure 11", Heavy: true, Run: func(l *Lab) (Table, []Check) {
			r := Fig11(l)
			return r.Table(), []Check{
				{Shape: true, Claim: "footprint-minimizing results per entry", Paper: "2", Got: float64(r.BestSlots), Bound: Exactly(2)},
				{Shape: true, Claim: "footprint steps that fall past 2 results per entry", Paper: "growing past 2", Got: countIf(2, len(r.Footprint), func(i int) bool { return r.Footprint[i] < r.Footprint[i-1] }), Bound: Exactly(0)},
			}
		}},
		{Name: "fig12", ID: "Figure 12", Run: func(*Lab) (Table, []Check) {
			r := Fig12()
			one, _ := r.FetchAt(1)
			thirtyTwo, _ := r.FetchAt(32) // a missing point reads zero and fails the ~10 ms row
			last, _ := r.FetchAt(256)
			frag := r.Fragmentation
			return r.Table(), []Check{
				{Claim: "1-file fetch vs 2 × the 32-file fetch (ms)", Paper: "32 files the knee", Got: ms(one), Bound: Above(ms(2 * thirtyTwo))},
				{Claim: "256-file fetch vs the 32-file fetch (ms)", Paper: "nothing gained past 32 files", Got: ms(last), Bound: AtMost(ms(thirtyTwo))},
				{Claim: "32-file two-result fetch (ms)", Paper: "~10 ms", Got: ms(thirtyTwo), Bound: In(5, 15)},
				{Claim: "fragmentation at 256 files vs at 1 (B)", Paper: "grows with file count", Got: float64(frag[len(frag)-1]), Bound: Above(float64(frag[0]))},
			}
		}},
		{Name: "table4", ID: "Table 4", Heavy: true, Run: func(l *Lab) (Table, []Check) {
			r := Table4(l)
			return r.Table(), []Check{
				{Claim: "hit total (ms)", Paper: "378 ms", Got: ms(r.Total), Bound: In(360, 410)},
				{Claim: "render share of the hit total", Paper: "96.7%", Got: float64(r.Render) / float64(r.Total), Bound: AtLeast(0.90)},
				{Claim: "hash table lookup (ms)", Paper: "0.01 ms", Got: ms(r.Lookup), Bound: AtMost(1)},
			}
		}},
		{Name: "fig15a", ID: "Figure 15a", Heavy: true, Run: func(l *Lab) (Table, []Check) {
			r := shared(l, "fig15", Fig15)
			return r.TableTime(), []Check{
				{Claim: "3G speed-up", Paper: "16×", Got: r.Speedup("3G"), Bound: In(12, 20)},
				{Claim: "Edge speed-up", Paper: "25×", Got: r.Speedup("Edge"), Bound: In(20, 30)},
				{Claim: "802.11g speed-up", Paper: "7×", Got: r.Speedup("802.11g"), Bound: In(5, 9)},
			}
		}},
		{Name: "fig15b", ID: "Figure 15b", Heavy: true, Run: func(l *Lab) (Table, []Check) {
			r := shared(l, "fig15", Fig15)
			return r.TableEnergy(), []Check{
				{Claim: "3G energy ratio", Paper: "23×", Got: r.EnergyRatio("3G"), Bound: In(18, 30)},
				{Claim: "Edge energy ratio", Paper: "41×", Got: r.EnergyRatio("Edge"), Bound: In(32, 48)},
				{Claim: "802.11g energy ratio", Paper: "11×", Got: r.EnergyRatio("802.11g"), Bound: In(8, 14)},
			}
		}},
		{Name: "fig16", ID: "Figure 16", Heavy: true, Run: func(l *Lab) (Table, []Check) {
			r := Fig16(l)
			return r.Table(), []Check{
				{Claim: "ten local queries (s)", Paper: "~4 s", Got: r.PocketTotal.Seconds(), Bound: In(3, 5)},
				{Claim: "ten 3G queries (s)", Paper: "~40 s", Got: r.RadioTotal.Seconds(), Bound: In(35, 50)},
				{Claim: "3G energy vs 8 × local energy (J)", Paper: "~40 s at ~1500 mW vs ~4 s at ~900 mW", Got: r.RadioEnergy, Bound: AtLeast(8 * r.PocketEnergy)},
				{Shape: true, Claim: "segments of the shorter power trace", Paper: "a trace of each run", Got: float64(min(len(r.PocketTrace), len(r.RadioTrace))), Bound: Above(0)},
			}
		}},
		{Name: "table5", ID: "Table 5", Heavy: true, Run: func(l *Lab) (Table, []Check) {
			r := Table5(l)
			var speedups []float64
			for _, p := range r.Pages {
				speedups = append(speedups, p.Speedup)
			}
			light, heavy := at(speedups, 0), at(speedups, 1)
			return r.Table(), []Check{
				{Shape: true, Claim: "page classes", Paper: "2", Got: float64(len(r.Pages)), Bound: Exactly(2)},
				{Claim: "lightweight page speed-up over 3G", Paper: "28.7%", Got: light, Bound: In(0.20, 0.35)},
				{Claim: "heavyweight page speed-up over 3G", Paper: "16.7%", Got: heavy, Bound: In(0.10, 0.22)},
				{Claim: "heavyweight vs lightweight page speed-up", Paper: "heavier pages dilute it", Got: heavy, Bound: Below(light)},
			}
		}},
		{Name: "table6", ID: "Table 6", Heavy: true, Run: func(l *Lab) (Table, []Check) {
			r := Table6(l)
			var rows []Check
			for i, want := range []float64{0.55, 0.36, 0.08, 0.01} {
				s := r.Shares[i]
				rows = append(rows, Check{Claim: s.Bracket.Name + " users", Paper: percent(want), Got: s.Share, Bound: In(want-0.05, want+0.05)})
			}
			return r.Table(), rows
		}},
		{Name: "fig17", ID: "Figure 17", Heavy: true, Run: func(l *Lab) (Table, []Check) {
			r := Fig17(l)
			full, comm, pers := r.Average(replay.Full), r.Average(replay.CommunityOnly), r.Average(replay.PersonalizationOnly)
			rows := []Check{
				{Claim: "full average hit rate", Paper: "65%", Got: full, Bound: In(0.60, 0.82), Deviation: 1},
				{Claim: "community-only average hit rate", Paper: "55%", Got: comm, Bound: In(0.45, 0.65)},
				{Claim: "personalization-only average hit rate", Paper: "56.5%", Got: pers, Bound: In(0.45, 0.68)},
				{Claim: "full vs community-only average", Paper: "the full cache dominates", Got: full, Bound: AtLeast(comm)},
				{Claim: "full vs personalization-only average", Paper: "the full cache dominates", Got: full, Bound: AtLeast(pers)},
			}
			for _, m := range replay.Modes() {
				rows = append(rows, Check{Claim: m.String() + " extreme-class vs low-class hit rate", Paper: "rising with volume", Got: r.Rate(m, workload.Extreme), Bound: Above(r.Rate(m, workload.Low))})
			}
			return r.Table(), rows
		}},
		{Name: "fig18", ID: "Figure 18", Heavy: true, Run: func(l *Lab) (Table, []Check) {
			r := Fig18(l)
			comm, pers := r.week1(replay.CommunityOnly), r.week1(replay.PersonalizationOnly)
			var rows []Check
			for c, class := range workload.Classes() {
				row := Check{Claim: "personalization-only vs community-only week-1 hit rate, " + class.String(), Paper: "personalization lags in week one", Got: at(pers, c), Bound: Below(at(comm, c))}
				if class == workload.High {
					row.Deviation = 6
				}
				rows = append(rows, row)
			}
			return r.Table(), rows
		}},
		{Name: "fig19", ID: "Figure 19", Heavy: true, Run: func(l *Lab) (Table, []Check) {
			r := Fig19(l)
			nav := r.NavShare
			return r.Table(), []Check{
				{Shape: true, Claim: "user classes", Paper: "4", Got: float64(len(nav)), Bound: Exactly(4)},
				{Claim: "extreme-class vs low-class navigational share of hits", Paper: "non-navigational hits grow with volume", Got: at(nav, 3), Bound: Below(at(nav, 0))},
				{Claim: "average navigational share of hits", Paper: "59%", Got: (at(nav, 0) + at(nav, 1) + at(nav, 2) + at(nav, 3)) / 4, Bound: In(0.5, 0.85)},
			}
		}},
		{Name: "dailyupdates", ID: "Section 6.2.2", Heavy: true, Run: func(l *Lab) (Table, []Check) {
			r := DailyUpdates(l)
			return r.Table(), []Check{
				{Claim: "daily-updated vs static average hit rate − 0.03", Paper: "66% vs 65%", Got: r.DailyAvg, Bound: AtLeast(r.StaticAvg - 0.03), Deviation: 5},
				{Claim: "daily popular-set churn (pairs)", Paper: "the popular set changes little", Got: r.ChangedPairsPerDay, Bound: Above(0)},
			}
		}},
		{Name: "ablation-shared", ID: "Ablation", Heavy: true, Run: func(l *Lab) (Table, []Check) {
			r := AblationSharedResults(l)
			return r.Table(), []Check{
				{Claim: "saving of shared records over per-pair copies", Paper: "40% of results stored twice otherwise", Got: r.SharingFactor(), Bound: AtLeast(1.2)},
				{Claim: "saving of shared records over per-query pages", Paper: "~8×", Got: r.PageFactor(), Bound: AtLeast(20)},
			}
		}},
		{Name: "ablation-decay", ID: "Ablation", Heavy: true, Run: func(l *Lab) (Table, []Check) {
			r := AblationDecay(l)
			var rows []Check
			for i := 1; i < len(r.HitRates); i++ {
				claim := fmt.Sprintf("hit rate at λ = %g minus at λ = %g", r.Lambdas[i], r.Lambdas[0])
				rows = append(rows, Check{Claim: claim, Paper: "λ orders results, not hits", Got: r.HitRates[i] - r.HitRates[0], Bound: In(-0.02, 0.02)})
			}
			return r.Table(), rows
		}},
		{Name: "ablation-threetier", ID: "Ablation", Run: func(*Lab) (Table, []Check) {
			r := AblationThreeTier()
			last := len(r.IndexBytes) - 1
			return r.Table(), []Check{
				{Claim: "three-tier boot load of the largest index (s)", Paper: "instant", Got: r.ThreeTier[last].Seconds(), Bound: Exactly(0)},
				{Claim: "two-tier boot load of the largest index (s)", Paper: "prohibitive", Got: r.TwoTier[last].Seconds(), Bound: AtLeast(60)},
			}
		}},
		{Name: "ablation-eviction", ID: "Ablation", Run: func(*Lab) (Table, []Check) {
			r := AblationCoordinatedEviction()
			return r.Table(), []Check{
				{Claim: "related bytes uncoordinated eviction strands", Paper: "evict related items together", Got: float64(r.StrandedBytes), Bound: Above(0)},
				{Claim: "bytes the policy that frees less frees", Paper: "the 100000-byte target", Got: float64(min(r.CoordinatedFreed, r.UncoordinatedFreed)), Bound: AtLeast(100_000)},
			}
		}},
		{Name: "ext-autocomplete", ID: "Extension", Heavy: true, Run: func(l *Lab) (Table, []Check) {
			return ExtAutocomplete(l).Table(), nil
		}},
	}
}

// Find returns the spec with the given name.
func Find(name string) (Spec, bool) {
	for _, s := range All() {
		if s.Name == name {
			return s, true
		}
	}
	return Spec{}, false
}
