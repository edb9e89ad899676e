package experiments

import (
	"bytes"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"pocketcloudlets/internal/replay"
	"pocketcloudlets/internal/workload"
)

// sharedLab is built once for the whole package: experiments share the
// generated logs and replays exactly as cmd/experiments does.
var (
	labOnce sync.Once
	lab     *Lab
)

func testLab(t *testing.T) *Lab {
	if testing.Short() {
		t.Skip("experiment tests generate month-scale logs")
	}
	labOnce.Do(func() { lab = NewLab(1, 0, 40) })
	return lab
}

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
	// The registry is cmd/experiments' -list surface: adding, removing or
	// reordering an experiment is an edit here too.
	wantNames := []string{
		"table1", "fig2", "table2", "fig4a", "fig4b", "fig5", "table3",
		"fig7", "fig8", "fig11", "fig12", "table4", "fig15a", "fig15b",
		"fig16", "table5", "table6", "fig17", "fig18", "fig19",
		"dailyupdates", "ablation-shared", "ablation-decay",
		"ablation-threetier", "ablation-eviction", "ext-autocomplete",
	}
	var gotNames []string
	for _, s := range All() {
		gotNames = append(gotNames, s.Name)
	}
	if !slices.Equal(gotNames, wantNames) {
		t.Errorf("experiment names:\n got %q\nwant %q", gotNames, wantNames)
	}

	// Every paper artifact has an experiment.
	wantIDs := []string{
		"Table 1", "Figure 2", "Table 2", "Figure 4a", "Figure 4b",
		"Figure 5", "Table 3", "Figure 7", "Figure 8", "Figure 11",
		"Figure 12", "Table 4", "Figure 15a", "Figure 15b", "Figure 16",
		"Table 5", "Table 6", "Figure 17", "Figure 18", "Figure 19",
		"Section 6.2.2",
	}
	have := map[string]bool{}
	for _, s := range All() {
		have[s.ID] = true
	}
	for _, id := range wantIDs {
		if !have[id] {
			t.Errorf("no experiment for %s", id)
		}
	}
	if _, ok := Find("fig17"); !ok {
		t.Error("Find(fig17) failed")
	}
	if _, ok := Find("nope"); ok {
		t.Error("Find(nope) should fail")
	}
}

func TestTable1Shape(t *testing.T) {
	r := Table1()
	if len(r.Trends) != 9 {
		t.Fatalf("trend points = %d, want 9", len(r.Trends))
	}
	if len(r.Table().Rows) != 9 {
		t.Error("rendered rows mismatch")
	}
}

func TestFig2Shape(t *testing.T) {
	r := Fig2()
	if len(r.Scenarios) != 4 || len(r.HighEnd) != 4 || len(r.LowEnd) != 4 {
		t.Fatalf("scenario counts wrong: %d", len(r.Scenarios))
	}
	// The all-techniques curve dominates scaling-only everywhere.
	for i := range r.HighEnd[0] {
		if r.HighEnd[3][i].Bytes < r.HighEnd[0][i].Bytes {
			t.Errorf("all-techniques below scaling-only in %d", r.HighEnd[0][i].Year)
		}
	}
}

func TestTable2Shape(t *testing.T) {
	r := Table2()
	if len(r.Rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(r.Rows))
	}
}

func TestFig4Shapes(t *testing.T) {
	l := testLab(t)
	qa := Fig4a(l)
	// Headline: top 6000 queries ~60% of volume.
	if s := qa.Share("all", 6000); s < 0.52 || s < 0 || s > 0.68 {
		t.Errorf("top-6000 query share = %.3f, want ~0.60", s)
	}
	// Navigational far more concentrated than non-navigational.
	nav, nonNav := qa.Share("navigational", 5000), qa.Share("non-navigational", 5000)
	if nav < nonNav+0.3 {
		t.Errorf("nav %.3f should far exceed non-nav %.3f", nav, nonNav)
	}
	// Featurephone more concentrated than smartphone.
	if qa.Share("featurephone", 6000) <= qa.Share("smartphone", 6000) {
		t.Error("featurephone should be more concentrated")
	}
	// CDFs are non-decreasing in top-N.
	for si := range qa.Series {
		for i := 1; i < len(qa.Shares[si]); i++ {
			if qa.Shares[si][i].Share < qa.Shares[si][i-1].Share-1e-9 {
				t.Fatalf("series %s CDF not monotone", qa.Series[si])
			}
		}
	}
	// Figure 4b: results more concentrated than queries — ~4000
	// results carry roughly what 6000 queries do.
	qb := Fig4b(l)
	if rb := qb.Share("all", 4000); rb < qa.Share("all", 6000)-0.06 {
		t.Errorf("top-4000 results %.3f should be near top-6000 queries %.3f", rb, qa.Share("all", 6000))
	}
	if qa.Share("missing-series", 10) != -1 {
		t.Error("unknown series should return -1")
	}
}

func TestFig5Shape(t *testing.T) {
	l := testLab(t)
	r := Fig5(l)
	at30 := r.AtProb(0.3)
	if at30 < 0.30 || at30 > 0.62 {
		t.Errorf("frac users with P(new)<=0.3 = %.3f, want ~0.50", at30)
	}
	if r.MeanRepeat < 0.45 || r.MeanRepeat > 0.64 {
		t.Errorf("mean repeat = %.3f, want ~0.565", r.MeanRepeat)
	}
	if r.AtProb(1.0) < 0.999 {
		t.Error("CDF should reach 1 at p=1")
	}
	if r.AtProb(0.123) != -1 {
		t.Error("unknown prob should return -1")
	}
}

func TestTable3Shape(t *testing.T) {
	l := testLab(t)
	r := Table3(l, 10)
	if len(r.Rows) != 10 {
		t.Fatalf("rows = %d, want 10", len(r.Rows))
	}
	for i := 1; i < len(r.Rows); i++ {
		if r.Rows[i].Volume > r.Rows[i-1].Volume {
			t.Fatal("triplets not sorted by volume")
		}
	}
	if r.Rows[0].Query == "" || r.Rows[0].URL == "" {
		t.Error("triplets should be materialized")
	}
}

func TestFig7Shape(t *testing.T) {
	l := testLab(t)
	r := Fig7(l)
	for i := 1; i < len(r.Shares); i++ {
		if r.Shares[i] < r.Shares[i-1] {
			t.Fatal("cumulative volume not monotone")
		}
	}
	// Diminishing returns: the second 20000 pairs add less than the
	// first 20000.
	first := r.Shares[4] // at 20000
	second := r.Shares[5] - r.Shares[4]
	if second >= first {
		t.Errorf("no diminishing returns: first 20k = %.3f, next 20k = %.3f", first, second)
	}
	if r.SaturationPairs <= 0 {
		t.Error("saturation selection empty")
	}
}

func TestFig8Shape(t *testing.T) {
	l := testLab(t)
	r := Fig8(l)
	fp, ok := r.At(EvalShare)
	if !ok {
		t.Fatal("no footprint at the evaluation share")
	}
	// Same order of magnitude as the paper's 200 KB / 1 MB: our
	// saturation set holds more pairs, so allow a small-integer factor.
	if fp.DRAMBytes < 100_000 || fp.DRAMBytes > 500_000 {
		t.Errorf("DRAM at 55%% = %d, want hundreds of KB", fp.DRAMBytes)
	}
	if fp.FlashBytes < 800_000 || fp.FlashBytes > 4_000_000 {
		t.Errorf("flash at 55%% = %d, want a few MB", fp.FlashBytes)
	}
	for i := 1; i < len(r.Footprints); i++ {
		if r.Footprints[i].DRAMBytes < r.Footprints[i-1].DRAMBytes ||
			r.Footprints[i].FlashBytes < r.Footprints[i-1].FlashBytes {
			t.Fatal("footprints not monotone in share")
		}
	}
}

func TestFig11TwoSlotsOptimal(t *testing.T) {
	l := testLab(t)
	r := Fig11(l)
	if r.BestSlots != 2 {
		t.Errorf("best slots = %d, want 2 (the paper's design point)", r.BestSlots)
	}
	// Beyond 2 the footprint grows monotonically.
	for i := 2; i < len(r.Footprint); i++ {
		if r.Footprint[i] < r.Footprint[i-1] {
			t.Errorf("footprint not increasing past 2 slots at k=%d", r.Slots[i])
		}
	}
}

func TestFig12Knee(t *testing.T) {
	r := Fig12()
	one, _ := r.FetchAt(1)
	thirtyTwo, ok := r.FetchAt(32)
	if !ok {
		t.Fatal("no 32-file point")
	}
	last, _ := r.FetchAt(256)
	if !(one > 2*thirtyTwo) {
		t.Errorf("1-file fetch %v should far exceed 32-file %v", one, thirtyTwo)
	}
	if last > thirtyTwo {
		t.Errorf("256-file fetch %v should not exceed 32-file %v", last, thirtyTwo)
	}
	// Table 4 calibration: two-result fetch ~10 ms at 32 files.
	if thirtyTwo < 5*time.Millisecond || thirtyTwo > 15*time.Millisecond {
		t.Errorf("32-file fetch = %v, want ~10 ms", thirtyTwo)
	}
	// Fragmentation grows with file count.
	if r.Fragmentation[len(r.Fragmentation)-1] <= r.Fragmentation[0] {
		t.Error("fragmentation should grow with file count")
	}
	if _, ok := r.FetchAt(999); ok {
		t.Error("unknown file count should miss")
	}
}

func TestTable4Shape(t *testing.T) {
	l := testLab(t)
	r := Table4(l)
	if r.Total < 360*time.Millisecond || r.Total > 410*time.Millisecond {
		t.Errorf("hit total = %v, want ~378 ms", r.Total)
	}
	if float64(r.Render)/float64(r.Total) < 0.90 {
		t.Errorf("render share = %.2f, want > 0.90 (the paper's 96.7%%)", float64(r.Render)/float64(r.Total))
	}
	if r.Lookup > time.Millisecond {
		t.Error("lookup should be negligible")
	}
}

func TestFig15Ratios(t *testing.T) {
	l := testLab(t)
	r := Fig15(l)
	checks := []struct {
		path       string
		minS, maxS float64
		minE, maxE float64
	}{
		{"3G", 12, 20, 18, 30},
		{"Edge", 20, 30, 32, 48},
		{"802.11g", 5, 9, 8, 14},
	}
	for _, c := range checks {
		if s := r.Speedup(c.path); s < c.minS || s > c.maxS {
			t.Errorf("%s speedup = %.1f, want [%g, %g]", c.path, s, c.minS, c.maxS)
		}
		if e := r.EnergyRatio(c.path); e < c.minE || e > c.maxE {
			t.Errorf("%s energy ratio = %.1f, want [%g, %g]", c.path, e, c.minE, c.maxE)
		}
	}
}

func TestFig16Shape(t *testing.T) {
	l := testLab(t)
	r := Fig16(l)
	if r.PocketTotal < 3*time.Second || r.PocketTotal > 5*time.Second {
		t.Errorf("10 local queries = %v, want ~4 s", r.PocketTotal)
	}
	if r.RadioTotal < 35*time.Second || r.RadioTotal > 50*time.Second {
		t.Errorf("10 3G queries = %v, want ~40 s", r.RadioTotal)
	}
	if r.RadioEnergy < 8*r.PocketEnergy {
		t.Errorf("3G energy %f should dwarf local %f", r.RadioEnergy, r.PocketEnergy)
	}
	if len(r.PocketTrace) == 0 || len(r.RadioTrace) == 0 {
		t.Error("power traces missing")
	}
}

func TestTable5Shape(t *testing.T) {
	l := testLab(t)
	r := Table5(l)
	if len(r.Pages) != 2 {
		t.Fatal("want two page classes")
	}
	light, heavy := r.Pages[0], r.Pages[1]
	if light.Speedup < 0.20 || light.Speedup > 0.35 {
		t.Errorf("light page speedup = %.3f, want ~0.287", light.Speedup)
	}
	if heavy.Speedup < 0.10 || heavy.Speedup > 0.22 {
		t.Errorf("heavy page speedup = %.3f, want ~0.167", heavy.Speedup)
	}
	if heavy.Speedup >= light.Speedup {
		t.Error("heavier pages should dilute the speedup")
	}
}

func TestTable6Shape(t *testing.T) {
	l := testLab(t)
	r := Table6(l)
	wants := []float64{0.55, 0.36, 0.08, 0.01}
	for i, s := range r.Shares {
		if s.Share < wants[i]-0.05 || s.Share > wants[i]+0.05 {
			t.Errorf("%s share = %.3f, want ~%.2f", s.Bracket.Name, s.Share, wants[i])
		}
	}
}

func TestFig17Shapes(t *testing.T) {
	l := testLab(t)
	r := Fig17(l)
	full := r.Average(replay.Full)
	comm := r.Average(replay.CommunityOnly)
	pers := r.Average(replay.PersonalizationOnly)

	// Roughly two-thirds of queries served locally; components near
	// the paper's 55% / 56.5%.
	if full < 0.60 || full > 0.82 {
		t.Errorf("full average = %.3f, want ~0.65-0.75", full)
	}
	if comm < 0.45 || comm > 0.65 {
		t.Errorf("community-only average = %.3f, want ~0.55", comm)
	}
	if pers < 0.45 || pers > 0.68 {
		t.Errorf("personalization-only average = %.3f, want ~0.565", pers)
	}
	// The full cache dominates both components.
	if full < comm || full < pers {
		t.Error("full cache should dominate its components")
	}
	// Hit rate rises with monthly volume for every configuration.
	for _, mode := range replay.Modes() {
		low := r.Rate(mode, workload.Low)
		extreme := r.Rate(mode, workload.Extreme)
		if extreme <= low {
			t.Errorf("%v: extreme %.3f should exceed low %.3f", mode, extreme, low)
		}
	}
}

func TestFig18Warmup(t *testing.T) {
	l := testLab(t)
	r := Fig18(l)
	// Personalization lags community during week one for every class.
	var commW1, persW1 []float64
	for i, m := range r.Modes {
		switch m {
		case replay.CommunityOnly:
			commW1 = r.Week1[i]
		case replay.PersonalizationOnly:
			persW1 = r.Week1[i]
		}
	}
	if commW1 == nil || persW1 == nil {
		t.Fatal("missing modes")
	}
	for c := range commW1 {
		if persW1[c] >= commW1[c] {
			t.Errorf("class %d: personalization week-1 %.3f should lag community %.3f", c, persW1[c], commW1[c])
		}
	}
}

func TestFig19Trend(t *testing.T) {
	l := testLab(t)
	r := Fig19(l)
	if len(r.NavShare) != 4 {
		t.Fatal("want 4 classes")
	}
	// Non-navigational hit share grows with volume class.
	if r.NavShare[3] >= r.NavShare[0] {
		t.Errorf("extreme nav share %.3f should be below low %.3f", r.NavShare[3], r.NavShare[0])
	}
	// Navigational hits dominate overall (paper: 59% average).
	avg := (r.NavShare[0] + r.NavShare[1] + r.NavShare[2] + r.NavShare[3]) / 4
	if avg < 0.5 || avg > 0.85 {
		t.Errorf("average nav share = %.3f, want ~0.6-0.7", avg)
	}
}

func TestDailyUpdatesNeutralOrBetter(t *testing.T) {
	l := testLab(t)
	r := DailyUpdates(l)
	// With a stationary popularity model daily updates are neutral
	// (the paper's +1.5 points came from real-world drift); they must
	// not hurt materially.
	if r.DailyAvg < r.StaticAvg-0.03 {
		t.Errorf("daily updates hurt: static %.3f daily %.3f", r.StaticAvg, r.DailyAvg)
	}
	if r.ChangedPairsPerDay <= 0 {
		t.Error("daily churn should be non-zero")
	}
}

func TestAblationShapes(t *testing.T) {
	l := testLab(t)

	shared := AblationSharedResults(l)
	if shared.SharingFactor() < 1.2 {
		t.Errorf("sharing factor = %.2f, want > 1.2 (results are shared across queries)", shared.SharingFactor())
	}
	if shared.PageFactor() < 20 {
		t.Errorf("page factor = %.0f, want >> 1", shared.PageFactor())
	}

	tiers := AblationThreeTier()
	last := len(tiers.IndexBytes) - 1
	if tiers.ThreeTier[last] != 0 {
		t.Error("three-tier boot load should be zero")
	}
	if tiers.TwoTier[last] < time.Minute {
		t.Errorf("two-tier gigabyte reload = %v, want minutes", tiers.TwoTier[last])
	}

	ev := AblationCoordinatedEviction()
	if ev.StrandedBytes == 0 {
		t.Error("uncoordinated eviction should strand related items")
	}
	if ev.CoordinatedFreed < 100_000 || ev.UncoordinatedFreed < 100_000 {
		t.Error("both policies should meet the reclamation target")
	}
}

func TestAblationDecayInsensitiveHitRate(t *testing.T) {
	l := testLab(t)
	r := AblationDecay(l)
	for i := 1; i < len(r.HitRates); i++ {
		if diff := r.HitRates[i] - r.HitRates[0]; diff > 0.02 || diff < -0.02 {
			t.Errorf("hit rate varies with lambda: %.3f vs %.3f", r.HitRates[i], r.HitRates[0])
		}
	}
}
