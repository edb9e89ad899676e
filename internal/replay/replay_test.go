package replay

import (
	"testing"
	"time"

	"pocketcloudlets/internal/cachegen"
	"pocketcloudlets/internal/engine"
	"pocketcloudlets/internal/searchlog"
	"pocketcloudlets/internal/workload"
)

// smallGen builds a fast generator: a modest universe and population.
func smallGen(t testing.TB, users int) *workload.Generator {
	t.Helper()
	u, err := engine.NewUniverse(engine.Config{
		NavPairs:    8000,
		NonNavPairs: 40000,
		NonNavSegments: []engine.Segment{
			{Queries: 50, ResultsPerQuery: 6},
			{Queries: 200, ResultsPerQuery: 3},
			{Queries: 2000, ResultsPerQuery: 2},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := workload.DefaultConfig(u, users, 7)
	cfg.FavNavRanks = 2000
	cfg.FavNonNavRanks = 6000
	g, err := workload.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func smallContent(t testing.TB, g *workload.Generator) cachegen.Content {
	t.Helper()
	tbl := searchlog.ExtractTriplets(g.MonthLog(0).Entries)
	n, err := cachegen.SelectByShare(tbl, 0.55)
	if err != nil {
		t.Fatal(err)
	}
	return cachegen.Generate(tbl, g.Config().Universe, n)
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(Config{}); err == nil {
		t.Error("missing generator should fail")
	}
}

func TestModesString(t *testing.T) {
	names := map[Mode]string{Full: "full", CommunityOnly: "community-only", PersonalizationOnly: "personalization-only"}
	for m, want := range names {
		if m.String() != want {
			t.Errorf("%d.String() = %q, want %q", m, m.String(), want)
		}
	}
	if Mode(9).String() == "" {
		t.Error("unknown mode should stringify")
	}
	if len(Modes()) != 3 {
		t.Error("Modes() should list all three configurations")
	}
}

func TestReplayModes(t *testing.T) {
	g := smallGen(t, 400)
	content := smallContent(t, g)

	results := map[Mode]Result{}
	for _, m := range Modes() {
		r, err := Run(Config{Gen: g, Content: content, Mode: m, UsersPerClass: 12, Month: 1})
		if err != nil {
			t.Fatal(err)
		}
		results[m] = r
	}

	full := results[Full]
	comm := results[CommunityOnly]
	pers := results[PersonalizationOnly]

	// The full cache dominates each component on average (Figure 17).
	if full.Average() < comm.Average() || full.Average() < pers.Average() {
		t.Errorf("full %.3f should dominate community %.3f and personalization %.3f",
			full.Average(), comm.Average(), pers.Average())
	}
	// Every mode serves a substantial fraction locally.
	for m, r := range results {
		if r.Average() < 0.2 || r.Average() > 0.95 {
			t.Errorf("%v average hit rate %.3f implausible", m, r.Average())
		}
	}
	// Personalization-only grows with class volume (more repeats).
	if pers.ClassRate(workload.Extreme) <= pers.ClassRate(workload.Low) {
		t.Errorf("personalization-only should grow with volume: low %.3f extreme %.3f",
			pers.ClassRate(workload.Low), pers.ClassRate(workload.Extreme))
	}
	// Hit volumes are consistent.
	for _, uo := range full.Users {
		if uo.Hits > uo.Volume || uo.NavHits+uo.NonNavHits != uo.Hits {
			t.Fatalf("inconsistent user outcome: %+v", uo)
		}
		sumV, sumH := 0, 0
		for w := range uo.WeekVolume {
			sumV += uo.WeekVolume[w]
			sumH += uo.WeekHits[w]
		}
		if sumV != uo.Volume || sumH != uo.Hits {
			t.Fatalf("weekly buckets inconsistent: %+v", uo)
		}
	}
}

// TestWarmupShape checks the Figure 18 dynamics: in the first week the
// personalization-only cache lags the community-only cache, because it
// needs time to learn the user's repeats.
func TestWarmupShape(t *testing.T) {
	g := smallGen(t, 400)
	content := smallContent(t, g)
	comm, err := Run(Config{Gen: g, Content: content, Mode: CommunityOnly, UsersPerClass: 15, Month: 1})
	if err != nil {
		t.Fatal(err)
	}
	pers, err := Run(Config{Gen: g, Content: content, Mode: PersonalizationOnly, UsersPerClass: 15, Month: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Week-1 rates, averaged over classes.
	week1 := func(r Result) float64 {
		var sum float64
		for _, cr := range r.Classes {
			sum += cr.CumWeekHitRate[0]
		}
		return sum / float64(len(r.Classes))
	}
	month := func(r Result) float64 { return r.Average() }
	if pw, cw := week1(pers), week1(comm); pw >= cw {
		t.Errorf("week-1 personalization %.3f should lag community %.3f", pw, cw)
	}
	// Personalization catches up over the month.
	gap1 := week1(comm) - week1(pers)
	gapM := month(comm) - month(pers)
	if gapM >= gap1 {
		t.Errorf("personalization should close the gap: week1 gap %.3f, month gap %.3f", gap1, gapM)
	}
}

// TestDailyUpdates checks the Section 6.2.2 experiment mechanics: daily
// synchronization must not hurt the hit rate, and with identical daily
// content it should roughly match the static cache.
// TestDailyDeltaInstallsAndPrunes verifies the incremental update path:
// a pair added by a day-1 delta serves the user's later first visit,
// and removed unaccessed pairs stop hitting.
func TestDailyDeltaInstallsAndPrunes(t *testing.T) {
	g := smallGen(t, 200)
	content := smallContent(t, g)

	// Find a user entry after day 1 whose pair is outside the content.
	inContent := map[searchlog.PairID]bool{}
	for _, tr := range content.Triplets {
		inContent[tr.Pair] = true
	}
	var target searchlog.PairID
	var targetUser workload.UserProfile
	found := false
	for _, up := range g.Users() {
		for _, e := range g.UserStream(up, 1) {
			if e.At > 36*time.Hour && !inContent[e.Pair] {
				// Must be the FIRST occurrence in the stream to
				// isolate the delta's effect.
				first := true
				for _, e2 := range g.UserStream(up, 1) {
					if e2.Pair == e.Pair && e2.At < e.At {
						first = false
						break
					}
				}
				if first {
					target, targetUser, found = e.Pair, up, true
					break
				}
			}
		}
		if found {
			break
		}
	}
	if !found {
		t.Skip("no suitable uncached pair found")
	}

	delta := Delta{}
	delta.Add.Triplets = []searchlog.Triplet{{Pair: target, Volume: 1}}
	delta.Add.Scores = map[searchlog.PairID]float64{target: 1}

	run := func(withDelta bool) int {
		cfg := Config{Gen: g, Content: content, Mode: Full, Month: 1}
		if withDelta {
			cfg.DailyDelta = func(day int) Delta {
				if day == 1 {
					return delta
				}
				return Delta{}
			}
		}
		// Replay just the one user by running the class with a cap and
		// picking their outcome.
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, uo := range res.Users {
			if uo.Profile.ID == targetUser.ID {
				return uo.Hits
			}
		}
		t.Fatal("target user not replayed")
		return 0
	}
	withOut := run(false)
	with := run(true)
	if with <= withOut {
		t.Errorf("delta-installed pair should add hits: %d vs %d", with, withOut)
	}
}
