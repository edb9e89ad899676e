package workload

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"sync"
	"testing"
	"time"

	"pocketcloudlets/internal/analysis"
	"pocketcloudlets/internal/engine"
	"pocketcloudlets/internal/searchlog"
)

func defaultGen(t testing.TB, users int) *Generator {
	t.Helper()
	u := engine.MustUniverse(engine.DefaultConfig())
	g, err := New(DefaultConfig(u, users, 1))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestConfigValidation(t *testing.T) {
	u := engine.MustUniverse(engine.DefaultConfig())
	bad := []Config{
		{},                                     // no universe
		DefaultConfigUsers(u, 0),               // no users
		withWindow(DefaultConfig(u, 10, 1), 0), // no window
		withFeature(DefaultConfig(u, 10, 1), 1.5), // bad fraction
		withClasses(DefaultConfig(u, 10, 1), []ClassSpec{{Class: Low, MinMonthly: 20, MaxMonthly: 40, PopulationShare: 0.5}}), // shares don't sum
		withClasses(DefaultConfig(u, 10, 1), []ClassSpec{{Class: Low, MinMonthly: 40, MaxMonthly: 40, PopulationShare: 1.0}}), // empty bracket
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %d should be rejected", i)
		}
	}
}

func DefaultConfigUsers(u *engine.Universe, n int) Config { return DefaultConfig(u, n, 1) }
func withWindow(c Config, w time.Duration) Config         { c.Window = w; return c }
func withFeature(c Config, f float64) Config              { c.FeaturephoneFrac = f; return c }
func withClasses(c Config, cl []ClassSpec) Config         { c.Classes = cl; return c }

func TestDeterminism(t *testing.T) {
	g1 := defaultGen(t, 50)
	g2 := defaultGen(t, 50)
	u := g1.Users()[7]
	s1 := g1.UserStream(u, 0)
	s2 := g2.UserStream(g2.Users()[7], 0)
	if len(s1) != len(s2) {
		t.Fatalf("stream lengths differ: %d vs %d", len(s1), len(s2))
	}
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Fatalf("entry %d differs: %+v vs %+v", i, s1[i], s2[i])
		}
	}
}

func TestMonthsDiffer(t *testing.T) {
	g := defaultGen(t, 20)
	u := g.Users()[0]
	s0 := g.UserStream(u, 0)
	s1 := g.UserStream(u, 1)
	same := len(s0) == len(s1)
	if same {
		for i := range s0 {
			if s0[i].Pair != s1[i].Pair {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("consecutive months produced identical streams")
	}
}

func TestVolumesWithinClassBrackets(t *testing.T) {
	g := defaultGen(t, 300)
	for _, u := range g.Users() {
		spec := g.classSpec(u.Class)
		for month := 0; month < 2; month++ {
			v := len(g.UserStream(u, month))
			if v < spec.MinMonthly || v >= spec.MaxMonthly {
				t.Fatalf("user %d class %v volume %d outside [%d, %d)", u.ID, u.Class, v, spec.MinMonthly, spec.MaxMonthly)
			}
		}
	}
}

func TestStreamsTimeOrderedWithinWindow(t *testing.T) {
	g := defaultGen(t, 30)
	for _, u := range g.Users()[:10] {
		s := g.UserStream(u, 0)
		for i, e := range s {
			if e.At < 0 || e.At >= g.Config().Window {
				t.Fatalf("entry time %v outside window", e.At)
			}
			if i > 0 && e.At < s[i-1].At {
				t.Fatal("stream not time ordered")
			}
			if e.User != u.ID || e.Device != u.Device {
				t.Fatal("entry identity mismatch")
			}
		}
	}
}

func TestClassPopulationShares(t *testing.T) {
	g := defaultGen(t, 8000)
	counts := map[Class]int{}
	for _, u := range g.Users() {
		counts[u.Class]++
	}
	wants := map[Class]float64{Low: 0.55, Medium: 0.36, High: 0.08, Extreme: 0.01}
	for c, want := range wants {
		got := float64(counts[c]) / 8000
		if got < want-0.05 || got > want+0.05 {
			t.Errorf("class %v share = %.3f, want ~%.2f", c, got, want)
		}
	}
}

func TestUsersOfClass(t *testing.T) {
	g := defaultGen(t, 200)
	for _, c := range Classes() {
		for _, u := range g.UsersOfClass(c) {
			if u.Class != c {
				t.Fatalf("UsersOfClass(%v) returned class %v", c, u.Class)
			}
		}
	}
}

// TestRepeatabilityCalibration verifies the Figure 5 shape: roughly
// half of users submit a new query at most 30% of the time, and the
// mean repeat rate is near the paper's 56.5%. It is not the experiments'
// fig5 check run twice: it draws a different, 4,000-user population, and
// its mean-repeat floor (0.46) is not that row's (0.45).
func TestRepeatabilityCalibration(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration test generates a large log")
	}
	g := defaultGen(t, 4000)
	log := g.MonthLog(0)
	u := g.Config().Universe

	stats := analysis.RepeatStats(log.Entries, u, analysis.Filter{})
	mean := analysis.MeanRepeatFrac(stats)
	if mean < 0.46 || mean > 0.64 {
		t.Errorf("mean repeat rate = %.3f, want ~0.565", mean)
	}
	half := analysis.FracUsersNewAtMost(stats, 0.30)
	if half < 0.35 || half > 0.62 {
		t.Errorf("frac users with P(new) <= 0.3 = %.3f, want ~0.50", half)
	}
}

// TestHeavierClassesRepeatMore checks the coupling behind Figure 17's
// class trend.
func TestHeavierClassesRepeatMore(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration test generates a large log")
	}
	g := defaultGen(t, 4000)
	log := g.MonthLog(0)
	u := g.Config().Universe
	stats := analysis.RepeatStats(log.Entries, u, analysis.Filter{})
	byUser := map[searchlog.UserID]analysis.UserRepeat{}
	for _, s := range stats {
		byUser[s.User] = s
	}
	meanOf := func(c Class) float64 {
		var sum float64
		var n int
		for _, up := range g.UsersOfClass(c) {
			if s, ok := byUser[up.ID]; ok {
				sum += s.RepeatFrac()
				n++
			}
		}
		if n == 0 {
			return 0
		}
		return sum / float64(n)
	}
	low, high := meanOf(Low), meanOf(High)
	if high <= low {
		t.Errorf("high-volume users repeat %.3f, low-volume %.3f; want high > low", high, low)
	}
}

func TestClassString(t *testing.T) {
	if Low.String() != "low" || Extreme.String() != "extreme" || Class(9).String() == "" {
		t.Error("Class.String mismatch")
	}
}

func TestTrendingPairDeterministicAndInTail(t *testing.T) {
	g := defaultGen(t, 20)
	nn := g.Config().Universe.Config().NonNavPairs
	for day := 0; day < 40; day += 7 {
		for k := 0; k < 3; k++ {
			p1 := g.TrendingPair(day, k)
			p2 := g.TrendingPair(day, k)
			if p1 != p2 {
				t.Fatal("trending pair not deterministic")
			}
			rank := g.Config().Universe.Rank(p1)
			if g.Config().Universe.IsNavPair(p1) || rank < nn/2 {
				t.Fatalf("trending pair rank %d should be in the deep non-nav tail", rank)
			}
		}
	}
}

// TestTrendingCreatesDrift verifies the temporal drift that powers the
// Section 6.2.2 daily-update experiment: events of the replay month are
// present in its logs but absent from the preceding month's.
func TestTrendingCreatesDrift(t *testing.T) {
	if testing.Short() {
		t.Skip("generates month logs")
	}
	g := defaultGen(t, 2000)
	inLog := func(month int, pairs map[searchlog.PairID]bool) int {
		n := 0
		for _, u := range g.Users() {
			for _, e := range g.UserStream(u, month) {
				if pairs[e.Pair] {
					n++
				}
			}
		}
		return n
	}
	// Events starting in the middle of month 1.
	events := map[searchlog.PairID]bool{}
	for day := 40; day < 50; day++ {
		for k := 0; k < g.Config().TrendingDailyEvents; k++ {
			events[g.TrendingPair(day, k)] = true
		}
	}
	month0, month1 := inLog(0, events), inLog(1, events)
	if month1 == 0 {
		t.Fatal("month-1 events missing from month-1 logs")
	}
	if month0 >= month1/10 {
		t.Errorf("month-1 events should be (almost) absent from month 0: %d vs %d", month0, month1)
	}
}

func TestTrendingDisabled(t *testing.T) {
	u := engine.MustUniverse(engine.DefaultConfig())
	cfg := DefaultConfig(u, 50, 1)
	cfg.TrendingFrac = 0
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Streams still generate; no panic and volumes stay in brackets.
	for _, up := range g.Users()[:5] {
		if len(g.UserStream(up, 0)) == 0 {
			t.Fatal("empty stream with trending disabled")
		}
	}
}

func BenchmarkUserStream(b *testing.B) {
	u := engine.MustUniverse(engine.DefaultConfig())
	g, err := New(DefaultConfig(u, 100, 1))
	if err != nil {
		b.Fatal(err)
	}
	users := g.Users()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.UserStream(users[i%len(users)], 0)
	}
}

// TestStreamByteIdenticalAcrossBuilds is the seed regression gate: two
// independently constructed generators with the same config must emit
// byte-identical month logs and user streams — the property every
// fleet determinism claim rests on.
func TestStreamByteIdenticalAcrossBuilds(t *testing.T) {
	digest := func(g *Generator) uint64 {
		h := fnv.New64a()
		for month := 0; month <= 1; month++ {
			for _, e := range g.MonthLog(month).Entries {
				fmt.Fprintf(h, "%d|%d|%d|%d\n", e.At, e.User, e.Pair, e.Device)
			}
		}
		for _, up := range g.Users() {
			for _, e := range g.UserStream(up, 1) {
				fmt.Fprintf(h, "u%d|%d|%d|%d\n", e.At, e.User, e.Pair, e.Device)
			}
		}
		return h.Sum64()
	}
	if d1, d2 := digest(defaultGen(t, 80)), digest(defaultGen(t, 80)); d1 != d2 {
		t.Errorf("same seed produced different stream digests: %#x vs %#x", d1, d2)
	}
	u := engine.MustUniverse(engine.DefaultConfig())
	g3, err := New(DefaultConfig(u, 80, 2))
	if err != nil {
		t.Fatal(err)
	}
	if d1, d3 := digest(defaultGen(t, 80)), digest(g3); d1 == d3 {
		t.Error("different seeds produced identical stream digests")
	}
}

// TestCursorMatchesUserStream verifies the cursor is a faithful
// windowed walk: it replays each month's UserStream verbatim and rolls
// into the next month when exhausted.
func TestCursorMatchesUserStream(t *testing.T) {
	g := defaultGen(t, 40)
	up := g.Users()[11]
	cur := g.Cursor(up, 2)
	if cur.User().ID != up.ID {
		t.Fatal("cursor user mismatch")
	}
	for month := 2; month <= 3; month++ {
		want := g.UserStream(up, month)
		for i, e := range want {
			got, m := cur.Next()
			if m != month || got != e {
				t.Fatalf("month %d entry %d: cursor (%+v, %d), stream %+v", month, i, got, m, e)
			}
		}
	}
	if cur.Month() != 3 {
		t.Errorf("cursor month = %d, want 3", cur.Month())
	}
}

// TestCursorDeterministicAcrossInterleavings is the model-time
// prerequisite: each user's cursor must yield the same entry sequence
// no matter how the consuming goroutines are scheduled, because both
// the closed loop and the per-user open-loop arrivals replay one
// cursor per user concurrently. Each goroutine interleaves with the
// others freely (a yield between Next calls shakes the schedule) and
// the result must still match a serial walk. Run under -race this also
// proves distinct cursors share no mutable state.
func TestCursorDeterministicAcrossInterleavings(t *testing.T) {
	const users, perUser = 24, 60
	g := defaultGen(t, users)
	profiles := g.Users()[:users]

	// Serial reference: one cursor per user, walked alone.
	want := make([][]searchlog.Entry, users)
	for i, up := range profiles {
		cur := g.Cursor(up, 1)
		for n := 0; n < perUser; n++ {
			e, _ := cur.Next()
			want[i] = append(want[i], e)
		}
	}

	for trial := 0; trial < 3; trial++ {
		got := make([][]searchlog.Entry, users)
		var wg sync.WaitGroup
		for i, up := range profiles {
			wg.Add(1)
			go func(i int, up UserProfile) {
				defer wg.Done()
				cur := g.Cursor(up, 1)
				for n := 0; n < perUser; n++ {
					e, _ := cur.Next()
					got[i] = append(got[i], e)
					runtime.Gosched() // shake the goroutine schedule
				}
			}(i, up)
		}
		wg.Wait()
		for i := range want {
			for n := range want[i] {
				if got[i][n] != want[i][n] {
					t.Fatalf("trial %d: user %d entry %d = %+v, serial walk got %+v",
						trial, i, n, got[i][n], want[i][n])
				}
			}
		}
	}
}
