package pocketsearch

import (
	"fmt"
	"testing"
	"time"

	"pocketcloudlets/internal/cachegen"
	"pocketcloudlets/internal/device"
	"pocketcloudlets/internal/engine"
	"pocketcloudlets/internal/flashsim"
	"pocketcloudlets/internal/hash64"
	"pocketcloudlets/internal/hashtable"
	"pocketcloudlets/internal/radio"
	"pocketcloudlets/internal/searchlog"
)

type fixture struct {
	u     *engine.Universe
	eng   *engine.Engine
	dev   *device.Device
	cache *Cache
}

// newFixture builds a cache preloaded with the first n navigational
// pairs (volume descending).
func newFixture(t testing.TB, preload int, opts Options) *fixture {
	t.Helper()
	u, err := engine.NewUniverse(engine.Config{
		NavPairs:       608,
		NonNavPairs:    3000,
		NonNavSegments: []engine.Segment{{Queries: 50, ResultsPerQuery: 4}, {Queries: 200, ResultsPerQuery: 2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(u)
	dev := device.New(device.Config{}, radio.ThreeG(), flashsim.Params{})

	var entries []searchlog.Entry
	for i := 0; i < preload; i++ {
		for v := 0; v < preload-i; v++ { // descending volumes
			entries = append(entries, searchlog.Entry{At: time.Duration(len(entries)), Pair: u.NavPair(i)})
		}
	}
	tbl := searchlog.ExtractTriplets(entries)
	content := cachegen.Generate(tbl, u, len(tbl.Triplets))
	cache, err := Build(dev, eng, content, opts)
	if err != nil {
		t.Fatal(err)
	}
	dev.Reset() // discard preload time/energy: provisioning is overnight
	return &fixture{u: u, eng: eng, dev: dev, cache: cache}
}

func (f *fixture) pairStrings(p searchlog.PairID) (string, string) {
	return f.u.QueryText(f.u.QueryOf(p)), f.u.ResultURL(f.u.ResultOf(p))
}

func TestHitServedLocally(t *testing.T) {
	f := newFixture(t, 10, Options{})
	q, url := f.pairStrings(f.u.NavPair(0))
	out, err := f.cache.Query(q, url)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Hit {
		t.Fatal("preloaded pair should hit")
	}
	if out.Stages.Network() != 0 {
		t.Error("hit should not use the radio")
	}
	if len(out.Results) == 0 {
		t.Fatal("hit should return results")
	}
	if out.Results[0].URL != url {
		t.Errorf("top result %q, want clicked %q", out.Results[0].URL, url)
	}
	if f.dev.Link().Wakeups() != 0 {
		t.Error("hit must not wake the radio")
	}
}

// TestHitResponseTimeMatchesTable4 verifies the full Table 4 breakdown:
// ~0.01 ms lookup, ~10 ms fetch, ~361 ms render, ~7 ms misc, ~378 ms total.
func TestHitResponseTimeMatchesTable4(t *testing.T) {
	f := newFixture(t, 40, Options{})
	q, url := f.pairStrings(f.u.NavPair(0))
	out, err := f.cache.Query(q, url)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.Stages[device.Lookup]; got != LookupCost {
		t.Errorf("lookup = %v, want %v", got, LookupCost)
	}
	if got := out.Stages[device.Fetch]; got < 4*time.Millisecond || got > 20*time.Millisecond {
		t.Errorf("fetch = %v, want ~10 ms", got)
	}
	if got := out.Stages[device.Render]; got < 350*time.Millisecond || got > 375*time.Millisecond {
		t.Errorf("render = %v, want ~361 ms", got)
	}
	total := out.ResponseTime()
	if total < 360*time.Millisecond || total > 410*time.Millisecond {
		t.Errorf("hit response time = %v, want ~378 ms", total)
	}
}

// TestMissUsesRadioAndIsMuchSlower verifies the 16x gap of Figure 15a.
func TestMissUsesRadioAndIsMuchSlower(t *testing.T) {
	f := newFixture(t, 10, Options{})
	hitQ, hitURL := f.pairStrings(f.u.NavPair(0))
	hit, err := f.cache.Query(hitQ, hitURL)
	if err != nil {
		t.Fatal(err)
	}
	missQ, missURL := f.pairStrings(f.u.NavPair(300))
	miss, err := f.cache.Query(missQ, missURL)
	if err != nil {
		t.Fatal(err)
	}
	if miss.Hit {
		t.Fatal("uncached pair should miss")
	}
	if miss.Stages[device.Radio] == 0 {
		t.Fatal("miss should use the radio")
	}
	ratio := float64(miss.ResponseTime()) / float64(hit.ResponseTime())
	if ratio < 10 || ratio > 25 {
		t.Errorf("miss/hit response ratio = %.1f, want ~16", ratio)
	}
}

func TestMissExpandsCacheAndRepeatHits(t *testing.T) {
	f := newFixture(t, 5, Options{})
	q, url := f.pairStrings(f.u.NonNavPair(0))
	out, err := f.cache.Query(q, url)
	if err != nil {
		t.Fatal(err)
	}
	if out.Hit {
		t.Fatal("first access should miss")
	}
	if f.cache.Stats().Expansions != 1 {
		t.Errorf("expansions = %d, want 1", f.cache.Stats().Expansions)
	}
	out2, err := f.cache.Query(q, url)
	if err != nil {
		t.Fatal(err)
	}
	if !out2.Hit {
		t.Error("repeat of expanded pair should hit")
	}
}

func TestSameQueryDifferentClickIsMiss(t *testing.T) {
	f := newFixture(t, 3, Options{})
	// NavPair(0) is cached; its query's secondary pair (rank 4) is not.
	primary, secondary := f.u.NavPair(0), f.u.NavPair(4)
	if f.u.QueryOf(primary) != f.u.QueryOf(secondary) {
		t.Fatal("test setup: pairs must share a query")
	}
	q := f.u.QueryText(f.u.QueryOf(secondary))
	url := f.u.ResultURL(f.u.ResultOf(secondary))
	out, err := f.cache.Query(q, url)
	if err != nil {
		t.Fatal(err)
	}
	if out.Hit {
		t.Error("cached query with uncached clicked result should miss")
	}
	// After expansion both results are cached; now it hits.
	out2, _ := f.cache.Query(q, url)
	if !out2.Hit {
		t.Error("expanded secondary click should now hit")
	}
}

func TestCommunityOnlyDoesNotExpand(t *testing.T) {
	f := newFixture(t, 5, Options{DisablePersonalization: true})
	q, url := f.pairStrings(f.u.NonNavPair(0))
	f.cache.Query(q, url)
	out, _ := f.cache.Query(q, url)
	if out.Hit {
		t.Error("community-only cache must not learn new pairs")
	}
	if f.cache.Stats().Expansions != 0 {
		t.Error("community-only cache should have zero expansions")
	}
}

// TestPersonalizedRanking verifies Equations 1 and 2: clicking one
// result boosts it past its sibling and decays the sibling.
func TestPersonalizedRanking(t *testing.T) {
	f := newFixture(t, 8, Options{}) // block 0 fully cached: both results per query
	q := f.u.QueryText(f.u.QueryOf(f.u.NavPair(0)))
	primaryURL := f.u.ResultURL(f.u.ResultOf(f.u.NavPair(0)))
	secondaryURL := f.u.ResultURL(f.u.ResultOf(f.u.NavPair(4)))

	// Click the secondary result repeatedly; it must overtake.
	for i := 0; i < 3; i++ {
		out, err := f.cache.Query(q, secondaryURL)
		if err != nil {
			t.Fatal(err)
		}
		if !out.Hit {
			t.Fatal("secondary pair should be cached")
		}
	}
	out, err := f.cache.Query(q, secondaryURL)
	if err != nil {
		t.Fatal(err)
	}
	if out.Results[0].URL != secondaryURL {
		t.Errorf("after repeated clicks, top result = %q, want %q", out.Results[0].URL, secondaryURL)
	}
	// The unclicked primary decayed below the clicked one's score.
	qh := hash64.Sum(q)
	clickedScore, ok1 := f.cache.Table().Score(qh, hash64.Sum(secondaryURL))
	primaryScore, ok2 := f.cache.Table().Score(qh, hash64.Sum(primaryURL))
	if !ok1 || !ok2 {
		t.Fatal("both pairs should remain cached")
	}
	if clickedScore <= primaryScore {
		t.Errorf("clicked score %g should exceed decayed sibling %g", clickedScore, primaryScore)
	}
}

func TestEnergyHitVsMiss(t *testing.T) {
	fHit := newFixture(t, 10, Options{})
	q, url := fHit.pairStrings(fHit.u.NavPair(0))
	fHit.cache.Query(q, url)
	eHit := fHit.dev.TotalEnergy()

	fMiss := newFixture(t, 10, Options{})
	q2, url2 := fMiss.pairStrings(fMiss.u.NavPair(300))
	fMiss.cache.Query(q2, url2)
	eMiss := fMiss.dev.TotalEnergy()

	ratio := eMiss / eHit
	if ratio < 15 || ratio > 35 {
		t.Errorf("miss/hit energy ratio = %.1f, want ~23 (Figure 15b)", ratio)
	}
}

func TestStats(t *testing.T) {
	f := newFixture(t, 5, Options{})
	q, url := f.pairStrings(f.u.NavPair(0))
	f.cache.Query(q, url)
	mq, murl := f.pairStrings(f.u.NavPair(200))
	f.cache.Query(mq, murl)
	s := f.cache.Stats()
	if s.Queries != 2 || s.Hits != 1 || s.Misses != 1 {
		t.Errorf("stats = %+v", s)
	}
	if s.HitRate() != 0.5 {
		t.Errorf("hit rate = %g, want 0.5", s.HitRate())
	}
	f.cache.ResetStats()
	if f.cache.Stats().Queries != 0 {
		t.Error("ResetStats failed")
	}
	if (Stats{}).HitRate() != 0 {
		t.Error("empty stats hit rate should be 0")
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, nil, Options{}); err == nil {
		t.Error("nil device/engine should fail")
	}
}

func TestSuggestCostFree(t *testing.T) {
	f := newFixture(t, 10, Options{})
	q, _ := f.pairStrings(f.u.NavPair(0))
	before := f.dev.Now()
	res := f.cache.Suggest(q)
	if len(res) == 0 {
		t.Fatal("cached query should suggest results")
	}
	if f.dev.Now() != before {
		t.Error("Suggest must not advance the device clock")
	}
	if f.cache.Suggest("never seen") != nil {
		t.Error("unknown query should suggest nothing")
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.DatabaseFiles != 32 || o.Lambda != DefaultLambda {
		t.Errorf("defaults = %+v", o)
	}
}

// hitFixture is the steady-state hit a load run pays: a cache that
// materializes no result text, and a pair it holds.
func hitFixture(tb testing.TB) (f *fixture, q, url string) {
	f = newFixture(tb, 100, Options{DiscardResults: true})
	q, url = f.pairStrings(f.u.NavPair(0))
	return f, q, url
}

// TestQueryHitAllocatesNothing holds hitFixture's hit at 0 allocations
// (DESIGN.md, "The zero-allocation serve path"): it probes its index
// once, and its stage account lives on the stack.
func TestQueryHitAllocatesNothing(t *testing.T) {
	f, q, url := hitFixture(t)
	if n := testing.AllocsPerRun(1000, func() {
		if _, err := f.cache.Query(q, url); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("a hit allocates %.2f objects, want 0", n)
	}
}

// BenchmarkQueryHit times hitFixture's hit.
func BenchmarkQueryHit(b *testing.B) {
	f, q, url := hitFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.cache.Query(q, url); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSuggest(b *testing.B) {
	f := newFixture(b, 100, Options{})
	q, _ := f.pairStrings(f.u.NavPair(0))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.cache.Suggest(q)
	}
}

func TestAutocomplete(t *testing.T) {
	f := newFixture(t, 16, Options{})
	q, _ := f.pairStrings(f.u.NavPair(0)) // "site0"
	comps := f.cache.Autocomplete(q[:3], 10)
	if len(comps) == 0 {
		t.Fatal("prefix of a cached query should complete")
	}
	found := false
	for _, c := range comps {
		if c.Query == q {
			found = true
		}
	}
	if !found {
		t.Errorf("completions %v should include %q", comps, q)
	}
	if f.cache.Autocomplete("zzz", 10) != nil {
		t.Error("unknown prefix should complete to nothing")
	}
	// Completions are ranked: repeated clicks push a query up.
	url := f.u.ResultURL(f.u.ResultOf(f.u.NavPair(1)))
	q1 := f.u.QueryText(f.u.QueryOf(f.u.NavPair(1))) // "site0.com"
	for i := 0; i < 5; i++ {
		if _, err := f.cache.Query(q1, url); err != nil {
			t.Fatal(err)
		}
	}
	comps = f.cache.Autocomplete("site", 1)
	if len(comps) != 1 || comps[0].Query != q1 {
		t.Errorf("top completion = %v, want the heavily clicked %q", comps, q1)
	}
}

func TestAutocompleteLearnsFromMisses(t *testing.T) {
	f := newFixture(t, 4, Options{})
	q, url := f.pairStrings(f.u.NonNavPair(0))
	if got := f.cache.Autocomplete(q[:2], 5); len(got) != 0 {
		t.Fatalf("uncached query should not complete yet: %v", got)
	}
	if _, err := f.cache.Query(q, url); err != nil {
		t.Fatal(err)
	}
	if got := f.cache.Autocomplete(q[:2], 5); len(got) == 0 {
		t.Error("expanded query should now complete")
	}
}

func TestRemovePairPrunesCompletion(t *testing.T) {
	f := newFixture(t, 4, Options{})
	q, url := f.pairStrings(f.u.NavPair(0))
	qh, rh := hash64.Sum(q), hash64.Sum(url)
	if !f.cache.RemovePair(qh, rh) {
		t.Fatal("RemovePair failed")
	}
	if f.cache.RemovePair(qh, rh) {
		t.Error("second remove should fail")
	}
	for _, c := range f.cache.Autocomplete(q[:3], 20) {
		if c.Query == q {
			t.Error("removed query should not complete")
		}
	}
}

// TestKeptResultsMatchParsedRecords: with results kept, a hit, a stale
// serve and a suggestion each return, field for field, what ParseRecord
// of the stored record's rendering gave when the serve path parsed it —
// except Result.ID, which ParseRecord leaves zero (a record carries no
// ID) and which is now the stored result's own. A record someone put as
// bytes that is no result's rendering is still served as its parse.
func TestKeptResultsMatchParsedRecords(t *testing.T) {
	f := newFixture(t, 40, Options{})
	q0, url0 := f.pairStrings(f.u.NavPair(0))
	odd := []byte("Odd title\x1fwww.odd.example/\x1fwww.odd.example\x1fnot a universe record")
	oddHash := hash64.Sum("www.odd.example/")
	if _, err := f.cache.DB().Put(oddHash, odd); err != nil {
		t.Fatal(err)
	}
	f.cache.Table().Put(hash64.Sum(q0), hashtable.SearchRef{ResultHash: oddHash, Score: 1e9})

	check := func(what string, got []engine.Result) {
		t.Helper()
		if len(got) == 0 {
			t.Fatalf("%s: no results", what)
		}
		for _, res := range got {
			rh := hash64.Sum(res.URL)
			rec, _, err := f.cache.DB().Get(rh)
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			want, err := engine.ParseRecord(rec)
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			if rh != oddHash {
				stored, _, _ := f.cache.DB().Fetch(rh)
				want.ID = searchlog.ResultID(stored.ID)
			}
			if res != want {
				t.Fatalf("%s: result %+v, parsed record %+v", what, res, want)
			}
		}
	}
	for i := 0; i < 40; i++ {
		q, url := f.pairStrings(f.u.NavPair(i))
		out, err := f.cache.Query(q, url)
		if err != nil || !out.Hit {
			t.Fatalf("pair %d: %+v, %v", i, out, err)
		}
		check(fmt.Sprintf("pair %d hit", i), out.Results)
		stale, _ := f.cache.ServeStale(q)
		check(fmt.Sprintf("pair %d stale", i), stale.Results)
		check(fmt.Sprintf("pair %d suggestion", i), f.cache.Suggest(q))
	}
	if out, _ := f.cache.Query(q0, url0); out.Results[0].Title != "Odd title" || out.Results[0].ID != 0 {
		t.Errorf("the byte record is served as %+v", out.Results[0])
	}
}
