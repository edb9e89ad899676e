package engine

import (
	"strings"
	"testing"
	"testing/quick"

	"pocketcloudlets/internal/searchlog"
)

func testUniverse(t testing.TB) *Universe {
	t.Helper()
	u, err := NewUniverse(Config{
		NavPairs:    9000,
		NonNavPairs: 50000,
		NonNavSegments: []Segment{
			{Queries: 20, ResultsPerQuery: 6},
			{Queries: 80, ResultsPerQuery: 4},
			{Queries: 400, ResultsPerQuery: 3},
			{Queries: 2500, ResultsPerQuery: 2},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return u
}

func TestConfigValidation(t *testing.T) {
	if _, err := NewUniverse(Config{NavPairs: 0, NonNavPairs: 10}); err == nil {
		t.Error("zero NavPairs should fail")
	}
	if _, err := NewUniverse(Config{NavPairs: 7, NonNavPairs: 10}); err == nil {
		t.Error("NavPairs not a multiple of 8 should fail")
	}
	if _, err := NewUniverse(Config{NavPairs: 8, NonNavPairs: 10,
		NonNavSegments: []Segment{{Queries: 100, ResultsPerQuery: 6}}}); err == nil {
		t.Error("segments exceeding NonNavPairs should fail")
	}
	if _, err := NewUniverse(Config{NavPairs: 8, NonNavPairs: 10,
		NonNavSegments: []Segment{{Queries: 0, ResultsPerQuery: 6}}}); err == nil {
		t.Error("empty segment should fail")
	}
	if _, err := NewUniverse(DefaultConfig()); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
}

func TestNavBlockStructure(t *testing.T) {
	u := testUniverse(t)
	// Block 0: pairs 0-7 over queries {site0, site0.com, www.site0,
	// www.site0.com} and results {front page, videos page}.
	for o := 0; o < 4; o++ {
		primary, secondary := u.NavPair(o), u.NavPair(o+4)
		if u.QueryOf(primary) != u.QueryOf(secondary) {
			t.Errorf("offset %d: primary and secondary pairs should share a query", o)
		}
		if u.ResultOf(primary) == u.ResultOf(secondary) {
			t.Errorf("offset %d: primary and secondary pairs should differ in result", o)
		}
	}
	// The three primaries share one result; the three secondaries the other.
	if u.ResultOf(u.NavPair(0)) != u.ResultOf(u.NavPair(1)) ||
		u.ResultOf(u.NavPair(1)) != u.ResultOf(u.NavPair(3)) {
		t.Error("primary pairs of a block should share the front-page result")
	}
	if u.ResultOf(u.NavPair(4)) != u.ResultOf(u.NavPair(7)) {
		t.Error("secondary pairs of a block should share the section result")
	}
	// Queries distinct within the block.
	seen := map[searchlog.QueryID]bool{}
	for o := 0; o < 4; o++ {
		q := u.QueryOf(u.NavPair(o))
		if seen[q] {
			t.Error("alias queries should be distinct")
		}
		seen[q] = true
	}
}

func TestNavAliasingRatio(t *testing.T) {
	// Three queries to two results per block: the paper's ~1.5:1
	// query-to-result aliasing in the navigational head.
	u := testUniverse(t)
	queries := map[searchlog.QueryID]bool{}
	results := map[searchlog.ResultID]bool{}
	for i := 0; i < 6000; i++ {
		p := u.NavPair(i)
		queries[u.QueryOf(p)] = true
		results[u.ResultOf(p)] = true
	}
	ratio := float64(len(queries)) / float64(len(results))
	if ratio < 1.9 || ratio > 2.1 {
		t.Errorf("query:result ratio in nav head = %.2f, want ~2 (the paper needed 50%% more queries than results for equal volume)", ratio)
	}
}

func TestNonNavSegmentStructure(t *testing.T) {
	u := testUniverse(t)
	// First segment: 20 queries x 6 results.
	q := u.QueryOf(u.NonNavPair(0))
	pairs := u.PairsForQuery(q)
	if len(pairs) != 6 {
		t.Fatalf("top non-nav query has %d results, want 6", len(pairs))
	}
	for i, p := range pairs {
		if u.QueryOf(p) != q {
			t.Errorf("pair %d of query's list maps to a different query", i)
		}
	}
	// Pair 120 starts the 4-results segment.
	q4 := u.QueryOf(u.NonNavPair(120))
	if got := len(u.PairsForQuery(q4)); got != 4 {
		t.Errorf("segment-2 query has %d results, want 4", got)
	}
	// Tail queries have one result.
	tailStart := 20*6 + 80*4 + 400*3 + 2500*2
	qt := u.QueryOf(u.NonNavPair(tailStart))
	if got := len(u.PairsForQuery(qt)); got != 1 {
		t.Errorf("tail query has %d results, want 1", got)
	}
	// The last pair resolves cleanly.
	last := u.NonNavPair(u.Config().NonNavPairs - 1)
	if int(u.QueryOf(last)) >= u.NumQueries() {
		t.Error("last pair's query out of range")
	}
}

func TestNavigationalClassifierMatchesSpaces(t *testing.T) {
	u := testUniverse(t)
	for _, rank := range []int{0, 1, 2, 3, 4, 5, 100, 8999} {
		p := u.NavPair(rank)
		if !u.Navigational(p) {
			t.Errorf("nav pair rank %d not classified navigational (query %q, url %q)",
				rank, u.QueryText(u.QueryOf(p)), u.ResultURL(u.ResultOf(p)))
		}
	}
	for _, rank := range []int{0, 1, 9999, 49999} {
		p := u.NonNavPair(rank)
		if u.Navigational(p) {
			t.Errorf("non-nav pair rank %d classified navigational", rank)
		}
	}
}

func TestResolvePairRoundTripProperty(t *testing.T) {
	u := testUniverse(t)
	f := func(raw uint32) bool {
		p := searchlog.PairID(int(raw) % u.NumPairs())
		q := u.QueryText(u.QueryOf(p))
		url := u.ResultURL(u.ResultOf(p))
		got, ok := u.ResolvePair(q, url)
		return ok && got == p
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestResolveRejectsGarbage(t *testing.T) {
	u := testUniverse(t)
	for _, q := range []string{"", "zzz", "site", "siteQQQ", "www.site", "q facts", "qZZ~ facts", "site3.org"} {
		if _, ok := u.ResolveQuery(q); ok {
			t.Errorf("ResolveQuery(%q) should fail", q)
		}
	}
	if _, ok := u.ResolvePair("site0", "www.wrong.com/"); ok {
		t.Error("ResolvePair with mismatched URL should fail")
	}
}

func TestQueryTextsUnique(t *testing.T) {
	u := testUniverse(t)
	seen := map[string]searchlog.QueryID{}
	for q := 0; q < u.NumQueries(); q += 97 {
		text := u.QueryText(searchlog.QueryID(q))
		if prev, dup := seen[text]; dup {
			t.Fatalf("query text %q duplicated for IDs %d and %d", text, prev, q)
		}
		seen[text] = searchlog.QueryID(q)
	}
}

func TestRecordSizeNear500Bytes(t *testing.T) {
	u := testUniverse(t)
	for _, rid := range []int{0, 1, 500, u.NumResults() - 1} {
		rec := u.Result(searchlog.ResultID(rid)).Record()
		if len(rec) < 420 || len(rec) > 600 {
			t.Errorf("record for result %d is %d bytes, want ~500", rid, len(rec))
		}
	}
}

func TestRecordRoundTrip(t *testing.T) {
	u := testUniverse(t)
	orig := u.Result(42)
	parsed, err := ParseRecord(orig.Record())
	if err != nil {
		t.Fatal(err)
	}
	if parsed.Title != orig.Title || parsed.URL != orig.URL ||
		parsed.DisplayURL != orig.DisplayURL || parsed.Snippet != orig.Snippet {
		t.Errorf("record round trip mismatch: %+v vs %+v", parsed, orig)
	}
	if _, err := ParseRecord([]byte("no separators")); err == nil {
		t.Error("malformed record should fail to parse")
	}
}

func TestPageBytesNear100KB(t *testing.T) {
	u := testUniverse(t)
	for rid := 0; rid < 100; rid++ {
		pb := u.PageBytes(searchlog.ResultID(rid))
		if pb < 90_000 || pb > 115_000 {
			t.Errorf("page bytes for %d = %d, want ~100 KB", rid, pb)
		}
	}
}

func TestSearchReturnsRankedResults(t *testing.T) {
	u := testUniverse(t)
	e := New(u)
	q := u.QueryText(u.QueryOf(u.NonNavPair(0)))
	resp, ok := e.Search(q)
	if !ok {
		t.Fatalf("Search(%q) failed", q)
	}
	if len(resp.Results()) != 6 {
		t.Fatalf("top non-nav query returned %d results, want 6", len(resp.Results()))
	}
	seen := map[string]bool{}
	for _, r := range resp.Results() {
		if seen[r.URL] {
			t.Errorf("duplicate result URL %q", r.URL)
		}
		seen[r.URL] = true
	}
	if resp.PageBytes < 90_000 {
		t.Errorf("page bytes = %d, want ~100 KB", resp.PageBytes)
	}
	if _, ok := e.Search("not a real query"); ok {
		t.Error("garbage query should not resolve")
	}
}

func TestNavQueryAliasesReachSameURL(t *testing.T) {
	u := testUniverse(t)
	e := New(u)
	// "site0", "site0.com", "www.site0" and "www.site0.com" are
	// aliases for the same front page — the paper's "boa" /
	// "bank of america" effect.
	var urls []string
	for _, q := range []string{"site0", "site0.com", "www.site0", "www.site0.com"} {
		resp, ok := e.Search(q)
		if !ok {
			t.Fatalf("Search(%q) failed", q)
		}
		urls = append(urls, resp.Results()[0].URL)
	}
	for i := 1; i < len(urls); i++ {
		if urls[i] != urls[0] {
			t.Errorf("aliases reached different URLs: %v", urls)
		}
	}
}

func TestSnippetDeterministic(t *testing.T) {
	u := testUniverse(t)
	if u.Result(7).Snippet != u.Result(7).Snippet {
		t.Error("snippet not deterministic")
	}
	if strings.ContainsRune(u.Result(7).Snippet, recordSep) {
		t.Error("snippet must not contain the record separator")
	}
}

func TestResolveURLRoundTripProperty(t *testing.T) {
	u := testUniverse(t)
	f := func(raw uint32) bool {
		rid := searchlog.ResultID(int(raw) % u.NumResults())
		got, ok := u.ResolveURL(u.ResultURL(rid))
		return ok && got == rid
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestResolveURLRejectsGarbage(t *testing.T) {
	u := testUniverse(t)
	for _, url := range []string{"", "www.example.com", "www.site", "www.siteZZ~.com/", "www.site0.org/", "www.info.net", "www.info0.com/article/0"} {
		if _, ok := u.ResolveURL(url); ok {
			t.Errorf("ResolveURL(%q) should fail", url)
		}
	}
}

func TestPairsForQueryConsistentWithQueryOf(t *testing.T) {
	u := testUniverse(t)
	f := func(raw uint32) bool {
		q := searchlog.QueryID(int(raw) % u.NumQueries())
		for _, p := range u.PairsForQuery(q) {
			if u.QueryOf(p) != q {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// TestFindIDBuildsNoText: naming the clicked result — a navigational
// or a non-navigational one — allocates nothing.
func TestFindIDBuildsNoText(t *testing.T) {
	u := testUniverse(t)
	e := New(u)
	nav, _ := e.Search("site1")
	nn := u.ResultURL(searchlog.ResultID(u.navResults + 5))
	nonNav, _ := e.Search(u.QueryText(u.QueryOf(u.NonNavPair(5))))
	if n := testing.AllocsPerRun(100, func() {
		if _, ok := nav.FindID("www.site1.com/videos"); !ok {
			t.Fatal("the section page is not found")
		}
		if _, ok := nonNav.FindID(nn); !ok {
			t.Fatal("the non-navigational result is not found")
		}
	}); n != 0 {
		t.Errorf("FindID allocates %.1f objects", n)
	}
}
