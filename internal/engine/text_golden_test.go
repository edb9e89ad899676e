package engine

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"pocketcloudlets/internal/searchlog"
)

// The legacy* functions are the text builders this package used before
// result text became a table read and a concatenation. They are kept
// here as the reference the stored bytes are held against: every record
// in every database file, and so every modeled flash latency, depends
// on these strings byte for byte.

func legacySnippet(r searchlog.ResultID) string {
	var b strings.Builder
	i := int(r)
	for n := 0; b.Len() < 390; n++ {
		w := lexicon[(i*31+n*17+n*n)%len(lexicon)]
		if n == 0 {
			b.WriteString(strings.ToUpper(w[:1]))
			b.WriteString(w[1:])
			continue
		}
		b.WriteByte(' ')
		b.WriteString(w)
	}
	b.WriteByte('.')
	return b.String()
}

func legacyTitle(u *Universe, r searchlog.ResultID) string {
	i := int(r)
	w1 := lexicon[i%len(lexicon)]
	w2 := lexicon[(i/7+3)%len(lexicon)]
	if i < u.navResults {
		site := b36(i / 2)
		if i%2 == 0 {
			return fmt.Sprintf("Site %s — the %s %s portal", site, w1, w2)
		}
		return fmt.Sprintf("Site %s Videos — %s %s section", site, w1, w2)
	}
	return fmt.Sprintf("Info %s: %s %s reference", b36(i-u.navResults), w1, w2)
}

func legacyRecord(r Result) []byte {
	var b bytes.Buffer
	b.WriteString(r.Title)
	b.WriteByte(recordSep)
	b.WriteString(r.URL)
	b.WriteByte(recordSep)
	b.WriteString(r.DisplayURL)
	b.WriteByte(recordSep)
	b.WriteString(r.Snippet)
	return b.Bytes()
}

// goldenIDs returns every snippet residue on both sides of the
// navigational/non-navigational boundary plus 10k seeded IDs, half of
// them within a few hundred of that boundary.
func goldenIDs(u *Universe) []searchlog.ResultID {
	var ids []searchlog.ResultID
	for k := 0; k < 2*len(lexicon); k++ {
		ids = append(ids, searchlog.ResultID(k), searchlog.ResultID(u.navResults-len(lexicon)+k))
	}
	rng := rand.New(rand.NewSource(13))
	for k := 0; k < 5000; k++ {
		ids = append(ids,
			searchlog.ResultID(rng.Intn(u.NumResults())),
			searchlog.ResultID(u.navResults-300+rng.Intn(600)))
	}
	return append(ids, searchlog.ResultID(u.NumResults()-1))
}

func TestResultTextMatchesLegacyBuilders(t *testing.T) {
	u := testUniverse(t)
	for _, id := range goldenIDs(u) {
		res := u.Result(id)
		if want := legacySnippet(id); res.Snippet != want {
			t.Fatalf("result %d: snippet\n got %q\nwant %q", id, res.Snippet, want)
		}
		if want := legacyTitle(u, id); res.Title != want {
			t.Fatalf("result %d: title %q, want %q", id, res.Title, want)
		}
		rec := res.Record()
		if want := legacyRecord(res); !bytes.Equal(rec, want) {
			t.Fatalf("result %d: record\n got %q\nwant %q", id, rec, want)
		}
		if cap(rec) != len(rec) {
			t.Fatalf("result %d: record buffer has %d spare bytes, want an exact fit", id, cap(rec)-len(rec))
		}
		parsed, err := ParseRecord(rec)
		if err != nil {
			t.Fatalf("result %d: %v", id, err)
		}
		res.ID = 0 // not part of the record
		if parsed != res {
			t.Fatalf("result %d: parsed %+v, want %+v", id, parsed, res)
		}
	}
}

func TestSnippetTableCoversEveryResidue(t *testing.T) {
	seen := map[string]bool{}
	for k := range snippets {
		if snippets[k] != legacySnippet(searchlog.ResultID(k)) {
			t.Errorf("snippets[%d] differs from the legacy loop", k)
		}
		seen[snippets[k]] = true
	}
	if len(seen) != len(lexicon) {
		t.Errorf("%d distinct snippets, want %d", len(seen), len(lexicon))
	}
}

// TestSearchResponseMatchesPairs holds the response's run of result
// identifiers against PairsForQuery composed with ResultOf, for every
// query of every segment, and Results/FindID against Universe.Result.
func TestSearchResponseMatchesPairs(t *testing.T) {
	u := testUniverse(t)
	e := New(u)
	for q := 0; q < u.NumQueries(); q++ {
		qid := searchlog.QueryID(q)
		resp, ok := e.Search(u.QueryText(qid))
		if !ok {
			t.Fatalf("query %d did not resolve", q)
		}
		pairs := u.PairsForQuery(qid)
		if resp.Len() != len(pairs) {
			t.Fatalf("query %d: %d results, want %d", q, resp.Len(), len(pairs))
		}
		for i, p := range pairs {
			if resp.ID(i) != u.ResultOf(p) {
				t.Fatalf("query %d result %d: id %d, want %d", q, i, resp.ID(i), u.ResultOf(p))
			}
		}
		if resp.PageBytes != u.PageBytes(resp.ID(0)) {
			t.Fatalf("query %d: page bytes %d, want the top result's %d", q, resp.PageBytes, u.PageBytes(resp.ID(0)))
		}
		if q%97 != 0 {
			continue // materialize text for a sample only
		}
		results := resp.Results()
		for i, res := range results {
			if want := u.Result(resp.ID(i)); res != want {
				t.Fatalf("query %d result %d: %+v, want %+v", q, i, res, want)
			}
			if id, ok := resp.FindID(res.URL); !ok || id != res.ID {
				t.Fatalf("query %d: FindID(%q) = %d, %v", q, res.URL, id, ok)
			}
		}
	}
}

func TestFindRejectsWhatTheResponseLacks(t *testing.T) {
	u := testUniverse(t)
	e := New(u)
	resp, _ := e.Search("site1")
	for _, url := range []string{
		"",
		"www.site2.com/",      // another query's result
		"www.site01.com/",     // resolves to a ranked result, but is not its address
		"www.site1.com/video", // no such page
		u.ResultURL(searchlog.ResultID(u.navResults)), // a non-navigational result
	} {
		if id, ok := resp.FindID(url); ok {
			t.Errorf("FindID(%q) = %d, want not found", url, id)
		}
	}
	if _, ok := resp.FindID("www.site1.com/videos"); !ok {
		t.Error("the section page is the query's second result")
	}
	unknown, found := e.Search("no such query")
	if found || unknown.Len() != 0 || unknown.Results() != nil {
		t.Errorf("unknown query: %+v, %v", unknown, found)
	}
	if _, ok := unknown.FindID("www.site1.com/"); ok {
		t.Error("an empty response contains nothing")
	}
}

// TestSearchBuildsNoText pins the point of the lazy response: a caller
// that reads only the page size costs the engine no allocation.
func TestSearchBuildsNoText(t *testing.T) {
	u := testUniverse(t)
	e := New(u)
	queries := []string{
		u.QueryText(u.QueryOf(u.NavPair(3))),
		u.QueryText(u.QueryOf(u.NonNavPair(0))),
		u.QueryText(searchlog.QueryID(u.NumQueries() - 1)),
		"no such query",
	}
	sink := 0
	if n := testing.AllocsPerRun(100, func() {
		for _, q := range queries {
			resp, _ := e.Search(q)
			sink += resp.PageBytes
		}
	}); n != 0 {
		t.Errorf("Search allocates %.1f objects per %d queries, want 0", n, len(queries))
	}
	a, _ := e.Search(queries[1])
	b, _ := e.Search(queries[1])
	if !reflect.DeepEqual(a, b) {
		t.Error("equal queries must give equal responses")
	}
}

var benchSink int

// BenchmarkSearch is the engine half of a cloud miss as the fleet pays
// it under DiscardResults: resolve the query and price the page.
// TestSearchBuildsNoText holds that at 0 allocations.
func BenchmarkSearch(b *testing.B) {
	u := MustUniverse(DefaultConfig())
	e := New(u)
	rng := rand.New(rand.NewSource(1))
	queries := make([]string, 4096)
	for i := range queries {
		queries[i] = u.QueryText(searchlog.QueryID(rng.Intn(u.NumQueries())))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, _ := e.Search(queries[i%len(queries)])
		benchSink += resp.PageBytes
	}
}

// BenchmarkSearchClicked adds what cache expansion reads: the clicked
// result's identifier and its record — rendered per request by a plain
// engine, once per result by one with shared records (the fleet's).
func BenchmarkSearchClicked(b *testing.B) {
	u := MustUniverse(DefaultConfig())
	rng := rand.New(rand.NewSource(1))
	queries := make([]string, 4096)
	clicks := make([]string, len(queries))
	for i := range queries {
		q := searchlog.QueryID(rng.Intn(u.NumQueries()))
		queries[i] = u.QueryText(q)
		pairs := u.PairsForQuery(q)
		clicks[i] = u.ResultURL(u.ResultOf(pairs[rng.Intn(len(pairs))]))
	}
	for _, bc := range []struct {
		name string
		e    *Engine
	}{{"fresh", New(u)}, {"shared", New(u).WithSharedRecords()}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				resp, _ := bc.e.Search(queries[i%len(queries)])
				id, _ := resp.FindID(clicks[i%len(clicks)])
				benchSink += len(bc.e.Record(id))
			}
		})
	}
}
