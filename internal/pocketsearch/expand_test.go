package pocketsearch

import (
	"fmt"
	"testing"

	"pocketcloudlets/internal/device"
	"pocketcloudlets/internal/flashsim"
	"pocketcloudlets/internal/hash64"
	"pocketcloudlets/internal/radio"
)

// TestFailedStoreLeavesCleanMiss corrupts, under the cache, the
// database file a miss is about to expand into (no header line, so the
// write fails): the pair must not enter the index — an indexed pair
// whose record cannot be fetched turns every repeat of the query into a
// "hit fetch" error — and the expansion must not be counted.
func TestFailedStoreLeavesCleanMiss(t *testing.T) {
	f := newFixture(t, 0, Options{})
	q, url := f.pairStrings(f.u.NonNavPair(0))
	qh, ch := hash64.Sum(q), hash64.Sum(url)
	// The name resultdb gives the file is its default prefix plus index.
	name := fmt.Sprintf("psdb-%d.db", f.cache.DB().FileOf(ch))
	f.dev.Store().ReplaceSilently(name, []byte("not a database file"))

	for attempt := 1; attempt <= 2; attempt++ {
		out, err := f.cache.Query(q, url)
		if err != nil {
			t.Fatalf("attempt %d: %v", attempt, err)
		}
		if out.Hit || out.Stages.Network() == 0 {
			t.Fatalf("attempt %d: want a cloud miss, got %+v", attempt, out)
		}
		if out.Stored != 0 {
			t.Errorf("attempt %d: a failed store reported %d stored bytes", attempt, out.Stored)
		}
	}
	st := f.cache.Stats()
	if st.Misses != 2 || st.Hits != 0 || st.Expansions != 0 {
		t.Errorf("stats = %+v, want 2 misses and no expansion", st)
	}
	if _, ok := f.cache.Probe(qh, ch); ok || f.cache.ContainsQuery(qh) {
		t.Error("the pair was indexed although its record was not stored")
	}
	if got := f.cache.Autocomplete(q[:2], 5); len(got) != 0 {
		t.Errorf("the query was offered for completion: %+v", got)
	}
}

// TestStoredReportsTheDatabaseGrowth holds Outcome.Stored — what the
// fleet books against a user's flash budget — against the database's
// own size, including the expansion that stores nothing because an
// alias query already cached the same result.
func TestStoredReportsTheDatabaseGrowth(t *testing.T) {
	f := newFixture(t, 0, Options{})
	q, url := f.pairStrings(f.u.NavPair(40))
	alias, aliasURL := f.pairStrings(f.u.NavPair(41)) // same block, same front page
	if aliasURL != url || alias == q {
		t.Fatalf("fixture: %q/%q and %q/%q should be alias queries of one page", q, url, alias, aliasURL)
	}
	var total int64
	for _, step := range []struct {
		query    string
		wantHit  bool
		wantGrow bool
	}{{q, false, true}, {q, true, false}, {alias, false, false}} {
		before := f.cache.DB().LogicalBytes()
		out, err := f.cache.Query(step.query, url)
		if err != nil {
			t.Fatal(err)
		}
		grew := f.cache.DB().LogicalBytes() - before
		if out.Hit != step.wantHit || out.Stored != grew || (grew > 0) != step.wantGrow {
			t.Errorf("%q: hit %v stored %d, database grew %d (want hit %v, growth %v)",
				step.query, out.Hit, out.Stored, grew, step.wantHit, step.wantGrow)
		}
		total += out.Stored
	}
	if total != f.dev.Store().LogicalBytes() {
		t.Errorf("stored %d bytes in all, the flash store holds %d", total, f.dev.Store().LogicalBytes())
	}
	if f.cache.Stats().Expansions != 2 {
		t.Errorf("expansions = %d, want 2 (the alias indexes a pair without storing a record)", f.cache.Stats().Expansions)
	}
}

// BenchmarkQueryMiss is the per-request cost of a cold fill as the
// fleet pays it: a cloud miss whose clicked result is cached, on a
// per-user cache that starts empty and is replaced after a user's
// month of expansions (~40 records over 32 files).
func BenchmarkQueryMiss(b *testing.B) {
	const perUser = 40
	f := newFixture(b, 0, Options{DiscardResults: true, DisableSuggest: true})
	queries := make([]string, 1024)
	clicks := make([]string, len(queries))
	for i := range queries {
		queries[i], clicks[i] = f.pairStrings(f.u.NonNavPair(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%perUser == 0 {
			b.StopTimer()
			dev := device.New(device.Config{}, radio.ThreeG(), flashsim.Params{})
			cache, err := New(dev, f.eng, Options{DiscardResults: true, DisableSuggest: true})
			if err != nil {
				b.Fatal(err)
			}
			f.cache = cache
			b.StartTimer()
		}
		out, err := f.cache.Query(queries[i%len(queries)], clicks[i%len(clicks)])
		if err != nil || out.Hit || out.Stored == 0 {
			b.Fatalf("iteration %d: %+v, %v", i, out, err)
		}
	}
}
