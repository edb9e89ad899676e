package pocketsearch

import (
	"bytes"
	"testing"

	"pocketcloudlets/internal/device"
	"pocketcloudlets/internal/flashsim"
	"pocketcloudlets/internal/hash64"
	"pocketcloudlets/internal/radio"
)

// TestPlainFileUnderADatabaseName: the result database keeps its files
// itself, so a plain file on the device's store under the name the
// database's first file once had stays plain through the cache's writes
// to that file — an expansion and an eviction — byte for byte, and it is
// all the store holds: the bytes the database reports are its own.
func TestPlainFileUnderADatabaseName(t *testing.T) {
	f := newFixture(t, 10, Options{})
	store := f.dev.Store()
	planted := []byte("not a database file")
	store.Write("psdb-0.db", planted)
	plain := func(step string) {
		t.Helper()
		if data, ok := store.Peek("psdb-0.db"); !ok || !bytes.Equal(data, planted) {
			t.Fatalf("%s: the plain file holds %q (exists %v)", step, data, ok)
		}
		if got, db := store.LogicalBytes(), f.cache.DB().LogicalBytes(); got != int64(len(planted)) {
			t.Fatalf("%s: the store holds %d B beside the database's %d B, want the plain file's %d B alone",
				step, got, db, len(planted))
		}
	}
	var stored uint64
	for i := 0; stored == 0 && i < 200; i++ {
		q, url := f.pairStrings(f.u.NonNavPair(i))
		ch := hash64.Sum(url)
		out, err := f.cache.Query(q, url)
		if err != nil {
			t.Fatal(err)
		}
		if out.Stored > 0 && f.cache.DB().FileOf(ch) == 0 {
			stored = ch
		}
	}
	if stored == 0 {
		t.Fatal("no expansion stored a record in file 0")
	}
	plain("after an expansion into file 0")
	if recs := f.cache.DB().RecordsOf(0); len(recs) == 0 {
		t.Fatal("the database's file 0 holds no records")
	}
	if f.cache.EvictResult(stored) == 0 {
		t.Fatal("the eviction freed nothing")
	}
	plain("after an eviction from file 0")
}

// TestStoredReportsTheDatabaseGrowth holds Outcome.Stored — what the
// fleet books against a user's flash budget — against the growth of the
// database's own size, including the expansion that stores nothing
// because an alias query already cached the same result.
func TestStoredReportsTheDatabaseGrowth(t *testing.T) {
	f := newFixture(t, 0, Options{})
	q, url := f.pairStrings(f.u.NavPair(40))
	alias, aliasURL := f.pairStrings(f.u.NavPair(41)) // same block, same front page
	if aliasURL != url || alias == q {
		t.Fatalf("fixture: %q/%q and %q/%q should be alias queries of one page", q, url, alias, aliasURL)
	}
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
