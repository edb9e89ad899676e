package pocketsearch

import (
	"testing"

	"pocketcloudlets/internal/device"
	"pocketcloudlets/internal/hash64"
)

func TestContainsQuery(t *testing.T) {
	f := newFixture(t, 10, Options{})
	q, _ := f.pairStrings(f.u.NavPair(0))
	if !f.cache.ContainsQuery(hash64.Sum(q)) {
		t.Error("preloaded query should be contained")
	}
	if f.cache.ContainsQuery(hash64.Sum("never seen")) {
		t.Error("unknown query should not be contained")
	}
}

// TestServeStale verifies the degraded-serve path: cached results are
// fetched and rendered, the interaction counts as a Stale query — not
// a hit — and no personalization leaks into the cache.
func TestServeStale(t *testing.T) {
	f := newFixture(t, 10, Options{})
	q, url := f.pairStrings(f.u.NavPair(0))

	out, ok := f.cache.ServeStale(q)
	if !ok {
		t.Fatal("cached query should serve stale")
	}
	if out.Hit {
		t.Error("a stale serve is not a hit")
	}
	if len(out.Results) == 0 {
		t.Fatal("stale serve should return cached results")
	}
	if out.Results[0].URL != url {
		t.Errorf("top stale result %q, want cached %q", out.Results[0].URL, url)
	}
	if out.Stages.Network() != 0 || out.RadioActive != 0 {
		t.Error("stale serve must not touch the radio")
	}
	if out.Stages[device.Lookup] != LookupCost || out.Stages[device.Render] == 0 || out.Stages[device.Misc] == 0 {
		t.Errorf("stale serve cost decomposition looks wrong: %+v", out)
	}
	if f.dev.Now() != out.ResponseTime() {
		t.Errorf("device clock advanced %v, want the outcome's %v", f.dev.Now(), out.ResponseTime())
	}

	st := f.cache.Stats()
	if st.Stale != 1 || st.Queries != 1 {
		t.Errorf("Stats = %+v, want 1 query, 1 stale", st)
	}
	if st.Hits != 0 || st.Misses != 0 {
		t.Errorf("stale serve must count neither hit nor miss, got %+v", st)
	}
}

// TestServeStaleUnknownQueryIsFree verifies the miss case: no cached
// results means no answer, no model cost, no counters.
func TestServeStaleUnknownQueryIsFree(t *testing.T) {
	f := newFixture(t, 10, Options{})
	out, ok := f.cache.ServeStale("never seen")
	if ok {
		t.Fatal("unknown query must not serve stale")
	}
	if out.ResponseTime() != 0 {
		t.Errorf("refused stale serve charged %v", out.ResponseTime())
	}
	if f.dev.Now() != 0 {
		t.Errorf("refused stale serve advanced the clock to %v", f.dev.Now())
	}
	if st := f.cache.Stats(); st.Queries != 0 || st.Stale != 0 {
		t.Errorf("refused stale serve bumped stats: %+v", st)
	}
}
