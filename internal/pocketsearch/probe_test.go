package pocketsearch

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"pocketcloudlets/internal/cachegen"
	"pocketcloudlets/internal/device"
	"pocketcloudlets/internal/engine"
	"pocketcloudlets/internal/flashsim"
	"pocketcloudlets/internal/hash64"
	"pocketcloudlets/internal/radio"
	"pocketcloudlets/internal/searchlog"
	"pocketcloudlets/internal/workload"
)

// refQuery is Query as it served a hit before the index was probed once
// per hit (Cache.Hit): the sorted lookup twice over, a SetScore search
// per result with math.Exp per sibling, Score, MarkAccessed — each its
// own walk of the query's chain. Kept as the oracle Hit answers to. It
// writes a hit's stages by hand, as the cache once did, so the vector Hit
// reads off the device answers to code that never calls Since.
func refQuery(c *Cache, queryText, clickURL string) (Outcome, error) {
	qh, ch := hash64.Sum(queryText), hash64.Sum(clickURL)
	c.stats.queries.Add(1)

	var out Outcome
	mark := c.dev.Stages()
	out.Stages[device.Lookup] = LookupCost
	c.dev.Busy(LookupCost, device.Lookup)

	refs := c.lookupScratch(qh)
	var clickCached bool
	for _, r := range refs {
		if r.ResultHash == ch {
			clickCached = true
			break
		}
	}
	if len(refs) > 0 && clickCached {
		c.stats.hits.Add(1)
		out.Hit = true
		shown := c.opts.ResultsShown
		if shown > len(refs) {
			shown = len(refs)
		}
		for _, r := range refs[:shown] {
			rec, lat, err := c.db.GetView(r.ResultHash)
			if err != nil {
				return out, fmt.Errorf("pocketsearch: hit fetch: %w", err)
			}
			out.Stages[device.Fetch] += lat
			if !c.opts.DiscardResults {
				res, err := engine.ParseRecord(rec)
				if err != nil {
					return out, fmt.Errorf("pocketsearch: hit parse: %w", err)
				}
				out.Results = append(out.Results, res)
			}
		}
		c.dev.Busy(out.Stages[device.Fetch], device.Fetch)
		out.Stages[device.Render] = c.dev.Render(ResultsPageBytes)
		out.Stages[device.Misc] = c.dev.Misc()
		if !c.opts.DisablePersonalization {
			for _, r := range c.lookupScratch(qh) {
				if r.ResultHash == ch {
					c.table.SetScore(qh, ch, r.Score+1)
				} else {
					c.table.SetScore(qh, r.ResultHash, r.Score*math.Exp(-c.opts.Lambda))
				}
			}
			if s, ok := c.table.Score(qh, ch); ok {
				c.indexQuery(qh, queryText, s*suggestPersonalBoost)
			}
		}
		c.table.MarkAccessed(qh, ch)
		return out, nil
	}

	c.stats.misses.Add(1)
	resp, found := c.eng.Search(queryText)
	tr := c.dev.NetworkRequest(QueryRequestBytes, MissPageBytes(resp))
	return c.missOutcome(qh, ch, queryText, clickURL, resp, found, mark, tr), nil
}

// TestProbedHitMatchesChainWalks replays 200 users' month tapes, seeds 1
// and 7, through two caches each — one served by Query, one by refQuery
// — preloaded with the same community content, so hits land on
// multi-result queries (siblings decay), on expansions of earlier misses
// and on the preload. After every request the outcomes, device clocks
// and energy meters agree; after every user so do the tables, scores
// bit for bit and accessed flags included, and the activity counters.
func TestProbedHitMatchesChainWalks(t *testing.T) {
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
	eng := engine.New(u)
	users := 200
	if testing.Short() {
		users = 40
	}
	for _, seed := range []int64{1, 7} {
		cfg := workload.DefaultConfig(u, users, seed)
		cfg.FavNavRanks, cfg.FavNonNavRanks = 2000, 6000
		g, err := workload.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		tbl := searchlog.ExtractTriplets(g.MonthLog(0).Entries)
		n, err := cachegen.SelectByShare(tbl, 0.55)
		if err != nil {
			t.Fatal(err)
		}
		content := cachegen.Generate(tbl, u, n)

		var hits, decayed int
		for i, up := range g.Users() {
			// Every other user runs as a load run does.
			opts := Options{DiscardResults: i%2 == 1, DisableSuggest: i%2 == 1}
			build := func() *Cache {
				dev := device.New(device.Config{}, radio.ThreeG(), flashsim.Params{})
				c, err := Build(dev, eng, content, opts)
				if err != nil {
					t.Fatal(err)
				}
				dev.Reset()
				return c
			}
			got, want := build(), build()
			for k, e := range g.UserStream(up, 1) {
				q, click := u.QueryText(u.QueryOf(e.Pair)), u.ResultURL(u.ResultOf(e.Pair))
				if siblings := len(want.table.Lookup(hash64.Sum(q))); siblings > 1 && want.table.ContainsRef(hash64.Sum(q), hash64.Sum(click)) {
					decayed++
				}
				out, err1 := got.Query(q, click)
				ref, err2 := refQuery(want, q, click)
				if err1 != nil || err2 != nil {
					t.Fatalf("seed %d user %d request %d: errors %v, %v", seed, up.ID, k, err1, err2)
				}
				if !reflect.DeepEqual(out, ref) {
					t.Fatalf("seed %d user %d request %d: outcome %+v, the chain walks gave %+v", seed, up.ID, k, out, ref)
				}
				if got.dev.Now() != want.dev.Now() ||
					math.Float64bits(got.dev.TotalEnergy()) != math.Float64bits(want.dev.TotalEnergy()) {
					t.Fatalf("seed %d user %d request %d: device at %v with %v J, the chain walks leave it at %v with %v J",
						seed, up.ID, k, got.dev.Now(), got.dev.TotalEnergy(), want.dev.Now(), want.dev.TotalEnergy())
				}
				if out.Hit {
					hits++
				}
			}
			gp, wp := got.table.Pairs(), want.table.Pairs()
			if len(gp) != len(wp) {
				t.Fatalf("seed %d user %d: %d pairs, the chain walks leave %d", seed, up.ID, len(gp), len(wp))
			}
			for j := range gp {
				if gp[j].QueryHash != wp[j].QueryHash || gp[j].ResultHash != wp[j].ResultHash || gp[j].Accessed != wp[j].Accessed ||
					math.Float64bits(gp[j].Score) != math.Float64bits(wp[j].Score) {
					t.Fatalf("seed %d user %d pair %d: %+v, the chain walks leave %+v", seed, up.ID, j, gp[j], wp[j])
				}
			}
			if got.Stats() != want.Stats() {
				t.Fatalf("seed %d user %d: stats %+v, the chain walks count %+v", seed, up.ID, got.Stats(), want.Stats())
			}
			if !reflect.DeepEqual(got.Autocomplete("s", 50), want.Autocomplete("s", 50)) {
				t.Fatalf("seed %d user %d: completion rankings diverge", seed, up.ID)
			}
		}
		if hits == 0 || decayed == 0 {
			t.Fatalf("seed %d: %d hits, %d of them with siblings to decay; the tapes exercised nothing", seed, hits, decayed)
		}
	}
}
