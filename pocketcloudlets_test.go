package pocketcloudlets_test

import (
	"sync"
	"testing"

	"pocketcloudlets"
	"pocketcloudlets/internal/engine"
)

// The facade tests drive the library exactly as the examples do, on a
// reduced simulation shared across tests.
var (
	simOnce sync.Once
	sim     *pocketcloudlets.Simulation
	content pocketcloudlets.Content
)

func testSim(t *testing.T) (*pocketcloudlets.Simulation, pocketcloudlets.Content) {
	t.Helper()
	simOnce.Do(func() {
		ucfg := engine.Config{
			NavPairs:    8000,
			NonNavPairs: 40000,
			NonNavSegments: []engine.Segment{
				{Queries: 50, ResultsPerQuery: 6},
				{Queries: 200, ResultsPerQuery: 3},
				{Queries: 2000, ResultsPerQuery: 2},
			},
		}
		s, err := pocketcloudlets.NewSimulation(pocketcloudlets.SimConfig{
			Seed: 5, Users: 500, UniverseConfig: &ucfg,
		})
		if err != nil {
			panic(err)
		}
		c, err := s.CommunityContent(0, 0.55)
		if err != nil {
			panic(err)
		}
		sim, content = s, c
	})
	return sim, content
}

func TestSimulationEndToEnd(t *testing.T) {
	s, c := testSim(t)
	phone := s.NewPhone(pocketcloudlets.Radio3G)
	ps, err := s.NewPocketSearch(phone, c, pocketcloudlets.Options{})
	if err != nil {
		t.Fatal(err)
	}

	// A popular pair hits locally.
	q, url := s.PairStrings(c.Triplets[0].Pair)
	out, err := ps.Query(q, url)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Hit {
		t.Fatal("most popular pair should hit")
	}
	if phone.Link().Wakeups() != 0 {
		t.Error("hit should not wake the radio")
	}

	// Auto-suggest returns results without cost.
	if res := ps.Suggest(q); len(res) == 0 {
		t.Error("Suggest should return cached results")
	}
	if res := ps.Suggest("definitely not cached"); res != nil {
		t.Error("Suggest on unknown query should be empty")
	}

	// An uncached tail pair misses over the radio then hits on repeat.
	tail := s.Universe.NonNavPair(39999)
	tq, turl := s.PairStrings(tail)
	miss, err := ps.Query(tq, turl)
	if err != nil {
		t.Fatal(err)
	}
	if miss.Hit || miss.Stages.Network() == 0 {
		t.Error("tail pair should miss over the radio")
	}
	again, _ := ps.Query(tq, turl)
	if !again.Hit {
		t.Error("personalization should cache the missed pair")
	}
}

func TestSyncWithServer(t *testing.T) {
	s, c := testSim(t)
	phone := s.NewPhone(pocketcloudlets.RadioWiFi)
	ps, err := s.NewPocketSearch(phone, c, pocketcloudlets.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Touch one pair so it survives the sync.
	q, url := s.PairStrings(c.Triplets[0].Pair)
	if _, err := ps.Query(q, url); err != nil {
		t.Fatal(err)
	}
	upd, err := s.SyncWithServer(ps, c)
	if err != nil {
		t.Fatal(err)
	}
	if upd.TotalBytes() <= 0 {
		t.Error("update should transfer bytes")
	}
	out, err := ps.Query(q, url)
	if err != nil || !out.Hit {
		t.Errorf("touched pair should still hit after sync: %v %v", out.Hit, err)
	}
}

func TestManagerThroughFacade(t *testing.T) {
	s, _ := testSim(t)
	phone := s.NewPhone(pocketcloudlets.Radio3G)
	m, err := pocketcloudlets.NewManager(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	ads, err := pocketcloudlets.NewKVCloudlet("ads", phone)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Register(ads, pocketcloudlets.Quota{FlashBytes: 1 << 19}); err != nil {
		t.Fatal(err)
	}
	ads.Put(1, 0, 0.5, []byte("banner"))
	if usage, err := m.Usage("ads"); err != nil || usage <= 0 {
		t.Errorf("usage = %d, %v", usage, err)
	}
	if _, err := pocketcloudlets.NewKVCloudlet("x", nil); err == nil {
		t.Error("nil device should fail")
	}
}

func TestPocketAdsThroughFacade(t *testing.T) {
	s, c := testSim(t)
	phone := s.NewPhone(pocketcloudlets.Radio3G)
	ps, err := s.NewPocketSearch(phone, c, pocketcloudlets.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ads, err := s.NewPocketAds(phone, c)
	if err != nil {
		t.Fatal(err)
	}
	if ads.Len() == 0 {
		t.Fatal("provisioned ad cache is empty")
	}
	if _, err := s.NewPocketAds(nil, c); err == nil {
		t.Error("nil device should fail")
	}
	// Find a cached, monetized query and serve it end to end.
	for _, tr := range c.Triplets {
		q, url := s.PairStrings(tr.Pair)
		out, err := ps.Query(q, url)
		if err != nil {
			t.Fatal(err)
		}
		if served := ads.Serve(q, out.Hit); out.Hit && len(served) > 0 {
			if ads.PendingImpressions() == 0 {
				t.Error("impressions should be logged")
			}
			return
		}
	}
	t.Error("no monetized cached query found")
}

func TestRadioTechStrings(t *testing.T) {
	if pocketcloudlets.Radio3G.String() != "3G" ||
		pocketcloudlets.RadioEDGE.String() != "Edge" ||
		pocketcloudlets.RadioWiFi.String() != "802.11g" {
		t.Error("RadioTech strings mismatch")
	}
}

func TestSimValidation(t *testing.T) {
	if _, err := pocketcloudlets.NewSimulation(pocketcloudlets.SimConfig{
		UniverseConfig: &engine.Config{NavPairs: 7, NonNavPairs: 10},
	}); err == nil {
		t.Error("invalid universe config should fail")
	}
	s, _ := testSim(t)
	if _, err := s.NewPocketSearch(nil, pocketcloudlets.Content{}, pocketcloudlets.Options{}); err == nil {
		t.Error("nil device should fail")
	}
	if _, err := s.CommunityContent(0, 0); err == nil {
		t.Error("invalid share should fail")
	}
}
