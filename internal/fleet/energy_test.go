package fleet

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"pocketcloudlets/internal/energy"
)

// near reports whether two joule totals agree within the ledger's
// nanojoule rounding slack.
func near(a, b float64) bool {
	scale := math.Max(math.Max(math.Abs(a), math.Abs(b)), 1)
	return math.Abs(a-b) <= 1e-6*scale
}

// TestEnergyStatsCrossFoot: the ledger's device-side counters hold
// exactly the per-response joules the fleet served, each response's
// terms rounded to nanojoules once (energy.Nanojoules), the shard-side
// integrals are positive once anything was served, and the snapshot
// cross-foots.
func TestEnergyStatsCrossFoot(t *testing.T) {
	g := smallGen(t, 64)
	tapes := tapesFor(g, 16, 1)
	f := newTestFleet(t, g, smallContent(t, g), nil)

	var baseNJ, radioNJ int64
	for _, tape := range tapes {
		for _, req := range tape {
			resp := f.Do(req)
			if resp.Shed || resp.Err != nil {
				t.Fatalf("request failed: %+v", resp)
			}
			baseNJ += energy.Nanojoules(resp.EnergyJ - resp.RadioJ)
			radioNJ += energy.Nanojoules(resp.RadioJ)
		}
	}
	f.Drain()

	s := f.EnergyStats()
	if s.DeviceBaseJ != energy.Joules(baseNJ) || s.RadioJ != energy.Joules(radioNJ) {
		t.Errorf("ledger base %g J and radio %g J, responses folded to %g J and %g J",
			s.DeviceBaseJ, s.RadioJ, energy.Joules(baseNJ), energy.Joules(radioNJ))
	}
	if s.RadioJ <= 0 || s.DeviceBaseJ <= 0 {
		t.Errorf("device counters empty after serving: %+v", s)
	}
	if s.ShardIdleJ <= 0 || s.ShardActiveJ <= 0 {
		t.Errorf("shard integrals empty after serving: %+v", s)
	}
	if got := s.ShardJ(); got != s.ShardIdleJ+s.ShardActiveJ {
		t.Errorf("ShardJ() = %g, components sum to %g", got, s.ShardIdleJ+s.ShardActiveJ)
	}
	if got := s.TotalJ(); got != s.RadioJ+s.DeviceBaseJ+s.ShardJ() {
		t.Errorf("TotalJ() = %g, components sum to %g", got, s.RadioJ+s.DeviceBaseJ+s.ShardJ())
	}
}

// TestEnergyStatsSurvivesResize: retiring shards folds their idle and
// busy integrals into the ledger, so the fleet-wide energy totals are
// conserved across a shrink (and a grow adds shards that start
// charging idle power only from their provisioning instant).
func TestEnergyStatsSurvivesResize(t *testing.T) {
	g := smallGen(t, 64)
	tapes := tapesFor(g, 24, 1)
	f := newRingFleet(t, g, func(cfg *Config) {
		cfg.Shards = 6
		cfg.Placement = mustRing(t, 6)
	})
	serveTapes(t, f, tapes)
	f.Drain()
	before := f.EnergyStats()

	if _, err := f.Resize(3); err != nil {
		t.Fatal(err)
	}
	after := f.EnergyStats()
	// No serving between the snapshots: the makespan is unchanged, so
	// folding the retired shards must conserve both shard integrals
	// exactly (modulo the counters' nanojoule rounding).
	if !near(before.ShardIdleJ, after.ShardIdleJ) {
		t.Errorf("shrink changed idle energy: %g → %g J", before.ShardIdleJ, after.ShardIdleJ)
	}
	if !near(before.ShardActiveJ, after.ShardActiveJ) {
		t.Errorf("shrink lost busy energy: %g → %g J", before.ShardActiveJ, after.ShardActiveJ)
	}
	if before.RadioJ != after.RadioJ || before.DeviceBaseJ != after.DeviceBaseJ {
		t.Errorf("resize touched device counters: %+v → %+v", before, after)
	}

	// The retired shards' serving counters folded into RetiredLoad, and
	// live + retired still account for every booked request.
	rl := f.RetiredLoad()
	if rl.Served == 0 {
		t.Fatal("shrink 6→3 retired no served requests; test exercises nothing")
	}
	var live int64
	for _, sl := range f.ShardLoads() {
		live += sl.Served
	}
	if s := f.Stats(); live+rl.Served != s.Served {
		t.Errorf("live %d + retired %d served != fleet %d", live, rl.Served, s.Served)
	}
}

// TestShardLoadsDuringResize hammers ShardLoads, RetiredLoad and
// EnergyStats while the fleet serves and resizes concurrently — the
// -race gate for the occupancy sampler the autoscaler rides — then
// checks live + retired counters still book every submission.
func TestShardLoadsDuringResize(t *testing.T) {
	g := smallGen(t, 48)
	f := newRingFleet(t, g, func(cfg *Config) {
		cfg.QueueDepth = 4096
	})

	users := g.Users()[:48]
	const clients = 4
	var submitted [clients]int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(users); i += clients {
				for _, req := range requestsFor(g, users[i], 1) {
					f.Do(req)
					submitted[c]++
				}
			}
		}(c)
	}
	var stop atomic.Bool
	var sampler sync.WaitGroup
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		for !stop.Load() {
			var total int64
			for _, sl := range f.ShardLoads() {
				total += sl.Served + sl.Shed
			}
			rl := f.RetiredLoad()
			if total+rl.Served+rl.Shed < 0 {
				panic("negative load sample")
			}
			if es := f.EnergyStats(); es.ShardIdleJ < 0 || es.ShardActiveJ < 0 {
				panic("negative energy sample")
			}
		}
	}()
	for _, n := range []int{6, 3, 5} {
		if _, err := f.Resize(n); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	stop.Store(true)
	sampler.Wait()
	f.Drain()

	var total int64
	for _, n := range submitted {
		total += n
	}
	var live, liveShed int64
	for _, sl := range f.ShardLoads() {
		live += sl.Served
		liveShed += sl.Shed
	}
	rl := f.RetiredLoad()
	s := f.Stats()
	if live+rl.Served != s.Served || liveShed+rl.Shed != s.Shed {
		t.Errorf("live %d/%d + retired %d/%d served/shed != fleet %d/%d",
			live, liveShed, rl.Served, rl.Shed, s.Served, s.Shed)
	}
	if s.Served+s.Shed != total {
		t.Errorf("accounting broke across live resizes: served %d + shed %d != submitted %d",
			s.Served, s.Shed, total)
	}
}
