package pocketcloudlets_test

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation, each driving the same code path as `cmd/experiments`.
// The shared lab (population, logs, replays) is built once per process;
// the first iteration of a log-driven benchmark therefore includes the
// experiment's real computation while later iterations measure the
// cached read — both are reported by -benchtime=1x runs and the
// experiment wall times printed by cmd/experiments.
//
// Run with:
//
//	go test -bench=. -benchmem

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"pocketcloudlets"
	"pocketcloudlets/internal/engine"
	"pocketcloudlets/internal/experiments"
	"pocketcloudlets/internal/fleet"
	"pocketcloudlets/internal/loadgen"
	"pocketcloudlets/internal/scenario"
	"pocketcloudlets/internal/searchlog"
)

var (
	benchLabOnce sync.Once
	benchLab     *experiments.Lab
)

// lab returns the shared benchmark lab: a reduced population (8000
// users, 20 replayed users per class) that keeps the full harness
// under a few minutes while preserving every experiment's shape.
func lab(b *testing.B) *experiments.Lab {
	b.Helper()
	benchLabOnce.Do(func() { benchLab = experiments.NewLab(1, 8000, 20) })
	return benchLab
}

func benchSink(b *testing.B, t experiments.Table) {
	if len(t.Columns) == 0 {
		b.Fatal("experiment produced an empty table")
	}
}

func BenchmarkTable1NVMTrends(b *testing.B) {
	for i := 0; i < b.N; i++ {
		benchSink(b, experiments.Table1().Table())
	}
}

func BenchmarkFig2MemoryEvolution(b *testing.B) {
	for i := 0; i < b.N; i++ {
		benchSink(b, experiments.Fig2().Table())
	}
}

func BenchmarkTable2ItemCounts(b *testing.B) {
	for i := 0; i < b.N; i++ {
		benchSink(b, experiments.Table2().Table())
	}
}

func BenchmarkFig4aQueryCDF(b *testing.B) {
	l := lab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink(b, experiments.Fig4a(l).Table())
	}
}

func BenchmarkFig4bResultCDF(b *testing.B) {
	l := lab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink(b, experiments.Fig4b(l).Table())
	}
}

func BenchmarkFig5Repeatability(b *testing.B) {
	l := lab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink(b, experiments.Fig5(l).Table())
	}
}

func BenchmarkTable3Triplets(b *testing.B) {
	l := lab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink(b, experiments.Table3(l, 10).Table())
	}
}

func BenchmarkFig7PairVolume(b *testing.B) {
	l := lab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink(b, experiments.Fig7(l).Table())
	}
}

func BenchmarkFig8MemoryOverhead(b *testing.B) {
	l := lab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink(b, experiments.Fig8(l).Table())
	}
}

func BenchmarkFig11HashFootprint(b *testing.B) {
	l := lab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink(b, experiments.Fig11(l).Table())
	}
}

func BenchmarkFig12FileSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		benchSink(b, experiments.Fig12().Table())
	}
}

func BenchmarkTable4Breakdown(b *testing.B) {
	l := lab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink(b, experiments.Table4(l).Table())
	}
}

func BenchmarkFig15aLatency(b *testing.B) {
	l := lab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink(b, experiments.Fig15(l).TableTime())
	}
}

func BenchmarkFig15bEnergy(b *testing.B) {
	l := lab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink(b, experiments.Fig15(l).TableEnergy())
	}
}

func BenchmarkFig16PowerTrace(b *testing.B) {
	l := lab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink(b, experiments.Fig16(l).Table())
	}
}

func BenchmarkTable5Navigation(b *testing.B) {
	l := lab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink(b, experiments.Table5(l).Table())
	}
}

func BenchmarkTable6UserClasses(b *testing.B) {
	l := lab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink(b, experiments.Table6(l).Table())
	}
}

func BenchmarkFig17HitRate(b *testing.B) {
	l := lab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink(b, experiments.Fig17(l).Table())
	}
}

func BenchmarkFig18Warmup(b *testing.B) {
	l := lab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink(b, experiments.Fig18(l).Table())
	}
}

func BenchmarkFig19HitBreakdown(b *testing.B) {
	l := lab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink(b, experiments.Fig19(l).Table())
	}
}

func BenchmarkDailyUpdates(b *testing.B) {
	l := lab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink(b, experiments.DailyUpdates(l).Table())
	}
}

func BenchmarkAblationSharedResults(b *testing.B) {
	l := lab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink(b, experiments.AblationSharedResults(l).Table())
	}
}

func BenchmarkAblationDecay(b *testing.B) {
	l := lab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink(b, experiments.AblationDecay(l).Table())
	}
}

func BenchmarkAblationThreeTier(b *testing.B) {
	for i := 0; i < b.N; i++ {
		benchSink(b, experiments.AblationThreeTier().Table())
	}
}

func BenchmarkAblationCoordinatedEviction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		benchSink(b, experiments.AblationCoordinatedEviction().Table())
	}
}

// --- Fleet serving-path benchmarks ---

// fleetRig is the shared fleet benchmark fixture: a small warmed-up
// fleet plus per-user request tapes. Like the lab, it is built once
// per process; the warm-up replays every tape once so steady-state
// iterations measure the hit-dominated serving path.
type fleetRig struct {
	f     *pocketcloudlets.Fleet
	tapes [][]fleet.Request
}

var (
	fleetRigOnce sync.Once
	fleetRigLab  *fleetRig
	fleetRigErr  error
)

// benchUniverseConfig is the shared fleet-benchmark universe.
func benchUniverseConfig() *engine.Config {
	return &engine.Config{
		NavPairs:    8000,
		NonNavPairs: 40000,
		NonNavSegments: []engine.Segment{
			{Queries: 50, ResultsPerQuery: 6},
			{Queries: 200, ResultsPerQuery: 3},
			{Queries: 2000, ResultsPerQuery: 2},
		},
	}
}

func fleetBench(tb testing.TB) *fleetRig {
	tb.Helper()
	fleetRigOnce.Do(func() {
		sim, err := pocketcloudlets.NewSimulation(pocketcloudlets.SimConfig{
			Seed: 1, Users: 512, UniverseConfig: benchUniverseConfig(),
		})
		if err != nil {
			fleetRigErr = err
			return
		}
		content, err := sim.CommunityContent(0, 0.55)
		if err != nil {
			fleetRigErr = err
			return
		}
		f, err := sim.NewFleet(content, fleet.Config{
			Shards: 4, QueueDepth: 8192,
		})
		if err != nil {
			fleetRigErr = err
			return
		}
		rig := &fleetRig{f: f}
		for _, up := range sim.Generator.Users()[:32] {
			tape := loadgen.Tape(sim.Generator, up, 1)
			for _, req := range tape {
				if resp := f.Do(req); resp.Err != nil {
					fleetRigErr = resp.Err
					return
				}
			}
			rig.tapes = append(rig.tapes, tape)
		}
		fleetRigLab = rig
	})
	if fleetRigErr != nil {
		tb.Fatal(fleetRigErr)
	}
	return fleetRigLab
}

// BenchmarkFleetServeDo measures the closed-loop serving path: one
// client blocking on each response.
func BenchmarkFleetServeDo(b *testing.B) {
	rig := fleetBench(b)
	tape := rig.tapes[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if resp := rig.f.Do(tape[i%len(tape)]); resp.Err != nil {
			b.Fatal(resp.Err)
		}
	}
}

// TestFleetServeDoAllocs holds BenchmarkFleetServeDo's closed-loop Do
// to the two allocations the result text it hands the caller costs: one
// string of a result's address and title (engine's Universe.Result), one
// Results slice (DESIGN.md, "The zero-allocation serve path").
func TestFleetServeDoAllocs(t *testing.T) {
	const ceiling = 2
	rig := fleetBench(t)
	tape := rig.tapes[0]
	i := 0
	if n := testing.AllocsPerRun(2000, func() {
		if resp := rig.f.Do(tape[i%len(tape)]); resp.Err != nil {
			t.Fatal(resp.Err)
		}
		i++
	}); n > ceiling {
		t.Errorf("a closed-loop Do allocates %.0f objects, recorded %d", n, ceiling)
	}
}

// BenchmarkFleetServeParallel measures contended throughput: many
// client goroutines, each replaying a different user's tape.
func BenchmarkFleetServeParallel(b *testing.B) {
	rig := fleetBench(b)
	var next atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		tape := rig.tapes[int(next.Add(1))%len(rig.tapes)]
		i := 0
		for pb.Next() {
			if resp := rig.f.Do(tape[i%len(tape)]); resp.Err != nil {
				b.Error(resp.Err)
				return
			}
			i++
		}
	})
}

// BenchmarkFleetServeBatchedParallel measures contended throughput with
// miss coalescing on: the same parallel tape replay as
// BenchmarkFleetServeParallel, but cloud misses park with a dispatcher
// and share batched radio sessions. The delta against the unbatched
// benchmark is the serving-path cost of the coalescing machinery.
func BenchmarkFleetServeBatchedParallel(b *testing.B) {
	rig := fleetBatchBench(b)
	var next atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		tape := rig.tapes[int(next.Add(1))%len(rig.tapes)]
		i := 0
		for pb.Next() {
			if resp := rig.f.Do(tape[i%len(tape)]); resp.Err != nil {
				b.Error(resp.Err)
				return
			}
			i++
		}
	})
}

var (
	fleetBatchRigOnce sync.Once
	fleetBatchRigLab  *fleetRig
	fleetBatchRigErr  error
)

// fleetBatchBench is fleetBench with miss coalescing enabled (its own
// fixture: batching state must not leak into the unbatched benchmarks).
func fleetBatchBench(b *testing.B) *fleetRig {
	b.Helper()
	fleetBatchRigOnce.Do(func() {
		base := fleetBench(b)
		sim, err := pocketcloudlets.NewSimulation(pocketcloudlets.SimConfig{
			Seed: 1, Users: 512, UniverseConfig: benchUniverseConfig(),
		})
		if err != nil {
			fleetBatchRigErr = err
			return
		}
		content, err := sim.CommunityContent(0, 0.55)
		if err != nil {
			fleetBatchRigErr = err
			return
		}
		f, err := sim.NewFleet(content, fleet.Config{
			Shards: 4, QueueDepth: 8192,
			Batch: fleet.BatchOptions{Enabled: true},
		})
		if err != nil {
			fleetBatchRigErr = err
			return
		}
		rig := &fleetRig{f: f, tapes: base.tapes}
		for _, tape := range rig.tapes {
			for _, req := range tape {
				if resp := f.Do(req); resp.Err != nil {
					fleetBatchRigErr = resp.Err
					return
				}
			}
		}
		fleetBatchRigLab = rig
	})
	if fleetBatchRigErr != nil {
		b.Fatal(fleetBatchRigErr)
	}
	return fleetBatchRigLab
}

// --- Million-user fleet benchmark ---

const fleet100kUsers = 100_000

type fleet100kRig struct {
	f    *pocketcloudlets.Fleet
	reqs []fleet.Request
}

var (
	fleet100kOnce sync.Once
	fleet100kLab  *fleet100kRig
	fleet100kErr  error
)

// fleet100kBench builds a fleet with 100,000 resident users, each
// warmed with one pinned request so that every steady-state replay is
// a personal-tier hit, then primed with one full hit pass: a user's
// first post-warm-up hit pays one-time costs (per-cache lookup scratch,
// timeline entries, the pooled reply channel) that are not steady-state
// serving work. The user IDs cover [0, 100k) contiguously, so the whole
// population lives in the dense slot arena. Requests reuse query/click
// pairs from one generated tape; only the user ID varies.
func fleet100kBench(tb testing.TB) *fleet100kRig {
	tb.Helper()
	fleet100kOnce.Do(func() {
		sim, err := pocketcloudlets.NewSimulation(pocketcloudlets.SimConfig{
			Seed: 1, Users: 512, UniverseConfig: benchUniverseConfig(),
		})
		if err != nil {
			fleet100kErr = err
			return
		}
		content, err := sim.CommunityContent(0, 0.55)
		if err != nil {
			fleet100kErr = err
			return
		}
		cfg := fleet.Config{
			Shards: 8, QueueDepth: 8192,
			Population: fleet100kUsers,
		}
		cfg.Options.DiscardResults = true
		f, err := sim.NewFleet(content, cfg)
		if err != nil {
			fleet100kErr = err
			return
		}
		base := loadgen.Tape(sim.Generator, sim.Generator.Users()[0], 1)
		if len(base) == 0 {
			fleet100kErr = errEmptyTape
			return
		}
		reqs := make([]fleet.Request, fleet100kUsers)
		for uid := range reqs {
			r := base[uid%len(base)]
			r.User = searchlog.UserID(uid)
			reqs[uid] = r
		}
		for pass := 0; pass < 2; pass++ { // warm, then prime
			for i := range reqs {
				if resp := f.Do(reqs[i]); resp.Err != nil {
					fleet100kErr = resp.Err
					return
				}
			}
		}
		fleet100kLab = &fleet100kRig{f: f, reqs: reqs}
	})
	if fleet100kErr != nil {
		tb.Fatal(fleet100kErr)
	}
	return fleet100kLab
}

var errEmptyTape = errors.New("bench: empty warm-up tape")

// BenchmarkFleetServe100kUsers measures the steady-state closed-loop
// serve path across 100,000 warmed users: every iteration is a
// personal-tier hit on a different user, walking the dense slot arena
// shard by shard.
func BenchmarkFleetServe100kUsers(b *testing.B) {
	rig := fleet100kBench(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if resp := rig.f.Do(rig.reqs[i%len(rig.reqs)]); resp.Err != nil {
			b.Fatal(resp.Err)
		}
	}
}

// TestFleetServe100kUsersAllocatesNothing holds
// BenchmarkFleetServe100kUsers' steady-state hit at 0 allocations: the
// reply channel is pooled, lookups reuse per-cache scratch buffers, and
// result payloads are skipped under Options.DiscardResults (DESIGN.md,
// "Capacity model").
func TestFleetServe100kUsersAllocatesNothing(t *testing.T) {
	const ceiling = 0
	rig := fleet100kBench(t)
	i := 0
	if n := testing.AllocsPerRun(2000, func() {
		if resp := rig.f.Do(rig.reqs[i%len(rig.reqs)]); resp.Err != nil {
			t.Fatal(resp.Err)
		}
		i++
	}); n > ceiling {
		t.Errorf("a warmed hit allocates %.0f objects, recorded %d", n, ceiling)
	}
}

// BenchmarkFleetSubmit measures the open-loop submission path
// (enqueue plus shed decision; the drain falls outside the timer).
func BenchmarkFleetSubmit(b *testing.B) {
	rig := fleetBench(b)
	tape := rig.tapes[1%len(rig.tapes)]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rig.f.Submit(tape[i%len(tape)])
	}
	b.StopTimer()
	rig.f.Drain()
}

// --- Fleet heap gate ---

// TestFleetColdFillHeap holds the repository benchmark's cold_fill, at a
// size a test can afford, within 5% of the 2,565 B of live heap per
// resident user recorded (DESIGN.md, "Capacity model"): a fresh 4-shard
// fleet over the scenario universe, its community content from the first
// 100 users' month 0, filled on one goroutine by every user's month-1
// tape, its heap read after a forced collection — community replicas,
// arenas, per-user devices and caches, over the users they are held
// for. One caller and a fixed seed make the number repeat to a few
// bytes on a given toolchain, whatever GOMAXPROCS. A structure that
// grows per user or per record — record text kept instead of named, a
// map sized by configuration — shows here first. The reading was 3,170 B
// while every device carried its own copies of its tier's device, flash
// and radio constants, cumulative stage totals and trace fields, every
// cache a copy of the fleet's Options and a lookup buffer, and arena
// chunks held 1,024 slots.
func TestFleetColdFillHeap(t *testing.T) {
	const users, ceiling = 1000, 2_693 // B/user: 2,565 recorded, +5%
	ucfg := scenario.UniverseConfig()
	sim, err := pocketcloudlets.NewSimulation(pocketcloudlets.SimConfig{
		Seed: 1, Users: users, UniverseConfig: &ucfg,
	})
	if err != nil {
		t.Fatal(err)
	}
	content, err := sim.CommunityContentFrom(0, 0.55, 100)
	if err != nil {
		t.Fatal(err)
	}
	var tapes [][]fleet.Request
	for _, up := range sim.Generator.Users() {
		tapes = append(tapes, loadgen.Tape(sim.Generator, up, 1))
	}
	cfg := fleet.Config{Shards: 4, Population: users}
	cfg.Options.DisableSuggest = true
	base := liveHeap()
	f, err := sim.NewFleet(content, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for _, tape := range tapes {
		for _, req := range tape {
			if resp := f.Do(req); resp.Err != nil {
				t.Fatal(resp.Err)
			}
		}
	}
	perUser := float64(liveHeap()-base) / float64(f.Stats().Users)
	// The base counts sim and the tapes, so they must outlive the delta.
	runtime.KeepAlive(sim)
	runtime.KeepAlive(tapes)
	t.Logf("%.0f B/user live after a cold fill", perUser)
	if perUser > ceiling {
		t.Errorf("over the %d B/user ceiling", ceiling)
	}
}

// liveHeap forces a collection and returns the bytes still reachable.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
