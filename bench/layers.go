package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime/metrics"
	"sync"
	"time"

	"pocketcloudlets/internal/autoscale"
	"pocketcloudlets/internal/backend"
	"pocketcloudlets/internal/device"
	"pocketcloudlets/internal/energy"
	"pocketcloudlets/internal/faults"
	"pocketcloudlets/internal/flashsim"
	"pocketcloudlets/internal/fleet"
	"pocketcloudlets/internal/hash64"
	"pocketcloudlets/internal/hashtable"
	"pocketcloudlets/internal/loadgen"
	"pocketcloudlets/internal/modeltime"
	"pocketcloudlets/internal/placement"
	"pocketcloudlets/internal/pocketsearch"
	"pocketcloudlets/internal/radio"
	"pocketcloudlets/internal/resultdb"
	"pocketcloudlets/internal/scenario"
)

// Direct replays: each layer's public API driven single-threaded over
// the workload's own tape, outside the fleet, so a layer's cost is read
// without the queue hops and locks around it. Every replay is repeated
// layerReps times and reported as the median.
const (
	layerReps = 3
	// layerOps caps how many tape requests one replay feeds a layer;
	// faultOps is the cap for the fault planners and the backend pricer,
	// whose calls cost tens of microseconds each.
	layerOps = 20000
	faultOps = 8000
)

// allocSample reads the process's cumulative heap allocation counts
// without stopping the world.
type allocSample struct{ objects, bytes uint64 }

var allocMetrics = []metrics.Sample{
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/heap/tiny/allocs:objects"},
	{Name: "/gc/heap/allocs:bytes"},
}

// readAllocs is only ever called from the goroutine driving the run.
func readAllocs() allocSample {
	metrics.Read(allocMetrics)
	return allocSample{
		objects: allocMetrics[0].Value.Uint64() + allocMetrics[1].Value.Uint64(),
		bytes:   allocMetrics[2].Value.Uint64(),
	}
}

// timerOverhead is the cost of one time.Now pair, subtracted from
// replays that must time each call on its own.
var timerOverhead = func() time.Duration {
	const n = 2000
	t0 := time.Now()
	for i := 0; i < n; i++ {
		_ = time.Since(time.Now())
	}
	return time.Since(t0) / n
}()

// repeatNS runs fn layerReps times inside a call span and returns the
// median of the per-operation nanoseconds each run reports.
func repeatNS(tr *tracer, name string, fn func() float64) float64 {
	var raw []float64
	tr.call("replay."+name, -1, func() {
		for i := 0; i < layerReps; i++ {
			raw = append(raw, fn())
		}
	})
	_, med, _ := quartiles(raw)
	return med
}

// perOp divides an elapsed time by an operation count.
func perOp(d time.Duration, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / float64(n)
}

// flatTape is the first layerOps requests of the workload's tape in
// user order, with the hashes the cache layers key by.
type flatTape struct {
	reqs   []fleet.Request
	qh, ch []uint64
}

func flatten(tapes [][]fleet.Request, ops int) flatTape {
	var ft flatTape
	for _, tape := range tapes {
		for _, req := range tape {
			if len(ft.reqs) == ops {
				return ft
			}
			ft.reqs = append(ft.reqs, req)
			ft.qh = append(ft.qh, hash64.Sum(req.Query))
			ft.ch = append(ft.ch, hash64.Sum(req.Click))
		}
	}
	return ft
}

// referenceFaults is the fault_hedge profile; workloads that inject no
// faults of their own replay the planners under it, so the fault layers
// read on every workload.
func referenceFaults(seed int64) (faults.Options, backend.Options) {
	return faults.Options{
			Enabled: true, Seed: seed, LossProb: 0.1,
			OutageEvery: 30 * time.Second, OutageFor: 6 * time.Second,
		}, backend.Options{
			Enabled: true, Seed: seed, Replicas: 3, CloneFactor: 2,
			ServiceRate: 30, QueueDepth: 16, Discipline: backend.PS,
			Offered: 20, CancelOnWin: true,
		}
}

// layerMetrics measures every direct replay and returns the metrics by
// name.
func layerMetrics(r *rig) (map[string]float64, error) {
	lr := &layerReplay{r: r, tr: r.tr, out: make(map[string]float64)}
	lr.ft = flatten(r.tapes, lr.ops(layerOps))
	for _, step := range []func() error{
		lr.driverLibraries, lr.routing, lr.pocketSearch, lr.hashTable, lr.resultDB,
		lr.engine, lr.faultPlanners, lr.radioAndDevice, lr.bookkeeping,
	} {
		if err := step(); err != nil {
			return nil, err
		}
	}
	return lr.out, nil
}

// layerReplay carries what the direct replays share.
type layerReplay struct {
	r   *rig
	tr  *tracer
	ft  flatTape
	out map[string]float64
	// sink keeps results live so no replayed call is optimised away.
	sink int
}

// ops scales a full-scale operation count down to the rig's scale.
func (lr *layerReplay) ops(full int) int { return max(full/lr.r.scale, 256) }

// driverLibraries replays what only the open-loop driver calls: the
// arrival schedule, the event materialization and the controller step.
func (lr *layerReplay) driverLibraries() error {
	r := lr.r
	arrivals := modeltime.Spec{
		Kind: modeltime.Diurnal, QPS: 300000, Horizon: time.Second / time.Duration(r.scale),
		Seed: r.seed, Max: 10_000_000, PeakTrough: 6,
	}
	var err error
	lr.out["modeltime.schedule_ns_per_arrival"] = repeatNS(lr.tr, "modeltime.Schedule", func() float64 {
		t0 := time.Now()
		arr, serr := modeltime.Schedule(arrivals)
		if serr != nil {
			err = serr
		}
		return perOp(time.Since(t0), len(arr))
	})
	if err != nil {
		return err
	}

	open := r.comp
	if r.spec.Mode != "open" {
		// A closed-loop workload has no schedule of its own: materialize a
		// one-second diurnal one over its population.
		spec := &scenario.Spec{
			Version: 1, Mode: "open", Users: r.spec.Users, Seed: r.seed,
			QPS: 100000, Duration: scenario.Duration(time.Second) / scenario.Duration(r.scale),
			Classes: []scenario.ClassSpec{{
				Name: "day", Share: 1,
				Arrival: &scenario.ArrivalSpec{Process: "diurnal", PeakTrough: 6},
			}},
		}
		if open, err = scenario.Compile(spec, "materialize"); err != nil {
			return err
		}
	}
	lr.out["loadgen.materialize_ns_per_event"] = repeatNS(lr.tr, "scenario.Materialize", func() float64 {
		t0 := time.Now()
		evs, merr := open.Materialize(r.sim.Generator)
		if merr != nil {
			err = merr
		}
		return perOp(time.Since(t0), len(evs))
	})
	if err != nil {
		return err
	}

	lr.out["autoscale.step_ns"] = repeatNS(lr.tr, "autoscale.Step", func() float64 {
		steps := lr.ops(200000)
		ctl := autoscale.New(autoscale.Config{}.WithDefaults(4))
		shards := 4
		t0 := time.Now()
		for i := 0; i < steps; i++ {
			occ := 0.55 + 0.5*math.Sin(float64(i)/40)
			if target, resize := ctl.Step(time.Duration(i)*time.Second, occ, shards); resize {
				shards = target
			}
		}
		return perOp(time.Since(t0), steps)
	})
	return nil
}

// routing replays ShardOf(UserKey(uid)) over the tape's users under
// both placements.
func (lr *layerReplay) routing() error {
	modulo, err := placement.NewModulo(4)
	if err != nil {
		return err
	}
	ring, err := placement.NewRing(4, 0)
	if err != nil {
		return err
	}
	for _, pl := range []struct {
		name string
		p    placement.Placement
	}{{"placement.modulo_shardof_ns", modulo}, {"placement.ring_shardof_ns", ring}} {
		lr.out[pl.name] = repeatNS(lr.tr, pl.name, func() float64 {
			const rounds = 8
			t0 := time.Now()
			for k := 0; k < rounds; k++ {
				for i := range lr.ft.reqs {
					lr.sink += pl.p.ShardOf(placement.UserKey(uint64(lr.ft.reqs[i].User)))
				}
			}
			return perOp(time.Since(t0), rounds*len(lr.ft.reqs))
		})
	}
	return nil
}

// queryCost accumulates individually timed Cache.Query calls by outcome.
type queryCost struct {
	hit, miss    time.Duration
	hits, misses int
	missAllocs   uint64
}

// replayQueries feeds a tape to a cache, timing every call on its own.
func (qc *queryCost) replayQueries(cache *pocketsearch.Cache, tape []fleet.Request) error {
	for _, req := range tape {
		a0 := readAllocs()
		t0 := time.Now()
		o, err := cache.Query(req.Query, req.Click)
		d := time.Since(t0) - timerOverhead
		if err != nil {
			return err
		}
		if o.Hit {
			qc.hit += d
			qc.hits++
		} else {
			qc.miss += d
			qc.misses++
			qc.missAllocs += readAllocs().objects - a0.objects
		}
	}
	return nil
}

// pocketSearch replays Cache.Query the way the fleet's per-user caches
// see it: every user's tape on that user's own, initially empty,
// standalone cache, so first clicks miss (and, when the workload
// personalizes, expand the cache) and repeats hit. A workload that does
// not personalize never hits a personal cache; its hits are read from a
// community-preloaded cache instead, which is where the fleet finds
// them.
func (lr *layerReplay) pocketSearch() error {
	r := lr.r
	opts := pocketsearch.Options{
		DiscardResults: true, DisableSuggest: true,
		DisablePersonalization: r.def.disablePersonalization,
	}
	var hitNS, missNS, missAllocs []float64
	var err error
	lr.tr.call("replay.pocketsearch.Query", -1, func() {
		for rep := 0; rep < layerReps; rep++ {
			var qc queryCost
			for ops, u := 0, 0; u < len(r.tapes) && ops < len(lr.ft.reqs); u++ {
				dev := device.New(device.Config{}, radio.ThreeG(), flashsim.Params{})
				var cache *pocketsearch.Cache
				if cache, err = pocketsearch.New(dev, r.sim.Engine, opts); err != nil {
					return
				}
				if err = qc.replayQueries(cache, r.tapes[u]); err != nil {
					return
				}
				ops += len(r.tapes[u])
			}
			if r.def.disablePersonalization {
				dev := device.New(device.Config{}, radio.ThreeG(), flashsim.Params{})
				var cache *pocketsearch.Cache
				if cache, err = pocketsearch.Build(dev, r.sim.Engine, r.content, opts); err != nil {
					return
				}
				if err = qc.replayQueries(cache, lr.ft.reqs); err != nil {
					return
				}
			}
			hitNS = append(hitNS, perOp(qc.hit, qc.hits))
			missNS = append(missNS, perOp(qc.miss, qc.misses))
			missAllocs = append(missAllocs, float64(qc.missAllocs)/float64(max(qc.misses, 1)))
		}
	})
	if err != nil {
		return err
	}
	_, lr.out["pocketsearch.query_hit_ns"], _ = quartiles(hitNS)
	_, lr.out["pocketsearch.query_miss_ns"], _ = quartiles(missNS)
	_, lr.out["pocketsearch.query_miss_allocs"], _ = quartiles(missAllocs)
	return nil
}

// hashTable puts the tape's (query, click) pairs, then looks them up.
func (lr *layerReplay) hashTable() error {
	ft := lr.ft
	var tbl *hashtable.Table
	lr.out["hashtable.put_ns"] = repeatNS(lr.tr, "hashtable.Put", func() float64 {
		tbl = hashtable.MustNew(2)
		t0 := time.Now()
		for i := range ft.qh {
			tbl.Put(ft.qh[i], hashtable.SearchRef{ResultHash: ft.ch[i], Score: 1})
		}
		return perOp(time.Since(t0), len(ft.qh))
	})
	lr.out["hashtable.lookup_ns"] = repeatNS(lr.tr, "hashtable.LookupInto", func() float64 {
		var buf []hashtable.SearchRef
		t0 := time.Now()
		for _, qh := range ft.qh {
			buf = tbl.LookupInto(qh, buf)
		}
		lr.sink += len(buf)
		return perOp(time.Since(t0), len(ft.qh))
	})
	return nil
}

// resultDB stores the tape's first distinct results and reads them
// back. A per-user database holds tens of records and Put rewrites the
// record's whole file, so the replay keeps to resultdbRecords of them.
func (lr *layerReplay) resultDB() error {
	const resultdbRecords = 256
	u := lr.r.sim.Universe
	var hashes []uint64
	var records [][]byte
	seen := make(map[uint64]bool)
	for i, req := range lr.ft.reqs {
		if len(hashes) == resultdbRecords {
			break
		}
		if id, ok := u.ResolveURL(req.Click); ok && !seen[lr.ft.ch[i]] {
			seen[lr.ft.ch[i]] = true
			hashes = append(hashes, lr.ft.ch[i])
			records = append(records, u.Result(id).Record())
		}
	}
	var (
		db  *resultdb.DB
		err error
	)
	lr.out["resultdb.put_ns"] = repeatNS(lr.tr, "resultdb.Put", func() float64 {
		const rounds = 16
		var total time.Duration
		for k := 0; k < rounds && err == nil; k++ {
			dev := device.New(device.Config{}, radio.ThreeG(), flashsim.Params{})
			if db, err = resultdb.New(dev.Store(), resultdb.Config{Files: resultdb.DefaultFiles}); err != nil {
				return 0
			}
			t0 := time.Now()
			for i, h := range hashes {
				if _, perr := db.Put(h, records[i]); perr != nil {
					err = perr
				}
			}
			total += time.Since(t0)
		}
		return perOp(total, rounds*len(hashes))
	})
	if err != nil {
		return err
	}
	lr.out["resultdb.get_ns"] = repeatNS(lr.tr, "resultdb.GetView", func() float64 {
		const rounds = 64
		t0 := time.Now()
		for k := 0; k < rounds; k++ {
			for _, h := range hashes {
				rec, _, gerr := db.GetView(h)
				if gerr != nil {
					err = gerr
				}
				lr.sink += len(rec)
			}
		}
		return perOp(time.Since(t0), rounds*len(hashes))
	})
	return err
}

// engine replays Engine.Search over the tape's queries.
func (lr *layerReplay) engine() error {
	n := len(lr.ft.reqs)
	var allocs float64
	lr.out["engine.search_ns"] = repeatNS(lr.tr, "engine.Search", func() float64 {
		a0 := readAllocs()
		t0 := time.Now()
		for i := range lr.ft.reqs {
			resp, _ := lr.r.sim.Engine.Search(lr.ft.reqs[i].Query)
			lr.sink += resp.PageBytes
		}
		d := time.Since(t0)
		allocs = float64(readAllocs().objects-a0.objects) / float64(max(n, 1))
		return perOp(d, n)
	})
	lr.out["engine.search_allocs"] = allocs
	return nil
}

// faultPlanners replays the miss planners and the backend pricer over
// the tape's (user, query hash, miss sequence), on a model clock that
// walks through outage cycles. The workload's own fault and backend
// profile is used when it has one, the reference profile otherwise.
func (lr *layerReplay) faultPlanners() error {
	ft, n := lr.ft, min(len(lr.ft.reqs), lr.ops(faultOps))
	ft.reqs = ft.reqs[:n]
	fopts, bopts := referenceFaults(lr.r.seed)
	if cfg := lr.r.cfg; cfg.Faults.Enabled {
		fopts = cfg.Faults
		if cfg.Backend.Enabled {
			// Replica count and clone load are the fleet's to derive.
			bopts = cfg.Backend
			bopts.Replicas, bopts.CloneFactor = 3, 2
		}
	}
	injs := faults.Replicas(faults.New(fopts), 3)
	retry := faults.RetryPolicy{MaxAttempts: 3, WallPauseScale: -1}.WithDefaults()
	hedge := faults.HedgePolicy{CloneFactor: 2}
	link := radio.ThreeG()
	const clockStep = 700 * time.Millisecond

	lr.out["faults.plan_miss_ns"] = repeatNS(lr.tr, "faults.PlanMiss", func() float64 {
		pricer := backend.NewModel(bopts)
		t0 := time.Now()
		for i := range ft.reqs {
			pl := faults.PlanMiss(injs[0], retry, link, pricer, 0, time.Duration(i)*clockStep, false,
				uint64(ft.reqs[i].User), ft.qh[i], uint64(i))
			lr.sink += pl.Attempts
		}
		return perOp(time.Since(t0), n)
	})
	var hedgedAllocs float64
	lr.out["faults.plan_hedged_ns"] = repeatNS(lr.tr, "faults.PlanHedged", func() float64 {
		pricer := backend.NewModel(bopts)
		a0 := readAllocs()
		t0 := time.Now()
		for i := range ft.reqs {
			hp := faults.PlanHedged(injs, retry, hedge, link, pricer, time.Duration(i)*clockStep, 0,
				uint64(ft.reqs[i].User), ft.qh[i], uint64(i))
			lr.sink += hp.Clones()
		}
		d := time.Since(t0)
		hedgedAllocs = float64(readAllocs().objects-a0.objects) / float64(max(n, 1))
		return perOp(d, n)
	})
	lr.out["faults.plan_hedged_allocs"] = hedgedAllocs

	// The fleet prices at each user's own model clock, so arrivals reach
	// a replica out of order; the monotone replay is the best case.
	shuffled := rand.New(rand.NewSource(lr.r.seed)).Perm(n)
	for _, pr := range []struct {
		name  string
		order []int
	}{{"backend.price_ns_inorder", nil}, {"backend.price_ns_outoforder", shuffled}} {
		lr.out[pr.name] = repeatNS(lr.tr, pr.name, func() float64 {
			model := backend.NewModel(bopts)
			t0 := time.Now()
			for i := range ft.reqs {
				k := i
				if pr.order != nil {
					k = pr.order[i]
				}
				ad := model.Price(k%3, time.Duration(k)*clockStep, uint64(ft.reqs[k].User), ft.qh[k], uint64(k), 1)
				lr.sink += int(ad.Wait)
			}
			return perOp(time.Since(t0), n)
		})
	}
	return nil
}

// radioAndDevice replays the analytic exchange cost and the device's
// network request.
func (lr *layerReplay) radioAndDevice() error {
	n := len(lr.ft.reqs)
	link := radio.ThreeG()
	lr.out["radio.exchange_cost_ns"] = repeatNS(lr.tr, "radio.ExchangeCost", func() float64 {
		const rounds = 16
		t0 := time.Now()
		for k := 0; k < rounds; k++ {
			for i := 0; i < n; i++ {
				x := radio.ExchangeCost(link, pocketsearch.QueryRequestBytes, 90000+i, i%2 == 0)
				lr.sink += int(x.Payload)
			}
		}
		return perOp(time.Since(t0), rounds*n)
	})
	lr.out["device.network_request_ns"] = repeatNS(lr.tr, "device.NetworkRequest", func() float64 {
		const rounds = 4
		dev := device.New(device.Config{}, link, flashsim.Params{})
		t0 := time.Now()
		for i := 0; i < rounds*n; i++ {
			x := dev.NetworkRequest(pocketsearch.QueryRequestBytes, 90000+i%1000)
			lr.sink += int(x.Payload)
		}
		return perOp(time.Since(t0), rounds*n)
	})
	return nil
}

// bookkeeping replays the per-response ledger charge and collector
// observation from as many goroutines as the workload has clients: the
// cost one caller sees while the others contend.
func (lr *layerReplay) bookkeeping() error {
	clients := lr.r.clients
	lr.out["energy.counter_add_ns"] = repeatNS(lr.tr, "energy.Counter.Add", func() float64 {
		adds := lr.ops(400000)
		var c energy.Counter
		d := concurrently(clients, func(int) {
			for i := 0; i < adds; i++ {
				c.Add(0.25)
			}
		})
		return perOp(d, adds)
	})
	rec := lr.tr.recorded
	if len(rec) == 0 {
		return fmt.Errorf("no responses were recorded for the collector replay")
	}
	lr.out["loadgen.observe_ns"] = repeatNS(lr.tr, "loadgen.Collector.Observe", func() float64 {
		const rounds = 8
		col := loadgen.NewCollector()
		d := concurrently(clients, func(g int) {
			for k := 0; k < rounds; k++ {
				for i := g; i < len(rec); i += clients {
					col.Observe(rec[i])
				}
			}
		})
		return perOp(d, rounds*len(rec)/clients)
	})
	return nil
}

// concurrently runs fn on n goroutines at once and returns the wall
// time until the last one ends.
func concurrently(n int, fn func(g int)) time.Duration {
	var wg sync.WaitGroup
	t0 := time.Now()
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			fn(g)
		}(g)
	}
	wg.Wait()
	return time.Since(t0)
}
