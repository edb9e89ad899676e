package fleet

import (
	"context"
	"sync"
	"time"

	"pocketcloudlets/internal/device"
	"pocketcloudlets/internal/engine"
	"pocketcloudlets/internal/faults"
	"pocketcloudlets/internal/hash64"
	"pocketcloudlets/internal/pocketsearch"
	"pocketcloudlets/internal/radio"
	"pocketcloudlets/internal/searchlog"
)

// Default circuit-breaker constants.
const (
	DefaultBreakerThreshold = 8
	DefaultBreakerCooldown  = 64
)

// BreakerOptions configure the per-shard circuit breaker. The breaker
// only governs the *wall-clock* retry pacing (faults.RetryPolicy's
// WallPause): when a shard's link looks persistently dead — Threshold
// consecutive misses planned to exhaustion — the breaker opens and the
// next Cooldown misses skip their real pause, so a load test against a
// dead zone degrades fast instead of serializing behind sleeps. It
// never touches modeled outcomes, which stay byte-deterministic.
type BreakerOptions struct {
	// Threshold is the consecutive planned-failure count that opens the
	// breaker. Zero selects DefaultBreakerThreshold; negative disables
	// the breaker entirely.
	Threshold int
	// Cooldown is how many misses skip pacing while open before a
	// half-open probe is paced again (a probe that fails restarts the
	// cooldown; one that succeeds closes the breaker). Zero selects
	// DefaultBreakerCooldown.
	Cooldown int
}

func (o BreakerOptions) withDefaults() BreakerOptions {
	if o.Threshold == 0 {
		o.Threshold = DefaultBreakerThreshold
	}
	if o.Cooldown <= 0 {
		o.Cooldown = DefaultBreakerCooldown
	}
	return o
}

// breaker is one shard's circuit breaker. All methods are nil-safe: a
// nil breaker is permanently closed (always paces, never opens), which
// is how Threshold < 0 and fault-free fleets run.
type breaker struct {
	mu        sync.Mutex
	threshold int
	cooldown  int
	fails     int // consecutive planned failures while closed
	skipped   int // misses that skipped pacing since the breaker opened
	open      bool
	opens     int64
}

func newBreaker(o BreakerOptions) *breaker {
	if o.Threshold < 0 {
		return nil
	}
	return &breaker{threshold: o.Threshold, cooldown: o.Cooldown}
}

// pace reports whether this miss should take its real retry pause.
// Closed: always. Open: skip for the cooldown, then pace one half-open
// probe whose outcome (record) decides what happens next.
func (b *breaker) pace() bool {
	if b == nil {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.open {
		return true
	}
	if b.skipped < b.cooldown {
		b.skipped++
		return false
	}
	return true
}

// record books one miss's planned outcome into the breaker state.
func (b *breaker) record(success bool) {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if success {
		b.open, b.fails, b.skipped = false, 0, 0
		return
	}
	if b.open {
		if b.skipped >= b.cooldown {
			// The half-open probe failed: restart the cooldown.
			b.skipped = 0
		}
		return
	}
	b.fails++
	if b.fails >= b.threshold {
		b.open, b.skipped = true, 0
		b.opens++
	}
}

// openCount returns the closed→open transitions so far.
func (b *breaker) openCount() int64 {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.opens
}

// missCtx carries a cloud-classified miss's fault plan from
// classification to execution. The plan is computed under the shard
// lock against the user's model clock and stays valid until the miss
// is applied: at most one miss per user is in flight (pendingMiss), so
// nothing advances the user's device in between.
type missCtx struct {
	qh, ch uint64
	// plan is the ladder the user's timeline rides: the single-backend
	// plan, or — when hedged — the winning dispatch's plan (the
	// primary's when every dispatch exhausted).
	plan faults.Plan
	// hedged marks a miss planned across replicas; hplan then carries
	// the full dispatch set for breaker recording, telemetry and the
	// losers' wasted-work charges.
	hedged bool
	hplan  faults.HedgedPlan
}

// planCtxLocked plans one cloud miss's whole attempt/backoff ladder —
// against the single backend, or hedged across the replica set when
// the user's cohort hedges. Caller holds mu. The per-user miss
// sequence number feeds the pure fault hashes so repeats of a query
// draw fresh outcomes, and — being incremented in per-user submission
// order — is identical between the batched and unbatched paths.
func (sh *shard) planCtxLocked(st *userState, uid searchlog.UserID, qh, ch uint64) missCtx {
	st.missSeq++
	mc := missCtx{qh: qh, ch: ch}
	pr := sh.cohorts.pricer
	if st.rt.hedged() {
		mc.hedged = true
		mc.hplan = faults.PlanHedged(st.rt.injs, st.rt.retry, st.rt.hedge, st.rt.link, pr,
			st.clock.Now(), st.cache.Device().Link().TailRemaining(), uint64(uid), qh, st.missSeq)
		mc.plan = mc.hplan.Delivered()
		return mc
	}
	warm := st.cache.Device().Link().State() != radio.Idle
	mc.plan = faults.PlanMiss(st.rt.inj, st.rt.retry, st.rt.link, pr, 0, st.clock.Now(), warm, uint64(uid), qh, st.missSeq)
	return mc
}

// hedgeWait returns the extra user-visible wait the hedge added on top
// of the delivered ladder (zero for unhedged misses).
func (mc missCtx) hedgeWait() time.Duration {
	if !mc.hedged {
		return 0
	}
	return mc.hplan.Wait
}

// backendWait is the modeled backend time the delivered ladder spent at
// its replica: failed exchanges' queue-and-service time plus the
// successful exchange's own admission. Zero without a backend model, so
// every charge site below is byte-neutral when the model is off.
func (mc missCtx) backendWait() time.Duration {
	return mc.plan.BackendWait + mc.plan.FinalBackend()
}

// hedgeWasteJ prices the hedge's losing dispatches in radio energy:
// the active time of every attempt a loser had started when the
// winner's answer canceled it, plus — for each loser whose successful
// exchange was already in flight — one abandoned exchange priced by
// the radio cost model (radio.ExchangeCost with an empty response: the
// request went up, nobody read the answer). Losers run concurrently
// with the winner on the network side, so none of this enters the
// user's modeled latency; it is pure energy waste.
func hedgeWasteJ(p radio.Params, mc missCtx) float64 {
	if !mc.hedged {
		return 0
	}
	active := mc.hplan.WastedActive
	if mc.hplan.Abandoned > 0 {
		active += time.Duration(mc.hplan.Abandoned) * radio.ExchangeCost(p, 0, 0, true).RadioActive
	}
	if active <= 0 {
		return 0
	}
	return p.ActiveEnergy(active)
}

// classifyFaulted routes one request on the fault-injected unbatched
// path: local tiers are served inline (faults only touch the radio);
// a cloud miss comes back as a plan for the caller to pace and then
// complete. miss reports which return is meaningful.
func (sh *shard) classifyFaulted(req Request) (resp Response, mc missCtx, miss bool) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	st, err := sh.user(req.User)
	if err != nil {
		return Response{Req: req, Err: err}, missCtx{}, false
	}
	qh := hash64.Sum(req.Query)
	ch := hash64.Sum(req.Click)
	tier := sh.tierOf(st, qh, ch)
	if tier != SourceCloud {
		return sh.serveLocked(st, req, qh, ch, tier), missCtx{}, false
	}
	if err := sh.materialize(st); err != nil {
		return Response{Req: req, Err: err}, missCtx{}, false
	}
	return Response{}, sh.planCtxLocked(st, req.User, qh, ch), true
}

// replayFailedAttempts charges a plan's failed attempts and backoffs
// against the user's own device, exactly as the analytic plan priced
// them: each failure pays the radio session overhead (wake-up when the
// link is idle, plus the handshake) for nothing, each backoff is local
// wait. It returns how many failed attempts opened a session cold —
// each of those sessions eventually pays a full tail.
func replayFailedAttempts(dev *device.Device, pl faults.Plan) (cold int) {
	for i := 0; i < pl.Failures(); i++ {
		tr := dev.NetworkFailedRequest()
		if !tr.WasWarm {
			cold++
		}
		if i < len(pl.Backoffs) {
			dev.Busy(pl.Backoffs[i], "backoff")
		}
	}
	return cold
}

// completeFaultedMiss executes a planned cloud miss on the unbatched
// path: the failures are replayed on the user's device, then either
// the final successful exchange runs (the ordinary miss path, with the
// failure costs folded into the outcome) or the miss degrades down the
// ladder.
func (sh *shard) completeFaultedMiss(req Request, mc missCtx) Response {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	st, err := sh.user(req.User)
	if err == nil {
		err = sh.materialize(st)
	}
	if err != nil {
		return Response{Req: req, Err: err}
	}
	dev := st.cache.Device()
	if mc.plan.Success {
		// A hedged clone win waits out the winner's launch stagger
		// before its ladder starts; the primary's doomed attempts run
		// concurrently during it and are charged as waste, off the link.
		if w := mc.hedgeWait(); w > 0 {
			dev.Busy(w, "hedge")
		}
		// The backend's queue wait and service time are user-visible
		// wait, charged like hedge wait: local device time, no extra
		// radio energy (the link idles down naturally while the server
		// grinds).
		if w := mc.backendWait(); w > 0 {
			dev.Busy(w, "backend")
		}
	}
	cold := replayFailedAttempts(dev, mc.plan)
	if !mc.plan.Success {
		return sh.degradeLocked(st, req, mc, cold)
	}
	resp := Response{Req: req, Source: SourceCloud, Attempts: mc.plan.Attempts}
	resp.Outcome, resp.Err = st.cache.Query(req.Query, req.Click)
	resp.Outcome.Network += mc.plan.FailedWait + mc.hedgeWait() + mc.backendWait()
	sh.recordExpansion(st, req.User, mc.qh, mc.ch, resp.Outcome.Stored)
	st.served++
	if resp.Outcome.Hit {
		st.hits++
	}
	st.clock.Observe()
	resp.EnergyJ = sh.basePower * resp.Outcome.ResponseTime().Seconds()
	if resp.Err == nil {
		resp.RadioJ = st.rt.link.ActiveEnergy(resp.Outcome.Radio.RadioActive+mc.plan.FailedActive) +
			hedgeWasteJ(st.rt.link, mc)
		if !resp.Outcome.Radio.WasWarm {
			cold++
		}
		resp.RadioJ += float64(cold) * st.rt.link.TailEnergy()
		resp.EnergyJ += resp.RadioJ
	}
	return resp
}

// degradeLocked serves a miss whose retry ladder exhausted, walking the
// degradation rungs: a stale answer from the user's personal component,
// a stale answer from the community replica, or the explicit locally
// rendered "results unavailable" page. The failed attempts' wait and
// radio-active time ride along in the outcome — an unreachable cloud
// is slow *and* costs energy before the fallback even starts. Caller
// holds mu; cold is the count of cold sessions the replay opened.
func (sh *shard) degradeLocked(st *userState, req Request, mc missCtx, cold int) Response {
	resp := Response{Req: req, Attempts: mc.plan.Attempts}
	dev := st.cache.Device()
	// A hedged miss degrades only once its last ladder has given up:
	// the clones' extra exhaust time past the primary's ladder is
	// user-visible wait.
	if w := mc.hedgeWait(); w > 0 {
		dev.Busy(w, "hedge")
	}
	// An exhausted ladder may still have burned backend time on engine
	// errors before giving up — the user waited that out too.
	if w := mc.backendWait(); w > 0 {
		dev.Busy(w, "backend")
	}
	out := pocketsearch.Outcome{
		Network: mc.plan.FailedWait + mc.hedgeWait() + mc.backendWait(),
		Radio:   radio.Transfer{RadioActive: mc.plan.FailedActive, Failed: true},
	}
	graft := func(stale pocketsearch.Outcome) {
		out.Lookup, out.Fetch, out.Render, out.Misc = stale.Lookup, stale.Fetch, stale.Render, stale.Misc
		out.Results = stale.Results
	}
	switch {
	case st.cache.ContainsQuery(mc.qh):
		stale, _ := st.cache.ServeStale(req.Query)
		graft(stale)
		resp.Source = SourceDegraded
	case sh.community.ContainsQuery(mc.qh):
		stale, _ := sh.community.ServeStale(req.Query)
		graft(stale)
		resp.Source = SourceDegraded
	default:
		out.Lookup = pocketsearch.LookupCost
		dev.Busy(pocketsearch.LookupCost, "lookup")
		out.Render = dev.Render(pocketsearch.UnavailablePageBytes)
		out.Misc = dev.Misc()
		resp.Source = SourceUnavailable
	}
	resp.Outcome = out
	st.served++
	st.clock.Observe()
	resp.RadioJ = st.rt.link.ActiveEnergy(mc.plan.FailedActive) +
		float64(cold)*st.rt.link.TailEnergy() + hedgeWasteJ(st.rt.link, mc)
	resp.EnergyJ = sh.basePower*out.ResponseTime().Seconds() + resp.RadioJ
	return resp
}

// applyFaultedBatched applies member slot of a batched session under
// fault injection. A member whose plan failed never produced an
// exchange — slot is -1, bt does not include it — and degrades after
// its failures are replayed; a successful member takes its slice of
// the shared session like any batched miss, plus its own failure
// costs. Clears the user's pending-miss marker either way.
func (sh *shard) applyFaultedBatched(req Request, eresp engine.SearchResponse, found bool, bt radio.BatchTransfer, slot int, mc missCtx) Response {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	delete(sh.pendingMiss, req.User)
	st, err := sh.user(req.User)
	if err == nil {
		err = sh.materialize(st)
	}
	if err != nil {
		return Response{Req: req, Err: err}
	}
	dev := st.cache.Device()
	if mc.plan.Success {
		if w := mc.hedgeWait(); w > 0 {
			dev.Busy(w, "hedge")
		}
		if w := mc.backendWait(); w > 0 {
			dev.Busy(w, "backend")
		}
	}
	cold := replayFailedAttempts(dev, mc.plan)
	if !mc.plan.Success {
		return sh.degradeLocked(st, req, mc, cold)
	}
	resp := Response{Req: req, Source: SourceCloud, BatchSize: bt.Size(), Attempts: mc.plan.Attempts}
	resp.Outcome = st.cache.ApplyBatchedMiss(req.Query, req.Click, eresp, found, bt.ItemLatency(slot), bt.ItemShare(slot))
	resp.Outcome.Network += mc.plan.FailedWait + mc.hedgeWait() + mc.backendWait()
	sh.recordExpansion(st, req.User, mc.qh, mc.ch, resp.Outcome.Stored)
	st.served++
	st.clock.Observe()
	resp.RadioJ = bt.ItemRadioEnergy(st.rt.link, slot) +
		st.rt.link.ActiveEnergy(mc.plan.FailedActive) +
		float64(cold)*st.rt.link.TailEnergy() +
		hedgeWasteJ(st.rt.link, mc)
	resp.EnergyJ = sh.basePower*resp.Outcome.ResponseTime().Seconds() + resp.RadioJ
	return resp
}

// serveFaulted runs one task on the fault-injected unbatched path:
// classify and plan under the shard lock, pace the wall clock for the
// planned failures (unless the shard's breaker is open), then execute
// the plan against the model.
func (f *Fleet) serveFaulted(t task) {
	sh := f.topo.Load().shards[t.shard]
	resp, mc, miss := sh.classifyFaulted(t.req)
	if !miss {
		f.finish(resp, t)
		return
	}
	pace := sh.paceBreaker(mc)
	sh.recordBreakers(mc)
	if pace && !f.pauseWall(mc.plan, t.ctx) {
		f.cancelTask(t)
		return
	}
	f.recordMissPlan(mc)
	f.finish(sh.completeFaultedMiss(t.req, mc), t)
}

// paceBreaker asks the primary replica's circuit breaker whether this
// miss should take its real retry pause.
func (sh *shard) paceBreaker(mc missCtx) bool {
	r := 0
	if mc.hedged {
		r = mc.hplan.Launches[0].Replica
	}
	return sh.breaker(r).pace()
}

// recordBreakers books a planned miss's outcome into the shard's
// circuit breakers: every dispatched replica's breaker learns what its
// own ladder did, so one dead replica opens only its own breaker.
func (sh *shard) recordBreakers(mc missCtx) {
	if !mc.hedged {
		sh.breaker(0).record(mc.plan.Success)
		return
	}
	for _, l := range mc.hplan.Launches {
		sh.breaker(l.Replica).record(l.Plan.Success)
	}
}

// recordMissPlan books a planned miss's retry/hedge telemetry into the
// fleet counters, and its priced-dispatch ledgers into the backend's
// per-replica accounting (shared by the batched and unbatched paths).
func (f *Fleet) recordMissPlan(mc missCtx) {
	f.retries.Add(int64(mc.plan.Attempts - 1))
	if !mc.plan.Success {
		f.exhausted.Add(1)
	}
	if bk := f.cohorts.bk; bk != nil {
		if mc.hedged {
			for i := range mc.hplan.Launches {
				bk.Record(mc.hplan.Launches[i].Plan.Arrivals)
			}
		} else {
			bk.Record(mc.plan.Arrivals)
		}
	}
	if !mc.hedged {
		return
	}
	f.clonesLaunched.Add(int64(mc.hplan.Clones()))
	f.wastedAttempts.Add(int64(mc.hplan.WastedAttempts))
	switch {
	case mc.hplan.Winner == 0:
		f.primaryWins.Add(1)
	case mc.hplan.Winner > 0:
		f.cloneWins.Add(1)
	}
}

// pauseWall takes the real pause the retry policy prices for a plan's
// modeled failure wait. It reports false when ctx was done first — the
// caller abandoned the request mid-pause.
func (f *Fleet) pauseWall(pl faults.Plan, ctx context.Context) bool {
	d := f.cfg.Retry.WallPause(pl.FailedWait)
	if d <= 0 {
		return true
	}
	if ctx == nil {
		time.Sleep(d)
		return true
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return true
	case <-ctx.Done():
		return false
	}
}
