package fleet

import (
	"time"

	"pocketcloudlets/internal/backend"
	"pocketcloudlets/internal/device"
	"pocketcloudlets/internal/engine"
	"pocketcloudlets/internal/faults"
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
	// cooldown; one that succeeds closes the breaker). It counts every
	// cloud miss whose primary dispatch targets the breaker's replica,
	// planned clean or not, and counts it when the miss is planned —
	// the same with miss coalescing on and off. Zero selects
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

// breaker is one shard's circuit breaker for one replica, guarded by the
// shard lock. All methods are nil-safe: a nil breaker is permanently
// closed (always paces, never opens), which is how Threshold < 0 and
// fault-free fleets run.
type breaker struct {
	threshold int
	cooldown  int
	fails     int // consecutive planned failures while closed
	skipped   int // misses that skipped pacing since the breaker opened
	open      bool
}

// pace reports whether this miss should take its real retry pause.
// Closed: always. Open: skip for the cooldown, then pace one half-open
// probe whose outcome (record) decides what happens next.
func (b *breaker) pace() bool {
	if b == nil || !b.open {
		return true
	}
	if b.skipped < b.cooldown {
		b.skipped++
		return false
	}
	return true
}

// record books one miss's planned outcome into the breaker state and
// reports whether it opened the breaker.
func (b *breaker) record(success bool) (opened bool) {
	switch {
	case b == nil:
	case success:
		b.open, b.fails, b.skipped = false, 0, 0
	case b.open:
		if b.skipped >= b.cooldown {
			// The half-open probe failed: restart the cooldown.
			b.skipped = 0
		}
	default:
		b.fails++
		opened = b.fails >= b.threshold
		if opened {
			b.open, b.skipped = true, 0
		}
	}
	return opened
}

// missCtx carries a cloud-classified miss's plan from classification to
// execution. The plan is computed against the user's model clock as the
// classifying lock hold read it — in that hold when nothing prices the
// miss, after it when a backend does (shard.planMiss) — and stays valid
// until the miss is applied: a miss applied after the classifying hold
// is pending (shard.pendingMiss), so nothing advances the user's device
// in between.
type missCtx struct {
	qh, ch uint64
	// in is what the planner reads of the user, captured when the miss
	// was classified.
	in planInput
	// hplan is the miss's one plan: every dispatch it made, for breaker
	// recording, telemetry and the losers' wasted-work charge, and
	// through Delivered the ladder the user's timeline rides. A miss with
	// nothing to hedge across carries the one-launch plan: the
	// single-backend ladder, no wait, no waste.
	hplan faults.HedgedPlan
	// pause is the real pause the miss owes before it is applied: the
	// retry policy's wall-clock price of the plan's modeled failure
	// wait, zero for a clean ladder and while the primary replica's
	// breaker is open.
	pause time.Duration
}

// planInput is the user's side of a miss plan: their cohort runtime,
// model clock, radio tail and miss sequence number at classification.
type planInput struct {
	rt        *cohortRT
	now, tail time.Duration
	uid, seq  uint64
}

// exchange selects the radio exchange a planned miss's successful
// attempt rides. The zero value is the user's own link (cache.Query
// runs the engine visit and the exchange itself); with bt set it is
// member slot of a shared uplink session, whose engine response the
// batch's single engine visit already fetched. A batch of one is not
// the user's own link — the shared uplink is a different one — so this
// stays a two-valued parameter, chosen by whether a dispatcher exists.
// A member whose plan failed never produced an exchange: its slot is
// -1 and bt does not include it.
type exchange struct {
	bt    *radio.BatchTransfer
	slot  int
	eresp engine.SearchResponse
	found bool
}

// classifyLocked opens one cloud miss: it numbers the miss and captures
// what the planner reads of the user. Caller holds mu. The per-user miss
// sequence number feeds the pure fault hashes so repeats of a query draw
// fresh outcomes, and — incremented in per-user submission order — is
// identical between the two exchanges.
func (sh *shard) classifyLocked(st *userState, uid searchlog.UserID, qh, ch uint64) missCtx {
	st.missSeq++
	return missCtx{qh: qh, ch: ch, in: planInput{
		rt: st.rt, now: sh.clock(st).Now(), tail: st.cache.Device().Link().TailRemaining(),
		uid: uint64(uid), seq: st.missSeq,
	}}
}

// plan plans the miss — one planner call, whatever the user's cohort:
// hedged across the replica set when its resolved policy clones, the
// single-backend ladder when not. A user whose cohort has no injector
// plans the clean single-attempt success, for which every fault charge
// downstream is a no-op. It reads only the captured inputs and pr,
// which prices each dispatch against the backend, so it needs no lock.
func (mc *missCtx) plan(pr faults.Pricer) {
	in := &mc.in
	mc.hplan = faults.PlanHedged(in.rt.injs, in.rt.retry, in.rt.hedge, in.rt.link, pr,
		in.now, in.tail, in.uid, mc.qh, in.seq)
}

// settleLocked settles a planned miss's wall-clock pacing with the
// shard's circuit breakers. Caller holds mu: the breakers are asked and
// told here and nowhere else.
func (sh *shard) settleLocked(mc *missCtx) {
	// Every miss asks the primary replica's breaker whether to take its
	// real retry pause — an open breaker's cooldown counts misses, clean
	// ones included (BreakerOptions.Cooldown) — and then every dispatched
	// replica's breaker learns what its own ladder did, so one dead
	// replica opens only its own breaker — and books the opening in the
	// shard's block.
	pace := sh.breaker(mc.hplan.Primary.Replica).pace()
	for i := 0; i < mc.hplan.Launches(); i++ {
		l := mc.hplan.Launch(i)
		if sh.breaker(l.Replica).record(l.Plan.Success) {
			sh.ctr.breakerOpens[l.Replica].Add(1)
		}
	}
	if wait := mc.hplan.Delivered().FailedWait; pace && wait > 0 {
		// Wall-clock pacing stays governed by the fleet-wide policy.
		mc.pause = sh.cohorts.def.retry.WallPause(wait)
	}
}

// planMiss plans a priced miss that route left pending, under no lock —
// pricing replays the backend queues, which takes far longer than
// anything else a request does under the shard lock — and then settles
// it in one short hold, applying it there as well when apply is set and
// the plan owes no wall pause. It reports whether it applied the miss;
// if so the marker is already cleared, and the caller delivers resp and
// then closes the miss's done.
func (sh *shard) planMiss(mt *missTask, apply bool, resp *Response) bool {
	mt.mc.plan(sh.cohorts.pricer)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.settleLocked(&mt.mc)
	if !apply || mt.mc.pause > 0 {
		return false
	}
	sh.applyPendingLocked(&mt.t.req, &mt.mc, exchange{}, resp)
	delete(sh.pendingMiss, mt.t.req.User)
	return true
}

// chargeWaits charges the user-visible waits a miss carries beyond its
// delivered ladder pl and returns their sum: the extra wait the hedge
// added on top of the ladder (zero for a one-launch plan), and the
// modeled backend time the ladder spent at its replica — failed
// exchanges' queue-and-service time plus the successful exchange's own
// admission. Both are local device time with no extra radio energy (the
// link idles down naturally while the server grinds), and both are zero
// without hedging or a backend model, so the charge is byte-neutral
// when they are off.
func (mc *missCtx) chargeWaits(dev *device.Device, pl faults.Plan) time.Duration {
	if w := mc.hplan.Wait; w > 0 {
		dev.Busy(w, "hedge")
	}
	backend := pl.BackendWait + pl.FinalBackend()
	if backend > 0 {
		dev.Busy(backend, "backend")
	}
	return mc.hplan.Wait + backend
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

// applyMiss applies a planned miss that could not be applied under the
// lock hold that planned it — its server paced it first, or a
// dispatcher coalesced it: the user is looked up afresh. The caller
// releases the miss (releaseMiss) once the response is delivered.
func (sh *shard) applyMiss(req *Request, mc *missCtx, x exchange, resp *Response) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.applyPendingLocked(req, mc, x, resp)
}

// applyPendingLocked is applyMiss under a hold the caller took. Caller
// holds mu.
func (sh *shard) applyPendingLocked(req *Request, mc *missCtx, x exchange, resp *Response) {
	st := sh.user(req.User)
	if err := sh.materialize(st); err != nil {
		*resp = Response{Req: *req, Err: err}
		return
	}
	sh.applyMissLocked(st, req, mc, x, resp)
}

// releaseMiss clears a planned miss's pending marker and releases the
// user's waiting requests. Called once the miss's response has been
// delivered — not when it is applied: a marker cleared earlier lets a
// worker serve, and the Observer see, the user's next request while a
// dispatcher is still delivering this one — or, when the caller gave up
// mid-pause, with the plan unapplied (the user's clock never moved).
func (sh *shard) releaseMiss(mt *missTask) {
	sh.mu.Lock()
	delete(sh.pendingMiss, mt.t.req.User)
	sh.mu.Unlock()
	close(mt.done)
}

// applyMissLocked executes a planned cloud miss — the one miss path
// (DESIGN.md, "The miss path"). The plan's failures are replayed on the
// user's device, then either the successful exchange runs — on the
// user's own link, or as the member's slice of a shared session, with
// the failure costs folded into the outcome either way — and expands
// the personal component, or the miss degrades down the ladder. A
// clean plan replays nothing, waits for nothing and wastes nothing, so
// it is the fault-free miss. Caller holds mu.
func (sh *shard) applyMissLocked(st *userState, req *Request, mc *missCtx, x exchange, resp *Response) {
	pl := mc.hplan.Delivered()
	sh.ctr.bookPlan(&mc.hplan, pl, sh.cohorts.bk)
	*resp = Response{Source: SourceCloud}
	resp.Req = *req
	if st.rt.injs[0] != nil {
		resp.Attempts = pl.Attempts
	}
	dev, link := st.cache.Device(), st.rt.link
	// The losers' attempts ran beside the winner's, off the link: pure
	// energy waste, zero for a one-launch plan.
	failedActive, wasteJ := pl.FailedActive, link.ActiveEnergy(mc.hplan.WastedActive)
	if !pl.Success {
		// A hedged miss degrades only once its last ladder has given up,
		// and an exhausted ladder may still have burned backend time on
		// engine errors: the user waits both out after the replay.
		cold := replayFailedAttempts(dev, pl)
		waits := mc.chargeWaits(dev, pl)
		resp.Source, resp.Outcome = sh.degradeLocked(st, req.Query, mc.qh, pl, waits)
		resp.RadioJ = link.ActiveEnergy(failedActive) + float64(cold)*link.TailEnergy() + wasteJ
	} else {
		// A hedged clone win waits out the winner's launch stagger before
		// its ladder starts; the primary's doomed attempts run
		// concurrently during it and are charged as waste, off the link.
		waits := mc.chargeWaits(dev, pl)
		cold := replayFailedAttempts(dev, pl)
		// The two exchanges sum their radio joules in different float
		// orders, and the ledger is exact to the nanojoule: each keeps
		// its own expression.
		if x.bt != nil {
			resp.BatchSize = x.bt.Size()
			resp.Outcome = st.cache.ApplyBatchedMiss(req.Query, req.Click, x.eresp, x.found, x.bt.ItemLatency(x.slot), x.bt.ItemShare(x.slot))
			resp.RadioJ = x.bt.ItemRadioEnergy(link, x.slot) + link.ActiveEnergy(failedActive) +
				float64(cold)*link.TailEnergy() + wasteJ
		} else {
			resp.Outcome, resp.Err = st.cache.QueryHashed(mc.qh, mc.ch, req.Query, req.Click)
			// The radio-active energy of the exchange and, when it opened
			// a session (paid the wake-up), the session's eventual tail.
			if !resp.Outcome.Radio.WasWarm {
				cold++
			}
			resp.RadioJ = link.ActiveEnergy(resp.Outcome.Radio.RadioActive+failedActive) + wasteJ
			resp.RadioJ += float64(cold) * link.TailEnergy()
		}
		resp.Outcome.Network += pl.FailedWait + waits
		sh.recordExpansion(st, mc.qh, mc.ch, resp.Outcome.Stored)
	}
	st.served++
	sh.clock(st).Observe()
	resp.EnergyJ = sh.basePower*resp.Outcome.ResponseTime().Seconds() + resp.RadioJ
}

// degradeLocked serves a miss whose retry ladder exhausted, walking the
// degradation rungs: a stale answer from the user's personal component,
// a stale answer from the community replica, or the explicit locally
// rendered "results unavailable" page. The failed attempts' wait and
// radio-active time ride along in the outcome — an unreachable cloud
// is slow *and* costs energy before the fallback even starts. Caller
// holds mu and has replayed the delivered ladder pl; waits is the hedge
// and backend wait it charged on top.
func (sh *shard) degradeLocked(st *userState, query string, qh uint64, pl faults.Plan, waits time.Duration) (Source, pocketsearch.Outcome) {
	out := pocketsearch.Outcome{
		Network: pl.FailedWait + waits,
		Radio:   radio.Transfer{RadioActive: pl.FailedActive, Failed: true},
	}
	graft := func(stale pocketsearch.Outcome) {
		out.Lookup, out.Fetch, out.Render, out.Misc = stale.Lookup, stale.Fetch, stale.Render, stale.Misc
		out.Results = stale.Results
	}
	switch {
	case st.cache.ContainsQuery(qh):
		stale, _ := st.cache.ServeStale(query)
		graft(stale)
	case sh.community.ContainsQuery(qh):
		stale, _ := sh.community.ServeStale(query)
		graft(stale)
	default:
		dev := st.cache.Device()
		out.Lookup = pocketsearch.LookupCost
		dev.Busy(pocketsearch.LookupCost, "lookup")
		out.Render = dev.Render(pocketsearch.UnavailablePageBytes)
		out.Misc = dev.Misc()
		return SourceUnavailable, out
	}
	return SourceDegraded, out
}

// bookPlan books an applied miss's retry/hedge telemetry into the
// shard's block — pl is the plan's delivered ladder — and every launch's
// priced-dispatch ledger into the backend's per-replica accounting
// (shared by both exchanges; a nil model records nothing). A clean
// one-launch plan adds nothing: the fault-free miss writes no counter it
// would only add zero to. The hedge counters move only for misses the
// plan says were planned across replicas.
func (c *shardCounters) bookPlan(hp *faults.HedgedPlan, pl faults.Plan, bk *backend.Model) {
	if n := pl.Attempts - 1; n > 0 {
		c.retries.Add(int64(n))
	}
	if !pl.Success {
		c.exhausted.Add(1)
	}
	for i := 0; i < hp.Launches(); i++ {
		bk.Record(hp.Launch(i).Plan.Arrivals)
	}
	if !hp.Hedged {
		return
	}
	c.clonesLaunched.Add(int64(hp.Clones()))
	c.wastedAttempts.Add(int64(hp.WastedAttempts))
	switch {
	case hp.Winner == 0:
		c.primaryWins.Add(1)
	case hp.Winner > 0:
		c.cloneWins.Add(1)
	}
}
