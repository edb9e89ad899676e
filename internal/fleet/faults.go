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

// missCtx carries a cloud-classified miss's plan from classification to
// execution. The plan is computed against the user's model clock as the
// classifying lock hold read it — in that hold when the miss is applied
// there, after it otherwise — and stays valid until the miss is applied:
// a miss applied after the classifying hold is pending
// (shard.pendingMiss), so nothing advances the user's device in between.
type missCtx struct {
	qh, ch uint64
	// in is what the planner reads of the user, captured when the miss
	// was classified.
	in planInput
	// hplan is the miss's one plan: every dispatch it made, for
	// telemetry and the losers' wasted-work charge, and through Delivered
	// the ladder the user's timeline rides. A miss with nothing to hedge
	// across carries the one-launch plan: the single-backend ladder, no
	// wait, no waste.
	hplan faults.HedgedPlan
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

// planMiss plans a miss that route left pending, under no lock — a
// priced plan replays the backend queues, which takes far longer than
// anything else a request does under the shard lock — and then applies
// it in one short hold. The marker is cleared on return; the caller
// delivers resp and then closes the miss's done.
func (sh *shard) planMiss(mt *missTask, resp *Response) {
	mt.mc.plan(sh.cohorts.pricer)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.applyPendingLocked(&mt.t.req, &mt.mc, exchange{}, resp)
	delete(sh.pendingMiss, mt.t.req.User)
}

// chargeWaits charges the user-visible waits a miss carries beyond its
// delivered ladder pl: the extra wait the hedge added on top of the
// ladder (zero for a one-launch plan), and the modeled backend time the
// ladder spent at its replica — failed exchanges' queue-and-service time
// plus the successful exchange's own admission. Both are local device
// time with no extra radio energy (the link idles down naturally while
// the server grinds), and both are zero without hedging or a backend
// model, so the charge is byte-neutral when they are off.
func (mc *missCtx) chargeWaits(dev *device.Device, pl faults.Plan) {
	dev.Busy(mc.hplan.Wait, device.Hedge)
	dev.Busy(pl.BackendWait+pl.FinalBackend(), device.Backend)
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
			dev.Busy(pl.Backoffs[i], device.Backoff)
		}
	}
	return cold
}

// applyMiss applies a planned miss a dispatcher coalesced: the user is
// looked up afresh. The caller releases the miss (releaseMiss) once the
// response is delivered.
func (sh *shard) applyMiss(req *Request, mc *missCtx, x exchange, resp *Response) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.applyPendingLocked(req, mc, x, resp)
}

// applyPendingLocked is applyMiss under a hold the caller took
// (planMiss). Caller holds mu.
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
// dispatcher is still delivering this one.
func (sh *shard) releaseMiss(mt *missTask) {
	sh.mu.Lock()
	delete(sh.pendingMiss, mt.t.req.User)
	sh.mu.Unlock()
	close(mt.done)
}

// applyMissLocked executes a planned cloud miss — the one miss path
// (DESIGN.md, "The miss path"). The plan's failures are replayed on the
// user's device, then either the successful exchange runs — on the
// user's own link, or as the member's slice of a shared session — and
// expands the personal component, or the miss degrades down the ladder.
// The response's stages are what the whole apply charged to the user's
// device, plus on the community rung the stale serve the replica's
// device ran. A clean plan replays nothing, waits for nothing and
// wastes nothing, so it is the fault-free miss. Caller holds mu.
func (sh *shard) applyMissLocked(st *userState, req *Request, mc *missCtx, x exchange, resp *Response) {
	pl := mc.hplan.Delivered()
	sh.ctr.bookPlan(&mc.hplan, pl, sh.cohorts.bk)
	*resp = Response{Source: SourceCloud}
	resp.Req = *req
	if st.rt.injs[0] != nil {
		resp.Attempts = pl.Attempts
	}
	dev, link := st.cache.Device(), st.rt.link
	mark := dev.Stages()
	var replica device.Stages
	// The losers' attempts ran beside the winner's, off the link: pure
	// energy waste, zero for a one-launch plan.
	failedActive, wasteJ := pl.FailedActive, link.ActiveEnergy(mc.hplan.WastedActive)
	if !pl.Success {
		// A hedged miss degrades only once its last ladder has given up,
		// and an exhausted ladder may still have burned backend time on
		// engine errors: the user waits both out after the replay.
		cold := replayFailedAttempts(dev, pl)
		mc.chargeWaits(dev, pl)
		resp.Source, resp.Outcome, replica = sh.degradeLocked(st, req.Query, mc.qh, pl)
		resp.RadioJ = link.ActiveEnergy(failedActive) + float64(cold)*link.TailEnergy() + wasteJ
	} else {
		// A hedged clone win waits out the winner's launch stagger before
		// its ladder starts; the primary's doomed attempts run
		// concurrently during it and are charged as waste, off the link.
		mc.chargeWaits(dev, pl)
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
			if !resp.Outcome.WasWarm {
				cold++
			}
			resp.RadioJ = link.ActiveEnergy(resp.Outcome.RadioActive+failedActive) + wasteJ
			resp.RadioJ += float64(cold) * link.TailEnergy()
		}
		sh.recordExpansion(st, mc.qh, mc.ch, resp.Outcome.Stored)
	}
	resp.Outcome.Stages = dev.Since(mark)
	resp.Outcome.Stages.Add(&replica)
	st.served++
	sh.clock(st).Observe()
	resp.EnergyJ = sh.basePower*resp.Outcome.ResponseTime().Seconds() + resp.RadioJ
}

// degradeLocked serves a miss whose retry ladder exhausted, walking the
// degradation rungs: a stale answer from the user's personal component,
// a stale answer from the community replica, or the explicit locally
// rendered "results unavailable" page. The outcome carries the failed
// attempts' radio-active time — an unreachable cloud is slow *and*
// costs energy before the fallback even starts — and no stages: the
// caller reads those off the user's device, and replica is what the
// community rung's stale serve charged to the replica's. Caller holds mu
// and has replayed the delivered ladder pl.
func (sh *shard) degradeLocked(st *userState, query string, qh uint64, pl faults.Plan) (src Source, out pocketsearch.Outcome, replica device.Stages) {
	out.RadioActive = pl.FailedActive
	switch {
	case st.cache.ContainsQuery(qh):
		stale, _ := st.cache.ServeStale(query)
		out.Results = stale.Results
	case sh.community.ContainsQuery(qh):
		stale, _ := sh.community.ServeStale(query)
		out.Results, replica = stale.Results, stale.Stages
	default:
		dev := st.cache.Device()
		dev.Busy(pocketsearch.LookupCost, device.Lookup)
		dev.Render(pocketsearch.UnavailablePageBytes)
		dev.Misc()
		return SourceUnavailable, out, replica
	}
	return SourceDegraded, out, replica
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
