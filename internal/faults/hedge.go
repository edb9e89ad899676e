package faults

import (
	"time"

	"pocketcloudlets/internal/radio"
)

// Replica derivation. The single-backend model draws every fault from
// one injector; a replicated cloud backend gives each replica its own
// injector so outages, losses and engine errors strike replicas
// independently — the whole point of hedging a miss is that the clone's
// draws are not correlated with the primary's.

// ReplicaOptions derives replica r's fault options from the base
// options. Replica 0 IS the base, byte-identical to the single-backend
// model (the clone-factor-1 equivalence guarantee rests on this).
// Higher replicas get an independent hash seed, and — when a periodic
// outage duty cycle is configured — a deterministic phase shift of the
// cycle, modeling a backend/path outage that hits each replica on its
// own schedule. Absolute outage windows are NOT shifted: they model
// client-side dead zones (a tunnel, airplane mode) that no amount of
// server replication escapes.
func ReplicaOptions(base Options, replica int) Options {
	if replica <= 0 {
		return base
	}
	o := base
	o.Seed = int64(mix(uint64(base.Seed) ^ uint64(replica)*0xA24BAED4963EE407))
	if o.OutageEvery > 0 && o.OutageFor > 0 {
		shift := mix(uint64(base.Seed)^uint64(replica)*0x9FB21C651E98DF25) % uint64(o.OutageEvery)
		o.OutagePhase = base.OutagePhase + time.Duration(shift)
	}
	return o
}

// Replicas builds n per-replica injectors from the base injector.
// Replica 0 is the base injector itself; a nil base or n < 1 yields a
// single-element slice holding the base (possibly nil), so callers can
// always index replica 0.
func Replicas(base *Injector, n int) []*Injector {
	if n < 1 {
		n = 1
	}
	injs := make([]*Injector, n)
	injs[0] = base
	if base == nil {
		return injs[:1]
	}
	for r := 1; r < n; r++ {
		injs[r] = New(ReplicaOptions(base.opts, r))
	}
	return injs
}

// HedgePolicy governs request hedging on the cloud-miss path: how many
// replicas one miss may be dispatched to, how long to wait before each
// additional clone launches, and how many dispatches may be in flight
// at once. The zero value disables hedging.
type HedgePolicy struct {
	// CloneFactor is the total number of dispatches one miss may make,
	// primary included. Values below 2 disable hedging — the miss runs
	// the single-backend ladder against replica 0, byte-identical to an
	// unreplicated fleet.
	CloneFactor int
	// Delay is the stagger between successive launches: clone i waits
	// i×Delay after the primary before dispatching, and only launches
	// if no earlier dispatch has delivered by then. Zero launches all
	// clones immediately with the primary.
	Delay time.Duration
	// MaxInflight caps concurrently outstanding dispatches for one
	// miss. Zero or negative means no cap beyond CloneFactor.
	MaxInflight int
}

// Active reports whether the policy actually hedges.
func (h HedgePolicy) Active() bool { return h.CloneFactor >= 2 }

// WithDefaults normalizes the policy: negative delay becomes
// immediate, a missing inflight cap becomes the clone factor.
func (h HedgePolicy) WithDefaults() HedgePolicy {
	if h.Delay < 0 {
		h.Delay = 0
	}
	if h.MaxInflight <= 0 || h.MaxInflight > h.CloneFactor {
		h.MaxInflight = h.CloneFactor
	}
	return h
}

// HedgeLaunch is one dispatch of a hedged miss: which replica it went
// to, when it launched (offset from the miss start), and the attempt
// ladder it planned there. Losers additionally carry the waste they
// accrued before the winner's answer canceled them.
type HedgeLaunch struct {
	// Replica indexes the replica this dispatch targeted.
	Replica int
	// At is the launch offset from the miss start in model time.
	At time.Duration
	// Plan is the full attempt ladder planned against the replica's
	// injector, starting at the launch offset.
	Plan Plan
	// Warm reports whether the dispatch's first attempt started inside
	// the device link's remaining tail.
	Warm bool
	// Wasted is how many of the ladder's attempts actually started
	// before cancellation and were thrown away (zero for the winner);
	// WastedActive is their radio-active cost.
	Wasted       int
	WastedActive time.Duration
	// Abandoned reports that the dispatch's *successful* exchange was
	// already in flight when the winner's answer arrived — the request
	// went up, the response was discarded. The fleet charges it per the
	// radio cost model (radio.ExchangeCost with an empty response).
	Abandoned bool
}

// HedgedPlan is the analytically simulated outcome of one hedged cloud
// miss across its replica dispatches, before any model state is
// touched — the hedging analogue of Plan, and just as deterministic.
type HedgedPlan struct {
	// Launches are the dispatches that actually happened, in launch
	// order. Launches[0] is always the primary; slots suppressed by an
	// early answer or the inflight cap never appear.
	Launches []HedgeLaunch
	// Winner indexes into Launches the dispatch that delivered the
	// answer, or -1 when every dispatch exhausted its ladder and the
	// miss must degrade.
	Winner int
	// Wait is the extra user-visible wait the hedge added on top of the
	// delivered ladder: the winner's launch offset when a clone wins
	// (zero when the primary wins), or — when all dispatches exhaust —
	// how far past the primary's own exhaustion the last ladder kept
	// trying before the miss degraded.
	Wait time.Duration
	// Aggregate waste across the losing dispatches.
	WastedAttempts int
	WastedActive   time.Duration
	Abandoned      int
}

// Delivered returns the plan whose ladder the user's timeline rides:
// the winner's, or the primary's when every dispatch exhausted.
func (h HedgedPlan) Delivered() Plan {
	if h.Winner >= 0 {
		return h.Launches[h.Winner].Plan
	}
	return h.Launches[0].Plan
}

// Clones is how many dispatches beyond the primary actually launched.
func (h HedgedPlan) Clones() int { return len(h.Launches) - 1 }

// hedgeStart rotates the primary replica per miss so load (and fault
// exposure) spreads across the replica set instead of pinning replica
// 0 as everyone's primary.
func hedgeStart(n int, uid, qh, seq uint64) int {
	if n <= 1 {
		return 0
	}
	x := mix(uid*0x9E3779B97F4A7C15 ^ 0x48ED6E3C0FF1CE00)
	x = mix(x ^ qh)
	x = mix(x ^ seq*0xD1B54A32D192ED03)
	return int(x % uint64(n))
}

// cloneQueryHash perturbs the query hash for clone slot i so a clone
// that lands on the same replica as an earlier slot (CloneFactor >
// replica count) still draws an independent ladder. Slot 0 keeps the
// hash untouched, so the primary's ladder is exactly what the
// single-backend model would have planned on the same replica.
func cloneQueryHash(qh uint64, slot int) uint64 {
	if slot == 0 {
		return qh
	}
	return qh ^ mix(0xC10E5A17_0000_0000^uint64(slot))
}

// PlanHedged simulates one hedged cloud miss analytically: up to
// CloneFactor dispatches, each against its own replica injector, each
// a full PlanMiss ladder starting at its staggered launch offset. The
// winner is the dispatch whose successful exchange starts first (ties
// go to the earlier launch); the answer is considered in hand one
// handshake later, at which point the losers are canceled and charged
// for every attempt they had already started. A clone slot never
// launches if an earlier dispatch's answer is already in hand at its
// launch time, or if the inflight cap is reached.
//
// Like PlanMiss, every decision is a pure function of the injector
// seeds and the caller-supplied identifiers — never of wall time — so
// hedged outcomes are byte-reproducible under -race.
//
// now is the user's model clock, tailLeft how much of the device
// link's post-transfer tail remains at the miss start (zero when
// idle): a dispatch launching inside that window starts warm. The
// primary's concurrent attempts do not keep the modeled link warm for
// clones — their cost is charged analytically, off the link — which
// keeps the plan in exact agreement with the fleet's device replay.
func PlanHedged(injs []*Injector, pol RetryPolicy, hp HedgePolicy, p radio.Params, pr Pricer, now time.Duration, tailLeft time.Duration, uid, qh, seq uint64) HedgedPlan {
	hp = hp.WithDefaults()
	n := len(injs)
	if n == 0 {
		injs, n = []*Injector{nil}, 1
	}
	start := hedgeStart(n, uid, qh, seq)
	if !hp.Active() {
		// Degenerate single dispatch; the fleet never takes this path
		// (it runs the legacy ladder instead), but keep it well-defined.
		pl := PlanMiss(injs[0], pol, p, pr, 0, now, tailLeft > 0, uid, qh, seq)
		w := 0
		if !pl.Success {
			w = -1
		}
		return HedgedPlan{Launches: []HedgeLaunch{{Replica: 0, Plan: pl}}, Winner: w}
	}

	handshake := time.Duration(p.HandshakeRTTs) * p.RTT
	hplan := HedgedPlan{Launches: make([]HedgeLaunch, 0, hp.CloneFactor), Winner: -1}
	answerAt := time.Duration(-1) // earliest instant an answer is in hand; -1 = none yet
	winAnswerAt := time.Duration(0)
	for slot := 0; slot < hp.CloneFactor; slot++ {
		at := time.Duration(slot) * hp.Delay
		if slot > 0 {
			if answerAt >= 0 && answerAt <= at {
				break // an earlier dispatch already delivered
			}
			inflight := 0
			for _, l := range hplan.Launches {
				end := l.At + l.Plan.LadderWait()
				if l.Plan.Success {
					end += l.Plan.FinalBackend()
				}
				if end > at || (l.Plan.Success && end == at) {
					inflight++
				}
			}
			if inflight >= hp.MaxInflight {
				continue
			}
		}
		rep := (start + slot) % n
		warm := at < tailLeft
		pl := PlanMiss(injs[rep], pol, p, pr, rep, now+at, warm, uid, cloneQueryHash(qh, slot), seq)
		hplan.Launches = append(hplan.Launches, HedgeLaunch{Replica: rep, At: at, Plan: pl, Warm: warm})
		if pl.Success {
			handAt := at + pl.LadderWait() + pl.FinalBackend() + handshake
			if answerAt < 0 || handAt < answerAt {
				answerAt = handAt
			}
		}
	}

	// Pick the winner: earliest answer in hand — ladder, queue and
	// service time included, so a fast replica beats a congested one
	// even when the congested dispatch's exchange *started* first. Ties
	// go to the earlier launch.
	for i, l := range hplan.Launches {
		if !l.Plan.Success {
			continue
		}
		handAt := l.At + l.Plan.LadderWait() + l.Plan.FinalBackend() + handshake
		if hplan.Winner < 0 || handAt < winAnswerAt {
			hplan.Winner, winAnswerAt = i, handAt
		}
	}

	if hplan.Winner < 0 {
		// Every dispatch exhausted. The primary's ladder is the user's
		// replayed timeline; the clones' whole ladders are waste, and
		// the miss degrades only once the last ladder has given up.
		exhaustAt := time.Duration(0)
		for i := range hplan.Launches {
			l := &hplan.Launches[i]
			if end := l.At + l.Plan.LadderWait(); end > exhaustAt {
				exhaustAt = end
			}
			if i == 0 {
				continue
			}
			l.Wasted = l.Plan.Attempts
			l.WastedActive = l.Plan.FailedActive
			hplan.WastedAttempts += l.Wasted
			hplan.WastedActive += l.WastedActive
		}
		if extra := exhaustAt - hplan.Launches[0].Plan.LadderWait(); extra > 0 {
			hplan.Wait = extra
		}
		return hplan
	}

	hplan.Wait = hplan.Launches[hplan.Winner].At
	cancelAt := winAnswerAt
	for i := range hplan.Launches {
		if i == hplan.Winner {
			continue
		}
		l := &hplan.Launches[i]
		l.Wasted, l.WastedActive, l.Abandoned = truncateLadder(l, p, cancelAt)
		hplan.WastedAttempts += l.Wasted
		hplan.WastedActive += l.WastedActive
		if l.Abandoned {
			hplan.Abandoned++
		}
	}
	return hplan
}

// truncateLadder replays launch l's planned ladder timeline and counts
// the attempts that had already started when the winner's answer
// canceled it at cancelAt: each started failed attempt is charged its
// full session overhead (the wake-up and handshake are spent whether
// or not anyone waits for the outcome). A successful loser whose final
// exchange had started by cancelAt is marked abandoned — its request
// went up, its response will be discarded.
//
// The plan's arrival ledger is truncated in step: dispatches of
// attempts that never started are dropped (they never arrived), and
// the abandoned final exchange is reclassified ArrivalAbandoned with
// the service time not yet executed at cancelAt recorded as
// Reclaimable — what a cancel-on-win backend gets back. Failed
// exchanges that started keep their full burn: the replica served the
// error whether or not anyone was listening.
func truncateLadder(l *HedgeLaunch, p radio.Params, cancelAt time.Duration) (wasted int, active time.Duration, abandoned bool) {
	t := l.At
	warm := l.Warm
	failures := l.Plan.Failures()
	arr := l.Plan.Arrivals
	ai := 0 // arrivals of attempts that actually started
	for i := 0; i < failures; i++ {
		if t >= cancelAt {
			l.Plan.Arrivals = arr[:ai]
			return wasted, active, false
		}
		attempt := i + 1
		cost := radio.FailedAttemptCost(p, warm)
		wasted++
		active += cost
		t += cost
		if ai < len(arr) && arr[ai].Attempt == attempt {
			if arr[ai].Status != ArrivalRejected {
				t += arr[ai].Wait + arr[ai].Service
			}
			ai++
		}
		warm = true
		if i < len(l.Plan.Backoffs) {
			b := l.Plan.Backoffs[i]
			t += b
			warm = b < p.TailDuration
		}
	}
	if l.Plan.Success && t < cancelAt {
		if ai < len(arr) {
			// The final exchange's dispatch: abandoned mid-flight.
			fin := &arr[ai]
			svcStart := t + fin.Wait
			executed := cancelAt - svcStart
			if executed < 0 {
				executed = 0
			}
			if executed > fin.Service {
				executed = fin.Service
			}
			fin.Status = ArrivalAbandoned
			fin.Reclaimable = fin.Service - executed
			ai++
		}
		l.Plan.Arrivals = arr[:ai]
		return wasted, active, true
	}
	l.Plan.Arrivals = arr[:ai]
	return wasted, active, false
}
