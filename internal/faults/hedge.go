package faults

import (
	"time"

	"pocketcloudlets/internal/hash64"
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
	o.Seed = int64(hash64.Mix(uint64(base.Seed) ^ uint64(replica)*0xA24BAED4963EE407))
	if o.OutageEvery > 0 && o.OutageFor > 0 {
		shift := hash64.Mix(uint64(base.Seed)^uint64(replica)*0x9FB21C651E98DF25) % uint64(o.OutageEvery)
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
	// primary included. Values below 2 disable hedging — the miss is
	// planned as its one-launch value, the single-backend ladder against
	// replica 0, byte-identical to an unreplicated fleet.
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

// Over resolves the policy against the replica injectors a miss would
// be planned over — the one who-hedges rule: an injector to draw faults
// from, at least two replicas to dispatch to, and a clone factor that
// actually clones. Anything else resolves to the zero policy, whose
// plan is the single-backend ladder. Idempotent.
func (h HedgePolicy) Over(injs []*Injector) HedgePolicy {
	if !h.Active() || len(injs) < 2 || injs[0] == nil {
		return HedgePolicy{}
	}
	return h
}

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

// HedgeLaunch is one dispatch of a planned miss: which replica it went
// to, when it launched (offset from the miss start), and the attempt
// ladder it planned there. A loser's ladder keeps only the arrivals of
// attempts that had started when the winner's answer canceled it.
type HedgeLaunch struct {
	// Replica indexes the replica this dispatch targeted.
	Replica int
	// At is the launch offset from the miss start in model time.
	At time.Duration
	// Plan is the full attempt ladder planned against the replica's
	// injector, starting at the launch offset.
	Plan Plan
}

// HedgedPlan is the analytically simulated outcome of one cloud miss
// across its replica dispatches, before any model state is touched —
// the miss path's one plan value, as deterministic as the ladders it is
// made of. Its one-launch value (no clones, Hedged false) is the
// single-backend ladder.
type HedgedPlan struct {
	// Primary is the first dispatch, launched at offset zero; held
	// inline, so the one-launch plan carries no launch slice.
	Primary HedgeLaunch
	// clones are the dispatches beyond the primary that actually
	// happened, in launch order; slots suppressed by an early answer or
	// the inflight cap never appear.
	clones []HedgeLaunch
	// Wait is the extra user-visible wait the hedge added on top of the
	// delivered ladder: the winner's launch offset when a clone wins
	// (zero when the primary wins), or — when all dispatches exhaust —
	// how far past the primary's own exhaustion the last ladder kept
	// trying before the miss degraded.
	Wait time.Duration
	// WastedAttempts counts the attempts the losing dispatches had
	// started before cancellation; WastedActive is the radio-active time
	// they cost, plus one abandoned exchange (radio.ExchangeCost with an
	// empty response: the request went up, nobody read the answer) per
	// loser whose *successful* exchange was in flight when the winner's
	// answer arrived. Losers run beside the winner on the network side,
	// so this is energy, never latency.
	WastedActive   time.Duration
	WastedAttempts int32
	// Winner is the launch index (see Launch) of the dispatch that
	// delivered the answer, or -1 when every dispatch exhausted its
	// ladder and the miss must degrade. (32-bit counts keep the plan,
	// which every parked miss carries, the size of the pair it replaced.)
	Winner int32
	// Hedged reports that the miss was planned across replicas. A quiet
	// hedged miss that launched no clone is still Hedged; the
	// single-backend ladder never is, so hedge telemetry moves only for
	// misses that could have cloned.
	Hedged bool
}

// Launches is how many dispatches actually happened, primary included.
func (h *HedgedPlan) Launches() int { return 1 + len(h.clones) }

// Launch returns dispatch i in launch order; Launch(0) is the primary.
func (h *HedgedPlan) Launch(i int) *HedgeLaunch {
	if i == 0 {
		return &h.Primary
	}
	return &h.clones[i-1]
}

// Delivered returns the plan whose ladder the user's timeline rides:
// the winner's, or the primary's when every dispatch exhausted.
func (h HedgedPlan) Delivered() Plan {
	if h.Winner > 0 {
		return h.clones[h.Winner-1].Plan
	}
	return h.Primary.Plan
}

// Clones is how many dispatches beyond the primary actually launched.
func (h HedgedPlan) Clones() int { return len(h.clones) }

// hedgeStart rotates the primary replica per miss so load (and fault
// exposure) spreads across the replica set instead of pinning replica
// 0 as everyone's primary.
func hedgeStart(n int, uid, qh, seq uint64) int {
	if n <= 1 {
		return 0
	}
	x := hash64.Mix(uid*0x9E3779B97F4A7C15 ^ 0x48ED6E3C0FF1CE00)
	x = hash64.Mix(x ^ qh)
	x = hash64.Mix(x ^ seq*0xD1B54A32D192ED03)
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
	return qh ^ hash64.Mix(0xC10E5A17_0000_0000^uint64(slot))
}

// PlanHedged plans one cloud miss analytically — the miss path's one
// planner call. A policy that does not hedge (HedgePolicy.Over) plans
// the one-launch value: a single PlanMiss ladder against replica 0,
// nothing rotated, waited for or wasted. One that does makes up to
// CloneFactor dispatches, each a full PlanMiss ladder against its own
// replica injector from its staggered launch offset. The winner is the
// dispatch whose answer is in hand first — its ladder, its successful
// exchange's queue wait and service, and one handshake — ties going to
// the earlier launch; at that instant the losers are canceled and
// charged for every attempt they had already started. A clone slot
// never launches if an earlier dispatch's answer is already in hand at
// its launch time, or if the inflight cap is reached.
//
// Like PlanMiss, every decision is a pure function of the injector
// seeds and the caller-supplied identifiers — never of wall time — so
// planned outcomes are byte-reproducible under -race.
//
// now is the user's model clock, tailLeft how much of the device
// link's post-transfer tail remains at the miss start (zero when
// idle): a dispatch launching inside that window starts warm. The
// primary's concurrent attempts do not keep the modeled link warm for
// clones — their cost is charged analytically, off the link — which
// keeps the plan in exact agreement with the fleet's device replay.
func PlanHedged(injs []*Injector, pol RetryPolicy, hp HedgePolicy, p radio.Params, pr Pricer, now time.Duration, tailLeft time.Duration, uid, qh, seq uint64) HedgedPlan {
	if len(injs) == 0 {
		injs = []*Injector{nil}
	}
	hp = hp.Over(injs).WithDefaults()
	if !hp.Active() {
		h := HedgedPlan{Primary: HedgeLaunch{Plan: PlanMiss(injs[0], pol, p, pr, 0, now, tailLeft > 0, uid, qh, seq)}}
		if !h.Primary.Plan.Success {
			h.Winner = -1
		}
		return h
	}

	n := len(injs)
	start := hedgeStart(n, uid, qh, seq)
	handshake := time.Duration(p.HandshakeRTTs) * p.RTT
	h := HedgedPlan{Hedged: true, Winner: -1}
	// answerAt is the earliest instant an answer is in hand (-1 = none
	// yet) — queue and service time included, so a fast replica beats a
	// congested one whose exchange *started* first — and Winner the
	// launch that has it.
	answerAt := time.Duration(-1)
	for slot := 0; slot < hp.CloneFactor; slot++ {
		at := time.Duration(slot) * hp.Delay
		if slot > 0 {
			if answerAt >= 0 && answerAt <= at {
				break // an earlier dispatch already delivered
			}
			inflight := 0
			for i := 0; i < h.Launches(); i++ {
				l := h.Launch(i)
				end := l.At + l.Plan.LadderWait() + l.Plan.FinalBackend()
				if end > at || (l.Plan.Success && end == at) {
					inflight++
				}
			}
			if inflight >= hp.MaxInflight {
				continue
			}
		}
		rep := (start + slot) % n
		l := HedgeLaunch{Replica: rep, At: at,
			Plan: PlanMiss(injs[rep], pol, p, pr, rep, now+at, at < tailLeft, uid, cloneQueryHash(qh, slot), seq)}
		if slot == 0 {
			h.Primary = l
		} else {
			if h.clones == nil {
				h.clones = make([]HedgeLaunch, 0, hp.CloneFactor-1)
			}
			h.clones = append(h.clones, l)
		}
		if l.Plan.Success {
			handAt := at + l.Plan.LadderWait() + l.Plan.FinalBackend() + handshake
			if answerAt < 0 || handAt < answerAt {
				answerAt, h.Winner = handAt, int32(h.Launches()-1)
			}
		}
	}

	if h.Winner < 0 {
		// Every dispatch exhausted. The primary's ladder is the user's
		// replayed timeline; the clones' whole ladders are waste, and
		// the miss degrades only once the last ladder has given up.
		exhaustAt := h.Primary.Plan.LadderWait()
		for i := range h.clones {
			l := &h.clones[i]
			if end := l.At + l.Plan.LadderWait(); end > exhaustAt {
				exhaustAt = end
			}
			h.WastedAttempts += int32(l.Plan.Attempts)
			h.WastedActive += l.Plan.FailedActive
		}
		h.Wait = exhaustAt - h.Primary.Plan.LadderWait()
		return h
	}

	h.Wait = h.Launch(int(h.Winner)).At
	for i := 0; i < h.Launches(); i++ {
		if i == int(h.Winner) {
			continue
		}
		l := h.Launch(i)
		wasted, active := truncateLadder(l, l.At < tailLeft, p, answerAt)
		h.WastedAttempts += int32(wasted)
		h.WastedActive += active
	}
	return h
}

// truncateLadder replays launch l's planned ladder timeline — warm says
// whether its first attempt started inside the device link's remaining
// tail — and counts the attempts that had already started when the
// winner's answer canceled it at cancelAt: each started failed attempt
// is charged its full session overhead (the wake-up and handshake are
// spent whether or not anyone waits for the outcome). A successful
// loser whose final exchange had started by cancelAt abandoned it — its
// request went up, its response will be discarded — and is charged
// that exchange too.
//
// The plan's arrival ledger is truncated in step: dispatches of
// attempts that never started are dropped (they never arrived), and
// the abandoned final exchange is reclassified ArrivalAbandoned with
// the service time not yet executed at cancelAt recorded as
// Reclaimable — what a cancel-on-win backend gets back. Failed
// exchanges that started keep their full burn: the replica served the
// error whether or not anyone was listening.
func truncateLadder(l *HedgeLaunch, warm bool, p radio.Params, cancelAt time.Duration) (wasted int, active time.Duration) {
	t := l.At
	failures := l.Plan.Failures()
	arr := l.Plan.Arrivals
	ai := 0 // arrivals of attempts that actually started
	for i := 0; i < failures && t < cancelAt; i++ {
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
		active += radio.ExchangeCost(p, 0, 0, true).RadioActive
	}
	l.Plan.Arrivals = arr[:ai]
	return wasted, active
}
