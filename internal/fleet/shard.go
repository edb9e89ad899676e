package fleet

import (
	"fmt"
	"slices"
	"sync/atomic"
	"time"

	"pocketcloudlets/internal/device"
	"pocketcloudlets/internal/energy"
	"pocketcloudlets/internal/engine"
	"pocketcloudlets/internal/hash64"
	"pocketcloudlets/internal/hashtable"
	"pocketcloudlets/internal/modeltime"
	"pocketcloudlets/internal/pocketsearch"
	"pocketcloudlets/internal/searchlog"
	"pocketcloudlets/internal/slab"
	"pocketcloudlets/internal/spinlock"
	"pocketcloudlets/internal/updater"
)

// userState is the per-user slice of a shard: the user's personal
// PocketSearch cache (their expansions and click scores) plus serving
// counters. The community component is shared by every user of the
// shard, so the personal cache starts empty and stays small.
//
// States live by value inside the shard's userTable arena (no per-user
// heap allocation for the common case), and the heavy parts — the
// simulated device and the personal cache built on it — are
// materialized lazily on the user's first cloud interaction. A user
// who only ever hits the community replica costs ~100 bytes, which is
// what lets one process hold millions of resident users. Laziness is
// model-invisible: building a device charges nothing, an untouched
// device clock is zero (observing zero on the timeline is a no-op),
// and base power is a fleet-wide constant (sh.basePower).
type userState struct {
	// uid and live identify the slot's owner; live distinguishes an
	// occupied slot from a freed one during arena iteration.
	uid  searchlog.UserID
	live bool
	// cache is the user's personal PocketSearch instance; nil until the
	// user's first cloud-classified request materializes it. The user's
	// model clock is derived from its device (shard.clock), not stored.
	cache *pocketsearch.Cache
	// bytes is the user's personal flash footprint (logical result-db
	// bytes), maintained incrementally from expansion/eviction deltas.
	bytes  int64
	served int64
	hits   int64
	// missSeq numbers this user's cloud-classified misses in submission
	// order; it keys the pure fault hashes (internal/faults), so it must
	// be identical with miss coalescing on and off — it is bumped at
	// classification time, under the pending-miss ordering guard.
	missSeq uint64
	// refs lists the user's personal records, one per result, in no
	// particular order: the budget enforcer finds this user's
	// lowest-utility record without scanning the whole shard. Nil until
	// the first expansion, and for good without a per-user budget.
	refs []evictRef
	// rt is the user's resolved cohort runtime: the radio tier their
	// device is built with, the fault injector their cloud misses draw
	// from (nil when nothing injects for them), and the retry ladder
	// those misses walk. Resolved once in shard.user — a pure function
	// of the user ID, so a migrated user re-resolves to the same
	// runtime on the destination shard. Points into the immutable
	// cohortTable, shared across users.
	rt *cohortRT
}

// evictRef is one personal record in its owner's eviction list: the
// query whose expansion stored it (the pair utilityOf scores), its
// result and the flash bytes its expansion added.
type evictRef struct {
	queryHash  uint64
	resultHash uint64
	bytes      int64
}

// userTable is the shard's compact user index: an arena of userState
// slots addressed either through a dense array (user IDs below the
// configured population, the contiguous ID range every scenario
// generator produces) or through a sparse fallback map for IDs outside
// it. Slots are allocated from fixed-size chunks that are never
// reallocated, so *userState pointers stay valid for the shard's
// lifetime; freed slots (migration exports) are recycled via a free
// list. A user's slot and dense entry are touched only under their
// stripe, so a dense lookup takes no other lock (the chunk directory is
// republished whole when it grows); mu guards what stripes share.
type userTable struct {
	// slots maps uid → slot+1 for uid < len(slots); 0 means absent.
	slots []int32
	// chunks is the slab arena's directory; chunk addresses never change.
	chunks atomic.Pointer[[][]userState]

	mu spinlock.Mutex
	// sparse maps out-of-range uids → slot+1.
	sparse map[searchlog.UserID]int32
	free   []int32
	next   int32
	// resident counts live slots.
	resident int
}

// userChunkShift sizes arena chunks at 1<<userChunkShift states
// (~22 KB per chunk): big enough to amortize allocation, small enough
// that a shard's last, partly filled chunk costs little beside its
// residents.
const userChunkShift = 8

// init sizes the dense index for the configured population.
func (ut *userTable) init(population int) {
	if population > 0 {
		ut.slots = make([]int32, population)
	}
	ut.chunks.Store(new([][]userState))
}

// at returns the state in slot s.
func (ut *userTable) at(s int32) *userState {
	return &(*ut.chunks.Load())[s>>userChunkShift][s&(1<<userChunkShift-1)]
}

// get returns the user's state, or nil when not resident. Caller holds
// the user's stripe.
func (ut *userTable) get(uid searchlog.UserID) *userState {
	if i := uint64(uid); i < uint64(len(ut.slots)) {
		if s := ut.slots[i]; s != 0 {
			return ut.at(s - 1)
		}
		return nil
	}
	ut.mu.Lock()
	s, ok := ut.sparse[uid]
	ut.mu.Unlock()
	if ok {
		return ut.at(s - 1)
	}
	return nil
}

// put allocates (or reuses) a slot for uid and returns its zeroed
// state with uid and live set. The uid must not be resident. Caller
// holds the user's stripe.
func (ut *userTable) put(uid searchlog.UserID) *userState {
	ut.mu.Lock()
	defer ut.mu.Unlock()
	var s int32
	if n := len(ut.free); n > 0 {
		s = ut.free[n-1]
		ut.free = ut.free[:n-1]
	} else {
		s = ut.next
		if dir := *ut.chunks.Load(); int(s)>>userChunkShift == len(dir) {
			dir = append(dir[:len(dir):len(dir)], make([]userState, 1<<userChunkShift))
			ut.chunks.Store(&dir)
		}
		ut.next++
	}
	if i := uint64(uid); i < uint64(len(ut.slots)) {
		ut.slots[i] = s + 1
	} else {
		if ut.sparse == nil {
			ut.sparse = make(map[searchlog.UserID]int32)
		}
		ut.sparse[uid] = s + 1
	}
	ut.resident++
	st := ut.at(s)
	*st = userState{uid: uid, live: true}
	return st
}

// remove frees uid's slot, zeroing the state (releasing its cache and
// maps to the collector) and recycling the slot. Caller holds the
// user's stripe.
func (ut *userTable) remove(uid searchlog.UserID) {
	ut.mu.Lock()
	defer ut.mu.Unlock()
	var s int32
	if i := uint64(uid); i < uint64(len(ut.slots)) {
		s = ut.slots[i]
		if s == 0 {
			return
		}
		ut.slots[i] = 0
	} else {
		var ok bool
		s, ok = ut.sparse[uid]
		if !ok {
			return
		}
		delete(ut.sparse, uid)
	}
	*ut.at(s - 1) = userState{}
	ut.free = append(ut.free, s-1)
	ut.resident--
}

// forEach visits every live state in arena (slot) order. Callers that
// need a deterministic order sort afterwards by uid. Caller holds every
// stripe (shard.lockUsers).
func (ut *userTable) forEach(fn func(*userState)) {
	for _, ch := range *ut.chunks.Load() {
		for i := range ch {
			if st := &ch[i]; st.live {
				fn(st)
			}
		}
	}
}

// shard holds a deterministic slice of the user population: one shared
// community cache replica plus every resident user's personal state.
// Whichever goroutine serves — the worker draining the shard's queued
// tasks or a blocking caller running its own request (package comment,
// "Who runs a request") — a user's state is guarded by their user
// stripe, and the community replica by commMu, taken inside a stripe.
// Requests of users on different stripes run side by side; a user's own
// requests serialize on their stripe.
type shard struct {
	id  int
	eng *engine.Engine
	// settings are the fleet's cache Options resolved once: every
	// personal cache on the shard reads them through this pointer.
	settings *pocketsearch.Settings
	// perUserBytes caps each user's personal flash footprint; zero
	// means unlimited. Enforcement is deterministic: it runs after the
	// expansion that crossed the cap, evicting that user's
	// lowest-utility records first.
	perUserBytes int64
	// cohorts resolves each resident user to their device runtime
	// (radio link, fault injector, retry policy).
	cohorts *cohortTable
	// tl is the fleet-wide model timeline every resident user's clock
	// registers on; commClock is the community replica's own clock view
	// (community hits advance the replica's device, not the user's).
	tl        *modeltime.Timeline
	commClock *modeltime.UserClock
	// basePower is the devices' base power draw in watts — identical
	// for every simulated device in the fleet (all are built with the
	// default device config), captured once so energy attribution never
	// needs a user's device materialized.
	basePower float64
	// provisionedAt is the model instant the shard joined the view (zero
	// for the initial build, for a grown shard the makespan after the
	// resize's drain): the idle integral of its shardPower envelope runs
	// from there. It is written before the shard is published and
	// read-only afterwards.
	provisionedAt time.Duration
	// community is the shared replica, guarded by commMu.
	community *pocketsearch.Cache
	users     userTable

	// ctr is everything delivering a response writes outside the locks.
	ctr shardCounters

	// commMu guards the community replica: its probe and hit, its
	// clock's observation, and a degraded miss's stale serve. Like every
	// lock a request takes it spins before it sleeps (DESIGN.md, "The
	// shard's locks").
	commMu spinlock.Mutex
	_      [64]byte
	// stripes guard the users, each user on the stripe stripeOf picks.
	stripes [numStripes]userStripe
}

// numStripes is how many user stripes a shard has: with a handful of
// clients serving a shard at once, two of them land on one stripe rarely.
const numStripes = 16

// userStripe guards the state of the users it holds: their arena slots
// and everything in them, their share of the shard's personal bytes, and
// their pending misses. Stripes are 80 B wide, so two lock words (12 B)
// share no line wherever the array starts.
type userStripe struct {
	mu            spinlock.Mutex
	personalBytes int64
	// pending lists the stripe's users with a cloud miss classified but
	// not yet applied — being planned against the backend, or parked in
	// a batch dispatcher. At most one per user: whoever routes the user's
	// next request waits on it first, so nothing moves the model clock
	// the plan was computed against. A list, not a map: it holds a few
	// misses at most, and costs nothing until one is pending.
	pending []pendingMiss
	_       [32]byte
}

// pendingMiss is one user's entry in their stripe's pending list.
type pendingMiss struct {
	uid searchlog.UserID
	mt  *missTask
}

// pendingOf returns the user's pending miss, or nil. Caller holds mu.
func (us *userStripe) pendingOf(uid searchlog.UserID) *missTask {
	for _, p := range us.pending {
		if p.uid == uid {
			return p.mt
		}
	}
	return nil
}

// clearPending drops the user's pending miss. Caller holds mu.
func (us *userStripe) clearPending(uid searchlog.UserID) {
	us.pending = slices.DeleteFunc(us.pending, func(p pendingMiss) bool { return p.uid == uid })
}

// stripeOf returns the user's stripe, picked by a mix of the uid: a
// placement can give one shard users that agree in their low bits.
func (sh *shard) stripeOf(uid searchlog.UserID) *userStripe {
	return &sh.stripes[hash64.Mix(uint64(uid))%numStripes]
}

// lockUsers takes every user stripe, in index order, for a reader that
// walks the users; unlockUsers releases them.
func (sh *shard) lockUsers() {
	for i := range sh.stripes {
		sh.stripes[i].mu.Lock()
	}
}

func (sh *shard) unlockUsers() {
	for i := range sh.stripes {
		sh.stripes[i].mu.Unlock()
	}
}

// residency reports the shard's resident users and their personal
// flash bytes.
func (sh *shard) residency() (users int, bytes int64) {
	sh.lockUsers()
	defer sh.unlockUsers()
	for i := range sh.stripes {
		bytes += sh.stripes[i].personalBytes
	}
	return sh.users.resident, bytes
}

// shardCounters is the one home of every counter serving a request
// bumps — hit, miss plan, batch session — owned by the shard
// that served it and padded at both ends: serving writes no line a
// request on another shard writes. Every fleet-wide reading is one fold:
// the live shards' blocks plus Fleet.retired (Fleet.totals). Atomics,
// because requests on every stripe write them and finish runs outside
// the locks; integers, so totals are interleaving-independent.
type shardCounters struct {
	_ [64]byte
	// served and shed are the shard's occupancy; busyNS is the
	// server-local part of every served response's modeled latency, the
	// active term of the shard power model.
	served atomic.Int64
	busyNS atomic.Int64
	// ledger takes the served responses' device-side joules; its
	// shard-side counters are filled in at retirement.
	ledger   energy.Ledger
	bySource [numSources]atomic.Int64
	errors   atomic.Int64
	shed     atomic.Int64
	// wakeups counts cold radio wake-ups: each session-opening unbatched
	// miss, each batched session that started cold.
	wakeups atomic.Int64
	// The applied miss plans' telemetry (Stats documents each).
	retries, exhausted                                     atomic.Int64
	clonesLaunched, primaryWins, cloneWins, wastedAttempts atomic.Int64
	// batches and batchedMisses count the shared radio sessions a
	// dispatcher fired and the misses they carried.
	batches, batchedMisses atomic.Int64
	// batchSizes[n] counts sessions of n misses: MaxBatch+1 long with
	// batching on, sized when the shard is built, and nil otherwise, the
	// same for every block.
	batchSizes []atomic.Int64
	_          [64]byte
}

// book records one delivered response. Every serve path lands here, so
// this is the one ledger charge site: the response's device-side joules
// split radio vs baseline (a term that is zero writes nothing), and the
// shard's busy time grows by the server-local part of the modeled
// latency (network and radio wait excluded — the shard is free while the
// device waits on the air).
func (c *shardCounters) book(resp *Response) {
	c.served.Add(1)
	if busy := resp.Outcome.ResponseTime() - resp.Outcome.Stages.Network(); busy > 0 {
		c.busyNS.Add(int64(busy))
	}
	c.ledger.Radio.Add(resp.RadioJ)
	c.ledger.DeviceBase.Add(resp.EnergyJ - resp.RadioJ)
	c.bySource[resp.Source].Add(1)
	if resp.Err != nil {
		c.errors.Add(1)
	} else if resp.Source == SourceCloud && resp.BatchSize == 0 && !resp.Outcome.WasWarm {
		c.wakeups.Add(1)
	}
}

// addTo adds the block into sum — all but busyNS, which is read beside
// the shard's power envelope (EnergyStats, retirement).
func (c *shardCounters) addTo(sum *shardCounters) {
	sum.served.Add(c.served.Load())
	sum.shed.Add(c.shed.Load())
	sum.errors.Add(c.errors.Load())
	sum.wakeups.Add(c.wakeups.Load())
	sum.retries.Add(c.retries.Load())
	sum.exhausted.Add(c.exhausted.Load())
	sum.clonesLaunched.Add(c.clonesLaunched.Load())
	sum.primaryWins.Add(c.primaryWins.Load())
	sum.cloneWins.Add(c.cloneWins.Load())
	sum.wastedAttempts.Add(c.wastedAttempts.Load())
	sum.batches.Add(c.batches.Load())
	sum.batchedMisses.Add(c.batchedMisses.Load())
	addAll(sum.bySource[:], c.bySource[:])
	sum.batchSizes = addAll(sum.batchSizes, c.batchSizes)
	sum.ledger.Merge(&c.ledger)
}

// addAll adds src into dst element-wise, first sizing an empty dst like
// src (every block's slices have one length), and returns dst.
func addAll(dst, src []atomic.Int64) []atomic.Int64 {
	if len(dst) < len(src) {
		dst = make([]atomic.Int64, len(src))
	}
	for i := range src {
		dst[i].Add(src[i].Load())
	}
	return dst
}

// newShard builds one shard: a community cache replica preloaded with
// the shared content (provisioned overnight, so its model clock is
// reset afterwards) and an empty user arena.
func newShard(id int, cfg Config, ct *cohortTable, tl *modeltime.Timeline) (*shard, error) {
	commOpts := cfg.Options
	// The community replica is shared by every user of the shard, so
	// it must never absorb one user's personalization — and it runs on
	// the fleet-wide radio tier regardless of cohorts.
	commOpts.DisablePersonalization = true
	dev := device.On(ct.def.prof)
	community, err := pocketsearch.Build(dev, cfg.Engine, cfg.Content, commOpts)
	if err != nil {
		return nil, fmt.Errorf("fleet: shard %d community build: %w", id, err)
	}
	dev.Reset()
	sh := &shard{
		id:           id,
		eng:          cfg.Engine,
		settings:     cfg.Options.Settings(),
		perUserBytes: cfg.PerUserBytes,
		cohorts:      ct,
		tl:           tl,
		commClock:    tl.UserClock(dev),
		basePower:    dev.Config().BasePower,
		community:    community,
	}
	sh.users.init(cfg.Population)
	if cfg.Batch.Enabled {
		sh.ctr.batchSizes = make([]atomic.Int64, cfg.Batch.MaxBatch+1)
	}
	return sh, nil
}

// user returns (lazily creating) the per-user state. The state starts
// compact — counters and cohort runtime only; the simulated device and
// personal cache are materialized on first need. Caller holds the
// user's stripe.
func (sh *shard) user(uid searchlog.UserID) *userState {
	if st := sh.users.get(uid); st != nil {
		return st
	}
	st := sh.users.put(uid)
	st.rt = sh.cohorts.resolvePtr(uid)
	return st
}

// materialize builds the user's simulated device and personal cache if
// they do not exist yet. Deferring this to the first cloud-classified
// request is model-invisible: device construction charges no time or
// energy, the fresh device clock is zero (a zero observation does not
// move the timeline), base power is the fleet-wide constant, and an
// empty personal cache can by definition serve no personal hit.
// Caller holds the user's stripe.
func (sh *shard) materialize(st *userState) error {
	if st.cache != nil {
		return nil
	}
	cache, err := pocketsearch.NewShared(device.On(st.rt.prof), sh.eng, sh.settings)
	if err != nil {
		return err
	}
	st.cache = cache
	return nil
}

// clock is the user's virtual model clock: the modeltime view over the
// user's simulated device, bound to the fleet timeline. Every model-time
// read, migration sync and makespan observation goes through it —
// serving code never touches the device clock directly. Bound per use
// rather than kept in the arena slot; valid only once st.cache is
// non-nil. Caller holds the user's stripe.
func (sh *shard) clock(st *userState) modeltime.UserClock {
	return sh.tl.BoundClock(st.cache.Device())
}

// route classifies one task under the user's stripe and serves whatever
// can be served at once. The routing mirrors the paper's two-component
// cache (Figure 6) at fleet scale: the personal component is consulted
// first (it carries the user's own expansions and click scores), then
// the shared community replica, and only a miss in both pays the radio
// round trip — which also expands the user's personal component so the
// next repeat hits locally.
//
// Exactly one outcome is meaningful: a completed response built in resp
// (a local hit, an error, or an unpriced cloud miss on the user's own
// link — planned and applied under this lock hold) and two nils; a miss
// marked pending, which the caller must plan and then apply (applyMiss)
// or, with park set, hand to a dispatcher; or the user's pending miss
// the caller must wait on before retrying. A miss applied after this
// lock hold is always marked pending: the one rule that keeps the model
// clock its plan was computed against still.
func (sh *shard) route(t *task, park bool, resp *Response) (miss, waitFor *missTask) {
	qh := hash64.Sum(t.req.Query)
	ch := hash64.Sum(t.req.Click)
	us := sh.stripeOf(t.req.User)
	us.mu.Lock()
	defer us.mu.Unlock()

	if prev := us.pendingOf(t.req.User); prev != nil {
		return nil, prev
	}
	st := sh.user(t.req.User)
	if sh.serveLocal(st, &t.req, qh, ch, resp) {
		return nil, nil
	}
	if err := sh.materialize(st); err != nil {
		*resp = Response{Req: t.req, Err: err}
		return nil, nil
	}
	// The miss's whole fault ladder is planned against the user's model
	// clock as of now: the clock cannot move before the miss is applied
	// (a pending miss blocks the user's next request), so the plan — and
	// with it every per-user outcome — is independent of how a dispatcher
	// later composes batches and of which goroutine serves what. An
	// unpriced plan is arithmetic, so a miss nothing coalesces is planned
	// and applied in this hold; any other miss is planned by its caller
	// after it — a priced plan replays backend queues (Fleet.process).
	mc := sh.classifyLocked(st, t.req.User, qh, ch)
	if sh.cohorts.pricer == nil && !park {
		mc.plan(nil)
		sh.applyMissLocked(us, st, &t.req, &mc, exchange{}, resp)
		return nil, nil
	}
	if park && t.inPlace {
		// The dispatcher answers from a copy: the caller must wait on a
		// reply channel instead.
		t.inPlace, t.reply = false, replyPool.Get().(chan Response)
	}
	miss = &missTask{t: *t, mc: mc, done: make(chan struct{})}
	us.pending = append(us.pending, pendingMiss{uid: t.req.User, mt: miss})
	return miss, nil
}

// serveLocal serves the request from the local tier that holds the pair
// — the user's personal component (none before the user's cache is
// materialized), else the shard's community replica — into resp, and
// reports false when neither does: the request is the cloud's. The tier
// serves from the position its index was probed at, so each chain is
// searched once per request. Per-user serving counters and the modeled
// energy attribution (base power over the response time) are applied
// here. Caller holds the user's stripe.
func (sh *shard) serveLocal(st *userState, req *Request, qh, ch uint64, resp *Response) bool {
	var p hashtable.Probe
	var ok bool
	if st.cache != nil {
		p, ok = st.cache.Probe(qh, ch)
	}
	if ok {
		*resp = Response{Source: SourcePersonal}
		resp.Req = *req
		resp.Err = st.cache.Hit(p, qh, req.Query, &resp.Outcome)
	} else if !sh.hitCommunity(req, qh, ch, resp) {
		return false
	}
	st.served++
	if resp.Outcome.Hit {
		st.hits++
	}
	resp.EnergyJ = sh.basePower * resp.Outcome.ResponseTime().Seconds()
	if st.cache != nil {
		sh.clock(st).Observe()
	}
	return true
}

// hitCommunity serves the request from the community replica into resp,
// under commMu, and reports false when the replica does not hold the
// pair.
func (sh *shard) hitCommunity(req *Request, qh, ch uint64, resp *Response) bool {
	sh.commMu.Lock()
	p, ok := sh.community.Probe(qh, ch)
	if ok {
		*resp = Response{Source: SourceCommunity}
		resp.Req = *req
		resp.Err = sh.community.Hit(p, qh, req.Query, &resp.Outcome)
		// A community hit advanced the replica's device, not the user's.
		sh.commClock.Observe()
	}
	sh.commMu.Unlock()
	return ok
}

// recordExpansion books the personal-flash delta a served miss left
// behind (Outcome.Stored) and enforces the per-user budget. The database
// grows only by a record it did not hold, and every listed record is
// held (evicting one removes both), so a positive delta's result is not
// in the list yet. Only a budget reads the list, and the cap is
// fleet-wide, so a fleet without one keeps no list. Caller holds us, the
// user's stripe.
func (sh *shard) recordExpansion(us *userStripe, st *userState, qh, ch uint64, delta int64) {
	if delta <= 0 {
		return
	}
	st.bytes += delta
	us.personalBytes += delta
	if sh.perUserBytes <= 0 {
		return
	}
	st.refs = append(slab.Reserve(st.refs, 1), evictRef{queryHash: qh, resultHash: ch, bytes: delta})
	sh.enforceUserBudget(us, st)
}

// utilityOf is the eviction utility of a personal record: the click
// score (Equation 1's S) of the pair whose expansion stored it, or zero
// once that pair is gone — so a user's stale, decayed records go first.
// Another query that ranks the same result does not raise it.
func (st *userState) utilityOf(ref evictRef) float64 {
	if st.cache == nil {
		return 0
	}
	s, ok := st.cache.Table().Score(ref.queryHash, ref.resultHash)
	if !ok {
		return 0
	}
	return s
}

// enforceUserBudget evicts the user's lowest-utility personal records
// until the user is back under the per-user byte cap. Caller holds us,
// the user's stripe.
func (sh *shard) enforceUserBudget(us *userStripe, st *userState) {
	if sh.perUserBytes <= 0 {
		return
	}
	for st.bytes > sh.perUserBytes && len(st.refs) > 0 {
		victim, best := 0, st.utilityOf(st.refs[0])
		for i := 1; i < len(st.refs); i++ {
			s := st.utilityOf(st.refs[i])
			if s < best || (s == best && st.refs[i].resultHash < st.refs[victim].resultHash) {
				victim, best = i, s
			}
		}
		us.evictLocked(st, victim)
	}
}

// evictLocked removes the user's i'th personal record from their cache
// and their list, returning the bytes freed. Caller holds mu.
func (us *userStripe) evictLocked(st *userState, i int) int64 {
	freed := st.cache.EvictResult(st.refs[i].resultHash)
	st.bytes -= freed
	us.personalBytes -= freed
	last := len(st.refs) - 1
	st.refs[i] = st.refs[last]
	st.refs = st.refs[:last]
	return freed
}

// --- state migration: a user's personal component is packaged through
// the updater's wire format (the same bytes the overnight cycle would
// ship) so resharding reuses a tested serialization instead of
// inventing one.

// userExport is one user's personal state in transit between shards.
type userExport struct {
	update updater.Update
	bytes  int64
	served int64
	hits   int64
	// missSeq keys the pure fault hashes; it must survive the move or
	// per-user fault outcomes would diverge after a resize.
	missSeq uint64
	refs    []evictRef
	// clock is the source device's model time; the destination device
	// syncs forward to it so the user's clock never runs backwards.
	clock time.Duration
}

// exportUser removes a user's personal state from the shard and
// returns it packaged for import. ok is false when the user is not
// resident. When the export itself fails (err non-nil) the state has
// still been removed — the caller cold-starts the user at the
// destination and books the drop. A user whose lazy cache was never
// materialized is materialized first, so the wire format — and the
// byte-identical round-trip contract — is the same for every mover.
func (sh *shard) exportUser(uid searchlog.UserID) (ex userExport, ok bool, err error) {
	us := sh.stripeOf(uid)
	us.mu.Lock()
	defer us.mu.Unlock()
	st := sh.users.get(uid)
	if st == nil {
		return userExport{}, false, nil
	}
	us.personalBytes -= st.bytes
	if err := sh.materialize(st); err != nil {
		sh.users.remove(uid)
		return userExport{}, true, err
	}
	upd, err := updater.ExportState(st.cache)
	if err != nil {
		sh.users.remove(uid)
		return userExport{}, true, err
	}
	ex = userExport{
		update:  upd,
		bytes:   st.bytes,
		served:  st.served,
		hits:    st.hits,
		missSeq: st.missSeq,
		refs:    st.refs,
		clock:   sh.clock(st).Now(),
	}
	// remove zeroes the slot; ex.refs still references the list.
	sh.users.remove(uid)
	return ex, true, nil
}

// importUser installs an exported user on this shard: a fresh device
// and cache are built, the export is applied through the normal update
// path, the exported eviction index is adopted, and the per-user budget
// is re-enforced under this shard's cap. The device clock syncs forward
// to the exported clock (import happens off-device; no energy is
// charged beyond the modeled patch flash time).
func (sh *shard) importUser(uid searchlog.UserID, ex userExport) error {
	us := sh.stripeOf(uid)
	us.mu.Lock()
	defer us.mu.Unlock()
	if sh.users.get(uid) != nil {
		return fmt.Errorf("fleet: user %d already resident on shard %d", uid, sh.id)
	}
	st := sh.user(uid)
	if err := sh.materialize(st); err != nil {
		sh.users.remove(uid)
		return err
	}
	if _, err := updater.Apply(st.cache, ex.update); err != nil {
		sh.users.remove(uid)
		return err
	}
	sh.clock(st).SyncForward(ex.clock)
	st.served = ex.served
	st.hits = ex.hits
	st.missSeq = ex.missSeq
	st.bytes = st.cache.DB().LogicalBytes()
	us.personalBytes += st.bytes
	// The source slot was zeroed by the export, so its list is this
	// user's to keep.
	st.refs = ex.refs
	sh.enforceUserBudget(us, st)
	return nil
}
