package backend

import (
	"math"

	"pocketcloudlets/internal/hash64"
	"pocketcloudlets/internal/spinlock"
)

// The replica timeline. Each replica simulates its queue under the
// deterministic background process, event by event, in model time. The
// fleet's queries arrive in arbitrary order (users' model clocks are
// not synchronized), so the timeline keeps saved states at two levels
// and answers a query by unpacking the latest saved state at or before
// the queried instant and replaying forward:
//
//   - the spine: a permanent checkpoint every spineEvery arrivals,
//     append-only, growing with the model horizon actually explored at
//     a few hundredths of a byte per arrival;
//   - the fine cache: a fixed-size store of the states recent queries
//     landed on, one per fineEvery-arrival stretch of the timeline,
//     filled by the replays that serve the queries and evicted freely.
//
// Both hold the state exactly as the replay had it at an event
// boundary — after an arrival was applied, before any query's partial
// drain — so a saved state is a pure function of (seed, replica, event
// index) whichever query's replay produced it, and resuming from a fine
// state is bit-for-bit resuming from the spine a little further on.
// Eviction therefore changes how far a query replays, never what it
// answers. Saved states are packed into pointer-free word arrays:
// packedHdr header words plus only the live PS marks.

const (
	// spineEvery is the number of arrivals between two spine checkpoints,
	// whatever the width of the state: it bounds the replay of a query
	// the fine cache cannot serve. A checkpoint costs 8 bytes a packed
	// word, so the spine grows by words/512 bytes per explored arrival —
	// at most 0.05 for a PS queue 16 deep (the 512-arrival clones it
	// replaces cost eight times that at any width).
	spineEvery = 4096
	// fineEvery is the stretch of arrivals one fine-cache slot stands
	// for: the cache holds at most one state per stretch.
	fineEvery = 64
	// The fine cache is a direct-mapped directory of cacheSlots states
	// (a power of two) over a ring of cacheWords packed words — 72 KB a
	// replica, some 750 states of a lightly loaded queue.
	cacheSlots = 1024
	cacheWords = 7168
	// packedHdr is the number of header words of a packed state.
	packedHdr = 8
	// aheadMax is the most background arrivals a replay draws ahead of
	// its state in one refill.
	aheadMax = 16
	// shortQueue is the most PS jobs an insert walks from the end, one
	// mark at a time — cheaper than a search and a memmove call for the
	// benchmarked queues, 16 and 64 deep. A longer queue (an unbounded
	// one under overload holds thousands) is binary-searched and moved in
	// one block, which the walk loses to some fivefold there.
	shortQueue = 64
)

// completionEps is the remaining-work epsilon (seconds) below which a
// PS job is complete — one nanosecond, the model's output resolution.
// Float drain accumulates rounding, and the epsilon keeps job
// completion deterministic and terminating.
const completionEps = 1e-9

// state is one replica's simulated queue at instant t: every
// background event at or before t has been applied.
type state struct {
	t float64 // seconds of model time this state describes
	// work is the FIFO unfinished work (seconds) in the queue at t.
	work float64
	// jobs are the PS jobs' service-demand marks, sorted ascending. A
	// job's remaining demand is jobs[i] − off: draining every job by an
	// equal share is one add to off, and the next completion is always
	// jobs[0] — this is what keeps overloaded-queue replay linear in
	// events rather than quadratic in backlog. jobs is a window of buf:
	// completions advance its start, and an insert that finds the end of
	// buf reclaims the space they left (see insertJob).
	jobs, buf []float64
	off       float64
	// events counts background arrivals consumed so far.
	events int64
	// nextAt/nextDemand are the next background arrival's instant and
	// service demand; r is the draw stream positioned after them.
	nextAt     float64
	nextDemand float64
	r          rng
}

// insertJob admits a job of the given remaining demand, keeping the
// marks sorted. With no room left after the window it first moves the
// marks to the start of buf if completions have freed more there than
// is live (so the moves stay amortized constant per insert), and to a
// buffer twice the size otherwise.
func (st *state) insertJob(demand float64) {
	mark := demand + st.off
	n := len(st.jobs)
	if n == cap(st.jobs) {
		if cap(st.buf) <= 2*n {
			st.buf = make([]float64, 0, 2*n+8)
		}
		st.setJobs(st.jobs)
	}
	st.jobs = st.jobs[:n+1]
	// i is the first mark ≥ mark: walked to from the end, each larger
	// mark moving up one as it is passed, or binary-searched (shortQueue).
	i := n
	if n <= shortQueue {
		for ; i > 0 && st.jobs[i-1] >= mark; i-- {
			st.jobs[i] = st.jobs[i-1]
		}
	} else {
		i = 0
		for j := n; i < j; {
			if h := int(uint(i+j) >> 1); st.jobs[h] < mark {
				i = h + 1
			} else {
				j = h
			}
		}
		copy(st.jobs[i+1:], st.jobs[i:n])
	}
	st.jobs[i] = mark
}

// dropDone removes completed jobs from the front of the window.
func (st *state) dropDone() {
	n := 0
	for n < len(st.jobs) && st.jobs[n] <= st.off+completionEps {
		n++
	}
	st.jobs = st.jobs[n:]
}

// setJobs makes the window a copy of marks at the start of buf.
func (st *state) setJobs(marks []float64) {
	st.buf = append(st.buf[:0], marks...)
	st.jobs = st.buf
}

// copyFrom deep-copies src into st, reusing st's buf.
func (st *state) copyFrom(src *state) {
	buf := st.buf
	*st = *src
	st.buf = buf
	st.setJobs(src.jobs)
}

// pack appends st to dst: packedHdr header words, then the marks.
func (st *state) pack(dst []uint64) []uint64 {
	dst = append(dst, uint64(len(st.jobs)), uint64(st.events),
		math.Float64bits(st.t), math.Float64bits(st.work), math.Float64bits(st.off),
		math.Float64bits(st.nextAt), math.Float64bits(st.nextDemand), st.r.s)
	for _, m := range st.jobs {
		dst = append(dst, math.Float64bits(m))
	}
	return dst
}

// unpack restores st from the packed state at the head of src, reusing
// st's buf.
func (st *state) unpack(src []uint64) {
	st.events = packedEvents(src)
	st.t = packedT(src)
	st.work = math.Float64frombits(src[3])
	st.off = math.Float64frombits(src[4])
	st.nextAt = math.Float64frombits(src[5])
	st.nextDemand = math.Float64frombits(src[6])
	st.r.s = src[7]
	st.buf = st.buf[:0]
	for _, w := range src[packedHdr : packedHdr+src[0]] {
		st.buf = append(st.buf, math.Float64frombits(w))
	}
	st.jobs = st.buf
}

func packedEvents(src []uint64) int64 { return int64(src[1]) }
func packedT(src []uint64) float64    { return math.Float64frombits(src[2]) }

// fineCache holds recently replayed fine states. Slot f mod cacheSlots
// belongs to the latest state cached after one of the arrivals
// f×fineEvery … (f+1)×fineEvery−1; its packed words live in ring,
// written round-robin, so the oldest states are overwritten first and a
// slot whose words have been lapped reads as empty.
type fineCache struct {
	// at is the instant of the slot's state and pos the absolute word
	// position (never wrapped) of its packed form; a zero slot is empty.
	at   []float64
	pos  []int64
	ring []uint64
	head int64 // absolute position of the next word written
}

func newFineCache() fineCache {
	return fineCache{
		at:   make([]float64, cacheSlots),
		pos:  make([]int64, cacheSlots),
		ring: make([]uint64, cacheWords),
	}
}

// intact reports whether the words of the state in slot are still in
// the ring.
func (c *fineCache) intact(slot int64) bool {
	return c.head-c.pos[slot] <= int64(len(c.ring))
}

// put caches the packed state p, which must be a state just after an
// arrival.
func (c *fineCache) put(p []uint64) {
	need := packedHdr + int(p[0])
	if need > len(c.ring) {
		return
	}
	at := packedT(p)
	slot := packedEvents(p) / fineEvery & (cacheSlots - 1)
	if c.at[slot] == at && c.intact(slot) {
		return // already cached: arrival instants are strictly increasing
	}
	off := int(c.head % int64(len(c.ring)))
	if off+need > len(c.ring) {
		c.head += int64(len(c.ring) - off)
		off = 0
	}
	copy(c.ring[off:off+need], p[:need])
	c.at[slot], c.pos[slot] = at, c.head
	c.head += int64(need)
}

// latest scans the slots of fine indices lo..hi and returns the
// packed form of the latest state found with after < instant ≤ t, or
// nil. A slot may hold a state from another stretch of the timeline
// (the same index mod cacheSlots); the instant test alone decides,
// because every cached state is a true state of this replica.
func (c *fineCache) latest(lo, hi int64, after, t float64) []uint64 {
	if len(c.at) == 0 {
		return nil // the zero fineCache caches nothing
	}
	if hi-lo >= cacheSlots {
		hi = lo + cacheSlots - 1
	}
	best := int64(-1)
	for f := lo; f <= hi; f++ {
		slot := f & (cacheSlots - 1)
		if a := c.at[slot]; a > after && a <= t && c.intact(slot) {
			after, best = a, slot
		}
	}
	if best < 0 {
		return nil
	}
	return c.ring[c.pos[best]%int64(len(c.ring)):]
}

// replica is one modeled server's saved states. mu guards them, and a
// Price call holds it twice, briefly: to pick the state its replay
// resumes from and unpack it into a replay of its own, and to publish
// what that replay saved. The replay itself runs under no lock, so
// callers pricing one replica replay side by side.
type replica struct {
	m  *Model
	mu spinlock.Mutex
	// spine holds the permanent checkpoints packed back to back in event
	// order, spineAt[i] the word offset of checkpoint i; checkpoint 0 is
	// genesis (t=0, empty queue, first arrival drawn).
	spine   []uint64
	spineAt []int
	// spineEvents is the event count of the last checkpoint; explored
	// the highest event count any replay has reached.
	spineEvents, explored int64
	fine                  fineCache
	// free holds the replays no Price call is using, so steady-state
	// queries do not allocate: one per caller that has priced here at
	// once.
	free []*replay

	acct acct
}

// replay is one Price call's working set, taken from its replica's free
// list in the first hold and given back in the second: the state the
// replay advances, the tagged-job clone, and what the replay saved on
// the way for the second hold to publish.
type replay struct {
	st, cl state
	// spineEvents is the spine frontier the replay checkpoints against:
	// the replica's when the replay began, moved on by every checkpoint
	// it packs.
	spineEvents int64
	// ckpts holds the checkpoints the replay passed, packed back to
	// back; land the state it landed on, empty when it landed on a
	// checkpoint or replayed no arrival.
	ckpts, land []uint64
	// ahead[next:n] are the background arrivals after st's next one,
	// drawn ahead from st.r: st.r itself still moves two draws per
	// arrival consumed, so every state st passes through is the one a
	// replay drawing one arrival at a time would have.
	ahead   [aheadMax]arrival
	next, n int
}

// arrival is one background arrival drawn ahead: its gap after the
// previous arrival, in seconds, and its service demand.
type arrival struct{ gap, demand float64 }

func newReplica(m *Model, idx int) *replica {
	rp := &replica{m: m, fine: newFineCache()}
	genesis := state{r: rng{s: hash64.Mix(uint64(m.opts.Seed)^0xB0E57A7E_5EED_0001) ^ uint64(idx)*0x9FB21C651E98DF25}}
	genesis.nextAt = math.Inf(1)
	if m.lambda > 0 {
		genesis.nextAt = genesis.r.exp() / m.lambda
		genesis.nextDemand = m.backgroundDemand(genesis.r.exp())
	}
	rp.spineAt = append(rp.spineAt, 0)
	rp.spine = genesis.pack(rp.spine)
	return rp
}

// spineState returns the packed form of spine checkpoint i.
func (rp *replica) spineState(i int) []uint64 { return rp.spine[rp.spineAt[i]:] }

// backgroundDemand is the service demand of a background job whose
// unit exponential draw is e. Every distribution takes the draw, so the
// stream's layout is the same across distributions.
func (m *Model) backgroundDemand(e float64) float64 {
	if m.mean == 0 || m.opts.Dist == DistFixed {
		return m.mean
	}
	return e * m.mean
}

// stateAt returns a replay whose state describes instant t. It holds
// mu only to pick the latest saved state at or before t and unpack it;
// the replay forward from there runs under no lock. The caller gives
// the replay back with publish.
func (rp *replica) stateAt(t float64) *replay {
	rp.mu.Lock()
	rc := rp.resume(t)
	rp.mu.Unlock()
	rp.advance(rc, t)
	return rc
}

// resume takes a replay from the free list and unpacks into it the
// latest saved state at or before t. Caller holds mu.
func (rp *replica) resume(t float64) *replay {
	// Latest spine checkpoint at or before t. Checkpoint instants are
	// strictly increasing, so binary search applies.
	lo, hi := 0, len(rp.spineAt)
	for lo < hi {
		mid := (lo + hi) / 2
		if packedT(rp.spineState(mid)) <= t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	from := rp.spineState(lo - 1)
	// The fine states of this spine segment: past the checkpoint, up to
	// the next one (or as far as any replay has been).
	last := rp.explored
	if lo < len(rp.spineAt) {
		last = packedEvents(rp.spineState(lo))
	}
	if fine := rp.fine.latest(packedEvents(from)/fineEvery, last/fineEvery, packedT(from), t); fine != nil {
		from = fine
	}
	var rc *replay
	if n := len(rp.free); n > 0 {
		rc = rp.free[n-1]
		rp.free = rp.free[:n-1]
	} else {
		rc = new(replay)
	}
	rc.st.unpack(from)
	rc.next, rc.n = 0, 0
	rc.spineEvents = rp.spineEvents
	rc.ckpts, rc.land = rc.ckpts[:0], rc.land[:0]
	return rc
}

// publish stores what rc's replay saved and returns rc to the free
// list. A checkpoint is a pure function of its event index, so one that
// another replay appended first is skipped, and the spine is the one a
// serial run builds: checkpoints exactly spineEvery arrivals apart.
func (rp *replica) publish(rc *replay) {
	rp.mu.Lock()
	for p := rc.ckpts; len(p) > 0; p = p[packedHdr+p[0]:] {
		if packedEvents(p) == rp.spineEvents+spineEvery {
			rp.spineAt = append(rp.spineAt, len(rp.spine))
			rp.spine = append(rp.spine, p[:packedHdr+p[0]]...)
			rp.spineEvents = packedEvents(p)
		}
	}
	if len(rc.land) > 0 {
		rp.fine.put(rc.land)
	}
	if rc.st.events > rp.explored {
		rp.explored = rc.st.events
	}
	rp.free = append(rp.free, rc)
	rp.mu.Unlock()
}

// advance replays background events up to and including instant t,
// then drains the final partial interval so st describes t exactly.
// The states it passes on the way are saved (consumeArrival) before
// that final drain, which is what keeps them independent of t. It
// reads nothing of the replica but its model's configuration, so it
// runs under no lock.
func (rp *replica) advance(rc *replay, t float64) {
	switch rp.m.opts.Discipline {
	case PS:
		rp.advancePS(rc, t)
	default:
		rp.advanceFIFO(rc, t)
	}
}

// advanceFIFO is the scalar virtual-work recursion: between arrivals
// the server drains unfinished work at rate 1; an arrival over the
// backlog bound is dropped (the background load sheds too — the bound
// is the replica's, not the observer's).
func (rp *replica) advanceFIFO(rc *replay, t float64) {
	st := &rc.st
	for st.nextAt <= t {
		if d := st.nextAt - st.t; st.work > d {
			st.work -= d
		} else {
			st.work = 0
		}
		st.t = st.nextAt
		if rp.m.bound <= 0 || st.work < rp.m.bound {
			st.work += st.nextDemand
		}
		rp.consumeArrival(rc, t)
	}
	if d := t - st.t; st.work > d {
		st.work -= d
	} else {
		st.work = 0
	}
	st.t = t
}

// advancePS replays arrivals and completions: n admitted jobs each
// progress at rate 1/n; an arrival over the multiprogramming bound is
// dropped.
func (rp *replica) advancePS(rc *replay, t float64) {
	st := &rc.st
	for {
		nc := math.Inf(1)
		if n := len(st.jobs); n > 0 {
			nc = st.t + (st.jobs[0]-st.off)*float64(n)
		}
		if nc <= st.nextAt && nc <= t {
			st.off += (nc - st.t) / float64(len(st.jobs))
			st.t = nc
			st.dropDone()
			continue
		}
		if st.nextAt <= t {
			if n := len(st.jobs); n > 0 {
				st.off += (st.nextAt - st.t) / float64(n)
			}
			st.t = st.nextAt
			st.dropDone()
			if rp.m.opts.QueueDepth <= 0 || len(st.jobs) < rp.m.opts.QueueDepth {
				st.insertJob(st.nextDemand)
			}
			rp.consumeArrival(rc, t)
			continue
		}
		break
	}
	if n := len(st.jobs); n > 0 {
		st.off += (t - st.t) / float64(n)
	}
	st.t = t
	st.dropDone()
}

// consumeArrival books one background arrival as processed, takes the
// next one from the arrivals drawn ahead (refilling them when they run
// out), moves st.r past its two draws, and packs the resulting state
// into rc where one is due to
// be saved: as a spine checkpoint once the replay is spineEvery arrivals
// past the last one, else as the landing state if this was the last
// arrival at or before the replay's target t. A replay thus caches where
// its query landed — the one state a clock stepping forward resumes
// from — and not its trail, which nothing has asked for and which would
// push as many states that were asked for out of the ring.
func (rp *replica) consumeArrival(rc *replay, t float64) {
	st := &rc.st
	st.events++
	if rc.next == rc.n {
		rc.refill(rp.m, t)
	}
	a := rc.ahead[rc.next]
	rc.next++
	st.nextAt += a.gap
	st.nextDemand = a.demand
	st.r.skip(2)
	switch {
	case st.events-rc.spineEvents >= spineEvery:
		rc.ckpts = st.pack(rc.ckpts)
		rc.spineEvents = st.events
	case st.nextAt > t:
		rc.land = st.pack(rc.land[:0])
	}
}

// refill draws the arrivals after st's next one into rc.ahead, from
// st.r on: as many as reaching t should take — the expected count
// (t − nextAt)·λ plus the one past t — rounded up to an even count,
// so the 2n draws are whole four-lane groups, and at most aheadMax.
// Each arrival takes two draws, the gap and then the demand.
func (rc *replay) refill(m *Model, t float64) {
	st := &rc.st
	n := aheadMax
	if want := (t-st.nextAt)*m.lambda + 1; want < aheadMax {
		n = (int(want) + 2) &^ 1
	}
	var u [2 * aheadMax]float64
	r := st.r
	for i := range u[:2*n] {
		u[i] = r.float()
	}
	expDraws(u[:2*n])
	for i := range rc.ahead[:n] {
		rc.ahead[i] = arrival{gap: u[2*i] / m.lambda, demand: m.backgroundDemand(u[2*i+1])}
	}
	rc.next, rc.n = 0, n
}

// taggedMaxArrivals caps the tagged replay's forward walk. In an
// unbounded PS queue under sustained overload (arrival rate above the
// service rate) sojourn times genuinely diverge — the sharing level
// keeps growing, the tagged job's drain rate keeps shrinking — and the
// replay would walk that divergence one background event at a time,
// forever. Past the cap the job is declared complete at the clock
// reached: a deterministic saturation (the walk is a pure function of
// state) that reports "this wait is astronomical" without replaying
// it. Stable queues and bounded queues complete in a handful of events
// and never come near the cap.
const taggedMaxArrivals = 1 << 16

// tagged simulates a foreground job of demand svc arriving at t into
// state st (which describes t) and returns its completion instant.
// The tagged job shares the server like any other — it slows the
// background jobs in this throwaway replay — but the replay never
// escapes: it runs on rc's clone, so other queries are unperturbed.
func (rp *replica) tagged(rc *replay, t, svc float64) float64 {
	if svc <= completionEps {
		return t
	}
	cl := &rc.cl
	cl.copyFrom(&rc.st)
	rem := svc
	var arrivals int
	for {
		n := len(cl.jobs) + 1
		nc := math.Inf(1)
		if len(cl.jobs) > 0 {
			nc = cl.t + (cl.jobs[0]-cl.off)*float64(n)
		}
		tc := cl.t + rem*float64(n)
		switch {
		case nc <= tc && nc <= cl.nextAt:
			dt := nc - cl.t
			cl.off += dt / float64(n)
			rem -= dt / float64(n)
			cl.t = nc
			cl.dropDone()
		case tc <= cl.nextAt:
			return tc
		default:
			dt := cl.nextAt - cl.t
			cl.off += dt / float64(n)
			rem -= dt / float64(n)
			cl.t = cl.nextAt
			cl.dropDone()
			// The tagged job holds a slot: background admission sees it.
			if rp.m.opts.QueueDepth <= 0 || len(cl.jobs)+1 < rp.m.opts.QueueDepth {
				cl.insertJob(cl.nextDemand)
			}
			cl.events++
			cl.nextAt += cl.r.exp() / rp.m.lambda
			cl.nextDemand = rp.m.backgroundDemand(cl.r.exp())
			if arrivals++; arrivals >= taggedMaxArrivals {
				return cl.t // saturated: sojourn is diverging (see taggedMaxArrivals)
			}
		}
		if rem <= completionEps {
			return cl.t
		}
	}
}
