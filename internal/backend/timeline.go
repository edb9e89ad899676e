package backend

import (
	"math"
	"sort"

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
	i := sort.SearchFloat64s(st.jobs, mark)
	if n := len(st.jobs); n == cap(st.jobs) {
		if cap(st.buf) <= 2*n {
			st.buf = make([]float64, 0, 2*n+8)
		}
		st.setJobs(st.jobs)
	}
	st.jobs = st.jobs[:len(st.jobs)+1]
	copy(st.jobs[i+1:], st.jobs[i:])
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

// put caches st, which must be the state just after an arrival.
func (c *fineCache) put(st *state) {
	need := packedHdr + len(st.jobs)
	if need > len(c.ring) {
		return
	}
	slot := st.events / fineEvery & (cacheSlots - 1)
	if c.at[slot] == st.t && c.intact(slot) {
		return // already cached: arrival instants are strictly increasing
	}
	off := int(c.head % int64(len(c.ring)))
	if off+need > len(c.ring) {
		c.head += int64(len(c.ring) - off)
		off = 0
	}
	st.pack(c.ring[off : off : off+need])
	c.at[slot], c.pos[slot] = st.t, c.head
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
	// scratch is the query working state; scratch2 the tagged-job clone
	// (both reused under mu so steady-state queries do not allocate).
	scratch, scratch2 state

	acct acct
}

func newReplica(m *Model, idx int) *replica {
	rp := &replica{m: m, fine: newFineCache()}
	genesis := state{r: rng{s: hash64.Mix(uint64(m.opts.Seed)^0xB0E57A7E_5EED_0001) ^ uint64(idx)*0x9FB21C651E98DF25}}
	genesis.nextAt = math.Inf(1)
	if m.lambda > 0 {
		genesis.nextAt = genesis.r.exp() / m.lambda
		genesis.nextDemand = m.drawBackgroundDemand(&genesis.r)
	}
	rp.checkpoint(&genesis)
	return rp
}

// checkpoint appends st to the spine.
func (rp *replica) checkpoint(st *state) {
	rp.spineAt = append(rp.spineAt, len(rp.spine))
	rp.spine = st.pack(rp.spine)
	rp.spineEvents = st.events
}

// spineState returns the packed form of spine checkpoint i.
func (rp *replica) spineState(i int) []uint64 { return rp.spine[rp.spineAt[i]:] }

// drawBackgroundDemand draws one background job's service demand from
// the stream.
func (m *Model) drawBackgroundDemand(r *rng) float64 {
	switch {
	case m.mean == 0:
		r.next() // keep the stream layout stable across distributions
		return 0
	case m.opts.Dist == DistFixed:
		r.next()
		return m.mean
	default:
		return r.exp() * m.mean
	}
}

// stateAt returns the queue state at instant t in the replica's
// scratch buffer. Caller holds mu; the result is valid until the next
// stateAt/tagged call.
func (rp *replica) stateAt(t float64) *state {
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
	st := &rp.scratch
	st.unpack(from)
	rp.advance(st, t)
	if st.events > rp.explored {
		rp.explored = st.events
	}
	return st
}

// advance replays background events up to and including instant t,
// then drains the final partial interval so st describes t exactly.
// The states it passes on the way are saved (consumeArrival) before
// that final drain, which is what keeps them independent of t.
func (rp *replica) advance(st *state, t float64) {
	switch rp.m.opts.Discipline {
	case PS:
		rp.advancePS(st, t)
	default:
		rp.advanceFIFO(st, t)
	}
}

// advanceFIFO is the scalar virtual-work recursion: between arrivals
// the server drains unfinished work at rate 1; an arrival over the
// backlog bound is dropped (the background load sheds too — the bound
// is the replica's, not the observer's).
func (rp *replica) advanceFIFO(st *state, t float64) {
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
		rp.consumeArrival(st, t)
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
func (rp *replica) advancePS(st *state, t float64) {
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
			rp.consumeArrival(st, t)
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

// consumeArrival books one background arrival as processed, draws the
// next one, and saves the resulting state where one is due: on the
// spine once the replay is spineEvery arrivals past its last
// checkpoint, else in the fine cache if this was the last arrival at
// or before the replay's target t. A replay thus caches where its query
// landed — the one state a clock stepping forward resumes from — and
// not its trail, which nothing has asked for and which would push as
// many states that were asked for out of the ring.
func (rp *replica) consumeArrival(st *state, t float64) {
	st.events++
	st.nextAt += st.r.exp() / rp.m.lambda
	st.nextDemand = rp.m.drawBackgroundDemand(&st.r)
	switch {
	case st.events-rp.spineEvents >= spineEvery:
		rp.checkpoint(st)
	case st.nextAt > t:
		rp.fine.put(st)
	}
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
// escapes: st and the clone are scratch, so other queries are
// unperturbed.
func (rp *replica) tagged(st *state, t, svc float64) float64 {
	if svc <= completionEps {
		return t
	}
	cl := &rp.scratch2
	cl.copyFrom(st)
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
			cl.nextDemand = rp.m.drawBackgroundDemand(&cl.r)
			if arrivals++; arrivals >= taggedMaxArrivals {
				return cl.t // saturated: sojourn is diverging (see taggedMaxArrivals)
			}
		}
		if rem <= completionEps {
			return cl.t
		}
	}
}
