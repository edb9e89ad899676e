package backend

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"

	"pocketcloudlets/internal/faults"
)

// fixedCacheBytes is what one replica's fine cache holds whatever the
// horizon: the directory and the ring.
const fixedCacheBytes = 2*cacheSlots + 8*cacheWords

// retainedBytes is the memory the replica's saved states hold: the
// fine cache plus the spine, append slack included.
func (rp *replica) retainedBytes() int {
	c := &rp.fine
	return 2*cap(c.dir) + 8*(cap(c.ring)+cap(rp.spine)+cap(rp.spineAt))
}

// TestTimelineMemoryBound: saved states cost the fixed cache plus one
// checkpoint per spineEvery explored arrivals — under a tenth of a byte
// per arrival for a scalar FIFO state and a PS queue 16 deep, and no
// more than the widest state (twice over, for append slack) per
// spineEvery arrivals at any width: a saturated queue 64 deep, and an
// unbounded PS queue under sustained overload, whose backlog grows with
// model time and is part of every state. A tenth of a byte per arrival
// would buy that last queue no checkpoint at all, and so no bound on the
// replay; a checkpoint every 512 arrivals retains eight times the limit.
func TestTimelineMemoryBound(t *testing.T) {
	for _, tc := range []struct {
		name    string
		o       Options
		horizon time.Duration
		tenth   bool // holds a tenth of a byte per explored arrival
	}{
		{"ps-bounded", opts(PS, 30, 20, 16), 4000 * time.Second, true},
		{"fifo", opts(FIFO, 30, 20, 16), 4000 * time.Second, true},
		{"ps-saturated", opts(PS, 30, 60, 64), 2000 * time.Second, false},         // λ = 40 vs μ = 30
		{"ps-unbounded-overload", opts(PS, 10, 30, 0), 2000 * time.Second, false}, // λ = 20 vs μ = 10
	} {
		m := NewModel(tc.o)
		rp := m.reps[0]
		for i := 1; i <= 4; i++ {
			m.Price(0, tc.horizon*time.Duration(i)/4, uint64(i), 3, 1, 1)
		}
		end := rp.stateAt(tc.horizon.Seconds()).st
		explored := end.events
		if explored < 8*spineEvery {
			t.Fatalf("%s: explored only %d arrivals", tc.name, explored)
		}
		widest := packedHdr + tc.o.QueueDepth
		if tc.o.QueueDepth == 0 {
			widest = packedHdr + len(end.jobs)
			if widest < cacheWords {
				t.Fatalf("%s: a backlog of %d words does not outgrow the cache", tc.name, widest)
			}
		}
		limit := fixedCacheBytes + 2*8*widest*int(1+explored/spineEvery)
		if tc.tenth {
			limit = fixedCacheBytes + int(explored/10)
		}
		if got := rp.retainedBytes(); got > limit {
			t.Errorf("%s: %d B retained after %d arrivals, want at most %d", tc.name, got, explored, limit)
		}
		// The replay of a query the cache cannot serve is bounded at any width.
		for i := 1; i < len(rp.spineAt); i++ {
			if d := packedEvents(rp.spineState(i)) - packedEvents(rp.spineState(i-1)); d != spineEvery {
				t.Errorf("%s: checkpoints %d and %d are %d arrivals apart, want %d", tc.name, i-1, i, d, spineEvery)
			}
		}
		if d := explored - rp.spineEvents; d >= spineEvery {
			t.Errorf("%s: the spine ends %d arrivals short of the explored horizon, want under %d", tc.name, d, spineEvery)
		}
	}
}

// TestPricePureUnderEviction is TestPricePure over a horizon several
// times the fine cache's reach: whatever the cache holds or has lost —
// queried in ascending order, in an order that makes successive queries
// collide in the direct-mapped slots, or by concurrent monotone walkers
// — every admission equals the one a model with no cache at all (spine
// only) computes.
func TestPricePureUnderEviction(t *testing.T) {
	const (
		n       = 6000                // laps the ring twice with 3-word FIFO states
		horizon = 10000 * time.Second // 200k arrivals at λ = 20/s
		walkers = 8
	)
	r := rand.New(rand.NewSource(11))
	ats := make([]time.Duration, n)
	for i := range ats {
		ats[i] = time.Duration(r.Int63n(int64(horizon)))
	}
	sort.Slice(ats, func(i, j int) bool { return ats[i] < ats[j] })
	price := func(m *Model, i int) faults.Admission {
		return m.Price(0, ats[i], uint64(i%97), uint64(i)*0x9E3779B97F4A7C15, uint64(i), 1+i%3)
	}

	for _, tc := range []struct {
		disc  Discipline
		depth int
	}{{FIFO, 16}, {FIFO, 0}, {PS, 16}, {PS, 0}} {
		o := Options{
			Enabled: true, Seed: 5, ServiceRate: 30, QueueDepth: tc.depth,
			Discipline: tc.disc, Offered: 20,
		}
		evicted := func(m *Model) bool { return m.reps[0].fine.head > 2*cacheWords }

		spineOnly := NewModel(o)
		spineOnly.reps[0].fine = fineCache{}
		want := make([]faults.Admission, n)
		for i := range want {
			want[i] = price(spineOnly, i)
		}
		if spineOnly.reps[0].fine.head != 0 {
			t.Fatalf("%v/%d: the spine-only reference cached a state", tc.disc, tc.depth)
		}

		ascending := NewModel(o)
		for i := range want {
			if got := price(ascending, i); got != want[i] {
				t.Fatalf("%v/%d: ascending query %d: got %+v want %+v", tc.disc, tc.depth, i, got, want[i])
			}
		}

		// Two instants one alias period apart — cacheSlots fine intervals —
		// share a slot, so ordering the queries by their phase within the
		// period makes neighbours evict each other.
		period := time.Duration(float64(cacheSlots*fineEvery) / ascending.lambda * float64(time.Second))
		thrash := make([]int, n)
		for i := range thrash {
			thrash[i] = i
		}
		sort.Slice(thrash, func(a, b int) bool { return ats[thrash[a]]%period < ats[thrash[b]]%period })
		strided := NewModel(o)
		for _, i := range thrash {
			if got := price(strided, i); got != want[i] {
				t.Fatalf("%v/%d: strided query %d: got %+v want %+v", tc.disc, tc.depth, i, got, want[i])
			}
		}

		concurrent := NewModel(o)
		var wg sync.WaitGroup
		for w := 0; w < walkers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < n; i += walkers {
					if got := price(concurrent, i); got != want[i] {
						t.Errorf("%v/%d: walker %d query %d: got %+v want %+v", tc.disc, tc.depth, w, i, got, want[i])
						return
					}
				}
			}(w)
		}
		wg.Wait()

		for name, m := range map[string]*Model{"ascending": ascending, "strided": strided, "concurrent": concurrent} {
			if !evicted(m) {
				t.Errorf("%v/%d: the %s pass never lapped the ring (head %d)", tc.disc, tc.depth, name, m.reps[0].fine.head)
			}
		}
	}
}

// TestSpinePublication: replays that run side by side, each from the
// frontier it saw when it began, publish exactly the spine one goroutine
// pricing the same instants in ascending order builds — word for word,
// one checkpoint every spineEvery arrivals, none twice — and answer what
// it answers. Walkers each step a monotone clock through their own
// stretch of the horizon, the way the fleet's clients walk users'
// months; a first query deep in the horizon replays across many
// checkpoints another walker is replaying across too. Two replays taken
// from one snapshot and published one after the other cover the same
// race without a scheduler.
func TestSpinePublication(t *testing.T) {
	const (
		walkers = 6
		steps   = 240
		horizon = 9000 * time.Second // 180k arrivals at λ = 20/s: 43 checkpoints
	)
	stretch := horizon / walkers
	at := func(w, k int) time.Duration { return time.Duration(w)*stretch + time.Duration(k)*(stretch/steps) }
	price := func(m *Model, w, k int) faults.Admission {
		return m.Price(0, at(w, k), uint64(w), uint64(k)*0x9E3779B97F4A7C15, uint64(k), 1)
	}
	sameSpine := func(name string, got, want *replica) {
		t.Helper()
		if !slices.Equal(got.spine, want.spine) || !slices.Equal(got.spineAt, want.spineAt) {
			t.Errorf("%s: spine of %d checkpoints (%d words), the serial run's %d (%d words)",
				name, len(got.spineAt), len(got.spine), len(want.spineAt), len(want.spine))
		}
		for i := 1; i < len(got.spineAt); i++ {
			if d := packedEvents(got.spineState(i)) - packedEvents(got.spineState(i-1)); d != spineEvery {
				t.Fatalf("%s: checkpoints %d and %d are %d arrivals apart, want %d", name, i-1, i, d, spineEvery)
			}
		}
	}
	for _, tc := range []struct {
		disc  Discipline
		depth int
	}{{FIFO, 16}, {PS, 16}} {
		o := Options{Enabled: true, Seed: 3, ServiceRate: 30, QueueDepth: tc.depth, Discipline: tc.disc, Offered: 20}
		name := tc.disc.String()

		serial := NewModel(o)
		want := make([][]faults.Admission, walkers)
		for w := range want {
			want[w] = make([]faults.Admission, steps)
			for k := range want[w] {
				want[w][k] = price(serial, w, k)
			}
		}
		if n := len(serial.reps[0].spineAt); n < 40 {
			t.Fatalf("%s: the serial run built only %d checkpoints", name, n)
		}

		concurrent := NewModel(o)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for w := 0; w < walkers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				<-start
				for k := 0; k < steps; k++ {
					if got := price(concurrent, w, k); got != want[w][k] {
						t.Errorf("%s: walker %d step %d: got %+v want %+v", name, w, k, got, want[w][k])
						return
					}
				}
			}(w)
		}
		close(start)
		wg.Wait()
		sameSpine(name+" walkers", concurrent.reps[0], serial.reps[0])

		// Two replays to the end of the horizon from the same (genesis)
		// snapshot both pack every checkpoint; the second publishes none.
		twice := NewModel(o)
		rp := twice.reps[0]
		end := at(walkers-1, steps-1).Seconds()
		a, b := rp.stateAt(end), rp.stateAt(end)
		rp.publish(a)
		rp.publish(b)
		sameSpine(name+" one snapshot, two replays", rp, serial.reps[0])
	}
}

// stateBits lists every field of st that describes the queue, as bits:
// the instant, FIFO work, PS offset and marks, event count, the next
// arrival and the draw stream.
func stateBits(st *state) []uint64 {
	b := []uint64{
		math.Float64bits(st.t), math.Float64bits(st.work), math.Float64bits(st.off),
		uint64(st.events), math.Float64bits(st.nextAt), math.Float64bits(st.nextDemand), st.r.s,
	}
	for _, m := range st.jobs {
		b = append(b, math.Float64bits(m))
	}
	return b
}

// TestPackRoundTrip: a packed state keeps only the event count, the
// instant, the FIFO work or PS offset and the marks, and unpack with
// derive restores every field of the state, the draw stream and the
// next arrival's instant and demand included, bit for bit — at genesis,
// whose derived fields are held to a straight queue's first draws, and
// after every arrival of a replay across several spine checkpoints:
// FIFO and PS, bounded and unbounded, exponential and fixed service,
// with and without background load.
func TestPackRoundTrip(t *testing.T) {
	const arrivals = 3 * spineEvery
	for _, disc := range []Discipline{FIFO, PS} {
		for _, depth := range []int{0, 4} {
			for _, dist := range []Dist{DistExp, DistFixed} {
				for _, offered := range []float64{0, 30} {
					o := Options{
						Enabled: true, Seed: 13, Replicas: 2, ServiceRate: 30, QueueDepth: depth,
						Discipline: disc, Dist: dist, Offered: offered, CloneFactor: 2,
					}
					name := fmt.Sprintf("%v/depth%d/%v/offered%g", disc, depth, dist, offered)
					rp := NewModel(o).reps[1]
					rc := rp.stateAt(0)
					q := newStraightQueue(o, 1)
					genesis := state{nextAt: q.nextAt, nextDemand: q.nextDemand, r: rng{s: q.s}}
					if got, want := stateBits(&rc.st), stateBits(&genesis); !slices.Equal(got, want) {
						t.Fatalf("%s: genesis %x, a straight queue's %x", name, got, want)
					}
					var back state
					for i := 0; ; i++ {
						p := rp.pack(nil, &rc.st)
						if len(p) != packedHdr+len(rc.st.jobs) {
							t.Fatalf("%s: after %d arrivals a state of %d marks packs to %d words", name, i, len(rc.st.jobs), len(p))
						}
						rp.unpack(&back, p)
						rp.derive(&back)
						if got, want := stateBits(&back), stateBits(&rc.st); !slices.Equal(got, want) {
							t.Fatalf("%s: after %d arrivals the round trip gives %x, want %x", name, i, got, want)
						}
						if offered == 0 || i == arrivals {
							break
						}
						rp.advance(rc, rc.st.nextAt)
						if rc.st.events != int64(i+1) {
							t.Fatalf("%s: the replay consumed %d arrivals, want %d", name, rc.st.events, i+1)
						}
					}
				}
			}
		}
	}
}
