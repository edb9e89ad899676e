package backend

import (
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pocketcloudlets/internal/faults"
)

// benchOpts is the backend of the repository benchmark's fault_hedge
// workload (bench/scenarios/fault_hedge.json) with the offered load and
// the queue depth left open. The workload's own are 20 and 16:
// λ = 13.3/s a replica against μ = 30/s, well under the knee.
func benchOpts(disc Discipline, offered float64, depth int) Options {
	return Options{
		Enabled: true, Seed: 1, Replicas: 3, CloneFactor: 2,
		ServiceRate: 30, QueueDepth: depth, Discipline: disc,
		Offered: offered, CancelOnWin: true,
	}
}

// benchLoads are the queues every access pattern is priced against:
// the fault_hedge profile under both disciplines, and a PS queue 64
// deep held full by λ = 40/s — the saturated end of the knee study,
// where every saved state carries 64 marks.
var benchLoads = []struct {
	name string
	o    Options
}{
	{"fifo", benchOpts(FIFO, 20, 16)},
	{"ps", benchOpts(PS, 20, 16)},
	{"ps-saturated", benchOpts(PS, 60, 64)},
}

const (
	benchQueries = 8192
	benchStep    = 700 * time.Millisecond
)

var benchSink faults.Admission

// benchQuery is one query of an access pattern: the replica and
// instant it prices, and the user asking.
type benchQuery struct {
	replica int
	at      time.Duration
	uid     uint64
}

// stepQueries is the access pattern that visits the instants
// k·benchStep in the given order (nil: ascending), on replica k mod 3.
func stepQueries(order []int) []benchQuery {
	qs := make([]benchQuery, benchQueries)
	for i := range qs {
		k := i
		if order != nil {
			k = order[i]
		}
		qs[i] = benchQuery{replica: k % 3, at: time.Duration(k) * benchStep, uid: uint64(k % 600)}
	}
	return qs
}

// pricer returns the function that prices the i-th query of the access
// pattern qs (repeated past its end) on a model with options o, and the
// model. One pass over the pattern explores the horizon first, so what
// follows is steady state: the spine is built and nothing is left to
// allocate (DESIGN.md, "Queued backends": saved states are unpacked into
// a replay from the replica's free list).
func pricer(o Options, qs []benchQuery) (price func(i int) faults.Admission, m *Model) {
	m = NewModel(o)
	price = func(i int) faults.Admission {
		q := qs[i%len(qs)]
		return m.Price(q.replica, q.at, q.uid, uint64(i)*0x9E3779B97F4A7C15, uint64(i), 1)
	}
	for i := range qs {
		price(i)
	}
	return price, m
}

// replayed is the number of background arrivals m's replays have
// consumed so far. Read it with no Price call under way.
func replayed(m *Model) int64 {
	var n int64
	for _, rp := range m.reps {
		n += rp.replayed
	}
	return n
}

// shuffledOrder is uniformly random instants over the horizon.
func shuffledOrder() []int { return rand.New(rand.NewSource(1)).Perm(benchQueries) }

// walkersOrder is monotone clocks interleaved — what the fleet
// produces. The Price instants fault_hedge logs are two to four clocks
// at a time (a median three distinct stretches in any 200 successive
// queries of a replica: the client goroutines, each walking one user's
// month), a median 4.1 s a step. Walker w owns its own stretch of the
// horizon, and the walkers take turns.
func walkersOrder() []int {
	const walkers = 4
	order := make([]int, 0, benchQueries)
	for step := 0; step < benchQueries/walkers; step++ {
		for w := 0; w < walkers; w++ {
			order = append(order, w*(benchQueries/walkers)+step)
		}
	}
	return order
}

// usersQueries is the pattern fault_hedge makes of its users: each user
// has a clock of its own that a pass walks through one span, the spans
// spread sixteenfold across users (log-uniform, a quarter to four times
// 160 s), and users take turns, each walking its whole span before the
// next starts. Pass p walks user u through [p, p+1)·span(u), so later
// passes revisit stretches that faster or slower users walked in other
// passes. A user's steps cycle through the three replicas, so at
// λ = 13.3/s its step on one replica is some 100 to 1,600 arrivals, and
// the 8 passes lay down more landings than the fine cache holds.
func usersQueries() []benchQuery {
	const (
		users  = 64
		steps  = 16
		passes = benchQueries / (users * steps)
	)
	r := rand.New(rand.NewSource(2))
	span := make([]time.Duration, users)
	for u := range span {
		span[u] = time.Duration(160 * math.Exp2(4*r.Float64()-2) * float64(time.Second))
	}
	qs := make([]benchQuery, 0, benchQueries)
	for p := 0; p < passes; p++ {
		for u := 0; u < users; u++ {
			for s := 0; s < steps; s++ {
				at := time.Duration(p)*span[u] + time.Duration(s)*span[u]/steps
				qs = append(qs, benchQuery{replica: (u + s) % 3, at: at, uid: uint64(u)})
			}
		}
	}
	return qs
}

// priceParallel prices n queries from procs goroutines side by side, the
// way fault_hedge's clients do: goroutine g steps through its own
// stretch of the horizon, one of eight, and wraps back to its start.
func priceParallel(price func(i int) faults.Admission, procs, n int) {
	const stretches = 8
	stretch := benchQueries / stretches
	var wg sync.WaitGroup
	for g := 0; g < procs; g++ {
		wg.Add(1)
		go func(base, n int) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				price(base + i%stretch)
			}
		}(g%stretches*stretch, n/procs)
	}
	wg.Wait()
}

// TestPriceAllocatesNothing holds steady-state pricing at 0 allocations
// a query: every access pattern of the BenchmarkPrice* rows, FIFO and
// PS, one goroutine or one per processor. The parallel mallocs are read
// around the run, not through testing.AllocsPerRun, which pins
// GOMAXPROCS to 1.
func TestPriceAllocatesNothing(t *testing.T) {
	const ceiling = 0
	for _, load := range benchLoads {
		for _, pattern := range []struct {
			name string
			qs   []benchQuery
		}{
			{"in-order", stepQueries(nil)}, {"shuffled", stepQueries(shuffledOrder())},
			{"walkers", stepQueries(walkersOrder())}, {"users", usersQueries()},
		} {
			price, _ := pricer(load.o, pattern.qs)
			i := 0
			if n := testing.AllocsPerRun(2000, func() { price(i); i++ }); n > ceiling {
				t.Errorf("%s/%s: a Price allocates %.0f objects, recorded %d", load.name, pattern.name, n, ceiling)
			}
		}
		const n = 2000
		price, _ := pricer(load.o, stepQueries(nil))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		priceParallel(price, runtime.GOMAXPROCS(0), n)
		runtime.ReadMemStats(&after)
		if per := (after.Mallocs - before.Mallocs) / n; per > ceiling {
			t.Errorf("%s/parallel: a Price allocates %d objects, recorded %d", load.name, per, ceiling)
		}
	}
}

// benchPrice times the given access pattern. Besides time and
// allocations, a row reports arrivals/op: the background arrivals a
// Price replays, on average.
func benchPrice(b *testing.B, qs []benchQuery) {
	for _, load := range benchLoads {
		b.Run(load.name, func(b *testing.B) {
			price, m := pricer(load.o, qs)
			from := replayed(m)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchSink = price(i)
			}
			b.ReportMetric(float64(replayed(m)-from)/float64(b.N), "arrivals/op")
		})
	}
}

// BenchmarkPriceInOrder: one monotone clock, the best case.
func BenchmarkPriceInOrder(b *testing.B) { benchPrice(b, stepQueries(nil)) }

// BenchmarkPriceShuffled: shuffledOrder.
func BenchmarkPriceShuffled(b *testing.B) { benchPrice(b, stepQueries(shuffledOrder())) }

// BenchmarkPriceWalkers: walkersOrder.
func BenchmarkPriceWalkers(b *testing.B) { benchPrice(b, stepQueries(walkersOrder())) }

// BenchmarkPriceUsers: usersQueries.
func BenchmarkPriceUsers(b *testing.B) { benchPrice(b, usersQueries()) }

// BenchmarkPriceParallel: priceParallel's walkers, one on every
// processor; ns/op is wall time per query over all of them.
func BenchmarkPriceParallel(b *testing.B) {
	const walkers = 8
	for _, load := range benchLoads {
		b.Run(load.name, func(b *testing.B) {
			price, m := pricer(load.o, stepQueries(nil))
			from := replayed(m)
			var next atomic.Int64
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				stretch := benchQueries / walkers
				base := int(next.Add(1)-1) % walkers * stretch
				var sink faults.Admission
				for i := 0; pb.Next(); i++ {
					sink = price(base + i%stretch)
				}
				_ = sink
			})
			b.ReportMetric(float64(replayed(m)-from)/float64(b.N), "arrivals/op")
		})
	}
}
