package backend

import (
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

// pricer returns the function that prices the i-th query of an access
// pattern (order; nil: ascending) over benchQueries instants of a model
// with options o. One pass over the pattern explores the horizon first,
// so what follows is steady state: the spine is built and nothing is
// left to allocate (DESIGN.md, "Queued backends": saved states are
// unpacked into a replay from the replica's free list).
func pricer(o Options, order []int) (price func(i int) faults.Admission) {
	m := NewModel(o)
	price = func(i int) faults.Admission {
		k := i % benchQueries
		if order != nil {
			k = order[k]
		}
		return m.Price(k%3, time.Duration(k)*benchStep, uint64(k%600), uint64(k)*0x9E3779B97F4A7C15, uint64(k), 1)
	}
	for i := 0; i < benchQueries; i++ {
		price(i)
	}
	return price
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
			name  string
			order []int
		}{{"in-order", nil}, {"shuffled", shuffledOrder()}, {"walkers", walkersOrder()}} {
			price, i := pricer(load.o, pattern.order), 0
			if n := testing.AllocsPerRun(2000, func() { price(i); i++ }); n > ceiling {
				t.Errorf("%s/%s: a Price allocates %.0f objects, recorded %d", load.name, pattern.name, n, ceiling)
			}
		}
		const n = 2000
		price := pricer(load.o, nil)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		priceParallel(price, runtime.GOMAXPROCS(0), n)
		runtime.ReadMemStats(&after)
		if per := (after.Mallocs - before.Mallocs) / n; per > ceiling {
			t.Errorf("%s/parallel: a Price allocates %d objects, recorded %d", load.name, per, ceiling)
		}
	}
}

// benchPrice times the given access pattern (nil: ascending).
func benchPrice(b *testing.B, order []int) {
	for _, load := range benchLoads {
		b.Run(load.name, func(b *testing.B) {
			price := pricer(load.o, order)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchSink = price(i)
			}
		})
	}
}

// BenchmarkPriceInOrder: one monotone clock, the best case.
func BenchmarkPriceInOrder(b *testing.B) { benchPrice(b, nil) }

// BenchmarkPriceShuffled: shuffledOrder.
func BenchmarkPriceShuffled(b *testing.B) { benchPrice(b, shuffledOrder()) }

// BenchmarkPriceWalkers: walkersOrder.
func BenchmarkPriceWalkers(b *testing.B) { benchPrice(b, walkersOrder()) }

// BenchmarkPriceParallel: priceParallel's walkers, one on every
// processor; ns/op is wall time per query over all of them.
func BenchmarkPriceParallel(b *testing.B) {
	const walkers = 8
	for _, load := range benchLoads {
		b.Run(load.name, func(b *testing.B) {
			price := pricer(load.o, nil)
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
		})
	}
}
