package backend

import (
	"math/rand"
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

// benchPrice prices the same benchQueries instants over and over in the
// given order (nil: ascending). One untimed pass explores the horizon
// first, so the timed loop measures steady state: the spine is built and
// nothing is left to allocate.
func benchPrice(b *testing.B, order []int) {
	for _, load := range benchLoads {
		b.Run(load.name, func(b *testing.B) {
			m := NewModel(load.o)
			price := func(i int) {
				k := i % benchQueries
				if order != nil {
					k = order[k]
				}
				benchSink = m.Price(k%3, time.Duration(k)*benchStep, uint64(k%600), uint64(k)*0x9E3779B97F4A7C15, uint64(k), 1)
			}
			for i := 0; i < benchQueries; i++ {
				price(i)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				price(i)
			}
		})
	}
}

// BenchmarkPriceInOrder: one monotone clock, the best case.
func BenchmarkPriceInOrder(b *testing.B) { benchPrice(b, nil) }

// BenchmarkPriceShuffled: uniformly random instants over the horizon.
func BenchmarkPriceShuffled(b *testing.B) {
	benchPrice(b, rand.New(rand.NewSource(1)).Perm(benchQueries))
}

// BenchmarkPriceWalkers: monotone clocks interleaved — what the fleet
// produces. The Price instants fault_hedge logs are two to four clocks
// at a time (a median three distinct stretches in any 200 successive
// queries of a replica: the client goroutines, each walking one user's
// month), a median 4.1 s a step. Walker w owns its own stretch of the
// horizon, and the walkers take turns.
func BenchmarkPriceWalkers(b *testing.B) {
	const walkers = 4
	order := make([]int, 0, benchQueries)
	for step := 0; step < benchQueries/walkers; step++ {
		for w := 0; w < walkers; w++ {
			order = append(order, w*(benchQueries/walkers)+step)
		}
	}
	benchPrice(b, order)
}

// BenchmarkPriceParallel: a walker on every processor at once, pricing
// side by side the way fault_hedge's clients do. Goroutine g steps
// through its own stretch of the horizon, one of eight, and wraps back
// to the stretch's start; ns/op is wall time per query over all of them.
func BenchmarkPriceParallel(b *testing.B) {
	const walkers = 8
	for _, load := range benchLoads {
		b.Run(load.name, func(b *testing.B) {
			m := NewModel(load.o)
			price := func(k int) faults.Admission {
				return m.Price(k%3, time.Duration(k)*benchStep, uint64(k%600), uint64(k)*0x9E3779B97F4A7C15, uint64(k), 1)
			}
			for k := 0; k < benchQueries; k++ {
				price(k)
			}
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
