package backend

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"

	"pocketcloudlets/internal/faults"
)

// TestQueueMatchesTheory holds the replica model to queueing theory,
// which reads nothing of the way the package simulates: a single server
// fed Poisson arrivals at λ with service at rate μ (ρ = λ/μ), observed
// by Price at seeded uniform instants past a warm-up, so each
// observation is a Poisson arrival's view (PASTA).
//
//   - FIFO, exponential service (M/M/1): the mean wait in queue is
//     ρ/(μ(1−ρ)).
//   - FIFO, fixed service (M/D/1): the Pollaczek–Khinchine mean wait,
//     ρ/(2μ(1−ρ)).
//   - PS (M/G/1-PS): a job of size x stays x/(1−ρ) on average whatever
//     the size, so the mean of (wait + service)/service is 1/(1−ρ).
//   - PS bounded at K jobs, exponential service (M/M/1/K): the number in
//     system is M/M/1/K's, so the share of arrivals Price rejects is the
//     blocking probability (1−ρ)ρᴷ/(1−ρᴷ⁺¹).
//
// Observations close in time are correlated, so the band is built from
// batch means: the instants, in time order, are cut into batches each
// hundreds of relaxation times long, and the mean over all of them must
// lie within 4 standard errors of the batch means (s/√batches) of the
// theory — and that standard error within 3% of the theory, so the band
// says something.
func TestQueueMatchesTheory(t *testing.T) {
	const (
		mu      = 30.0
		warmup  = 100 * time.Second
		horizon = 20000 * time.Second
		n       = 20000
		batches = 20
		z       = 4
	)
	r := rand.New(rand.NewSource(31))
	ats := make([]time.Duration, n)
	for i := range ats {
		ats[i] = warmup + time.Duration(r.Int63n(int64(horizon)))
	}
	sort.Slice(ats, func(i, j int) bool { return ats[i] < ats[j] })

	wait := func(a faults.Admission) float64 { return a.Wait.Seconds() }
	stretch := func(a faults.Admission) float64 { return (a.Wait + a.Service).Seconds() / a.Service.Seconds() }
	rejected := func(a faults.Admission) float64 {
		if a.Rejected {
			return 1
		}
		return 0
	}
	type row struct {
		name    string
		disc    Discipline
		dist    Dist
		depth   int
		rho     float64
		want    float64
		observe func(faults.Admission) float64
	}
	var rows []row
	for _, rho := range []float64{0.3, 0.6} {
		rows = append(rows,
			row{"M/M/1 wait", FIFO, DistExp, 0, rho, rho / (mu * (1 - rho)), wait},
			row{"M/D/1 wait", FIFO, DistFixed, 0, rho, rho / (2 * mu * (1 - rho)), wait},
			row{"M/G/1-PS stretch", PS, DistExp, 0, rho, 1 / (1 - rho), stretch},
		)
	}
	// Loads at which a bounded server turns away enough arrivals for the
	// 3% band: a rarer rejection needs a longer horizon.
	for _, b := range []struct {
		k   int
		rho float64
	}{{2, 0.6}, {4, 0.9}} {
		k, rho := float64(b.k), b.rho
		rows = append(rows, row{fmt.Sprintf("M/M/1/%d blocking", b.k), PS, DistExp, b.k, rho,
			(1 - rho) * math.Pow(rho, k) / (1 - math.Pow(rho, k+1)), rejected})
	}

	for _, tc := range rows {
		m := NewModel(Options{
			Enabled: true, Seed: 17, Replicas: 1, CloneFactor: 1, QueueDepth: tc.depth,
			ServiceRate: mu, Discipline: tc.disc, Dist: tc.dist, Offered: tc.rho * mu,
		})
		var means [batches]float64
		for i, at := range ats {
			a := m.Price(0, at, uint64(i), uint64(i)*0x9E3779B97F4A7C15, uint64(i), 1)
			means[i*batches/n] += tc.observe(a) / (n / batches)
		}
		var mean, ss float64
		for _, b := range means {
			mean += b / batches
		}
		for _, b := range means {
			ss += (b - mean) * (b - mean)
		}
		se := math.Sqrt(ss / (batches - 1) / batches)
		t.Logf("%s ρ=%.1f: mean %.5f, theory %.5f, batch-means SE %.5f (%.2f SE off)", tc.name, tc.rho, mean, tc.want, se, (mean-tc.want)/se)
		if se > 0.03*tc.want {
			t.Errorf("%s ρ=%.1f: the batch-means standard error %.5f is over 3%% of %.5f: the band says nothing", tc.name, tc.rho, se, tc.want)
		}
		if math.Abs(mean-tc.want) > z*se {
			t.Errorf("%s ρ=%.1f: mean %.5f, theory %.5f: outside %d batch-means standard errors (%.5f)", tc.name, tc.rho, mean, tc.want, z, se)
		}
	}
}
