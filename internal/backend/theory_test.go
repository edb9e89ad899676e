package backend

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"
)

// TestQueueMatchesTheory holds the replica model to queueing theory,
// which reads nothing of the way the package simulates: a single
// unbounded server fed Poisson arrivals at λ with exponential service at
// μ (ρ = λ/μ), observed by Price at seeded uniform instants past a
// warm-up, so each observation is a Poisson arrival's view (PASTA).
//
//   - FIFO (M/M/1): the mean wait in queue is ρ/(μ(1−ρ)).
//   - PS (M/G/1-PS): a job of size x stays x/(1−ρ) on average whatever
//     the size, so the mean of (wait + service)/service is 1/(1−ρ).
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

	for _, disc := range []Discipline{FIFO, PS} {
		for _, rho := range []float64{0.3, 0.6} {
			m := NewModel(Options{
				Enabled: true, Seed: 17, Replicas: 1, CloneFactor: 1,
				ServiceRate: mu, Discipline: disc, Dist: DistExp, Offered: rho * mu,
			})
			want := rho / (mu * (1 - rho)) // FIFO: mean wait, seconds
			if disc == PS {
				want = 1 / (1 - rho) // mean sojourn over service
			}
			var means [batches]float64
			for i, at := range ats {
				a := m.Price(0, at, uint64(i), uint64(i)*0x9E3779B97F4A7C15, uint64(i), 1)
				x := a.Wait.Seconds()
				if disc == PS {
					x = (a.Wait + a.Service).Seconds() / a.Service.Seconds()
				}
				means[i*batches/n] += x / (n / batches)
			}
			var mean, ss float64
			for _, b := range means {
				mean += b / batches
			}
			for _, b := range means {
				ss += (b - mean) * (b - mean)
			}
			se := math.Sqrt(ss / (batches - 1) / batches)
			t.Logf("%v ρ=%.1f: mean %.5f, theory %.5f, batch-means SE %.5f (%.2f SE off)", disc, rho, mean, want, se, (mean-want)/se)
			if se > 0.03*want {
				t.Errorf("%v ρ=%.1f: the batch-means standard error %.5f is over 3%% of %.5f: the band says nothing", disc, rho, se, want)
			}
			if math.Abs(mean-want) > z*se {
				t.Errorf("%v ρ=%.1f: mean %.5f, theory %.5f: outside %d batch-means standard errors (%.5f)", disc, rho, mean, want, z, se)
			}
		}
	}
}
