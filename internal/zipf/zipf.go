// Package zipf provides deterministic, seedable samplers for bounded
// Zipf-like popularity distributions.
//
// The mobile search workload model in this repository (see
// internal/workload) is built on power-law popularity curves fitted to
// the aggregate statistics reported in the Pocket Cloudlets paper
// (ASPLOS 2011, Section 4): navigational queries follow a steep curve
// (top 5000 queries cover ~90% of navigational volume) while
// non-navigational queries follow a shallow one (top 5000 cover ~30%).
// The standard library's rand.Zipf only supports exponents s > 1, so
// this package implements a general bounded sampler over ranks
// 1..N with probability proportional to rank^(-s) for any s >= 0,
// using a precomputed cumulative table and a guided binary search.
package zipf

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"sort"
)

// Dist is a bounded Zipf distribution over ranks 0..N-1 where the
// probability of rank i is proportional to (i+1)^(-s).
type Dist struct {
	n   int
	s   float64
	cum []float64 // cum[i] = P(rank <= i); cum[n-1] == 1
	// guide[k] is the first rank whose cum reaches k/K, K = len(guide)-1
	// a power of two, so a draw in [k/K, (k+1)/K) lands in
	// [guide[k], guide[k+1]] and the search starts there.
	guide []int32
}

// New builds a bounded Zipf distribution over n ranks with exponent s.
// It panics if n <= 0 or s < 0, as both indicate a programming error.
func New(n int, s float64) *Dist {
	if n <= 0 {
		panic(fmt.Sprintf("zipf: non-positive rank count %d", n))
	}
	if s < 0 {
		panic(fmt.Sprintf("zipf: negative exponent %g", s))
	}
	d := &Dist{n: n, s: s, cum: make([]float64, n)}
	total := 0.0
	for i := 0; i < n; i++ {
		total += math.Pow(float64(i+1), -s)
		d.cum[i] = total
	}
	inv := 1 / total
	for i := range d.cum {
		d.cum[i] *= inv
	}
	d.cum[n-1] = 1 // guard against floating-point shortfall
	// Between n/8 and n/4 cells: a few ranks a cell past the head.
	k := 1 << max(bits.Len(uint(n))-3, 0)
	d.guide = make([]int32, k+1)
	rank := 0
	for c := range d.guide {
		for d.cum[rank] < float64(c)/float64(k) {
			rank++
		}
		d.guide[c] = int32(rank)
	}
	return d
}

// N reports the number of ranks in the distribution.
func (d *Dist) N() int { return d.n }

// S reports the exponent of the distribution.
func (d *Dist) S() float64 { return d.s }

// Sample draws a rank in [0, N) using the provided random source.
func (d *Dist) Sample(r *rand.Rand) int { return d.rank(r.Float64()) }

// rank is the first rank whose cum reaches u ∈ [0, 1) — what a binary
// search of the whole table returns. u times a power of two and c/K are
// exact, so the cell is u's own and the bounds hold: every rank below
// guide[c] has cum < c/K ≤ u, and cum[guide[c+1]] ≥ (c+1)/K > u.
func (d *Dist) rank(u float64) int {
	c := int(u * float64(len(d.guide)-1))
	lo, hi := int(d.guide[c]), int(d.guide[c+1])
	return lo + sort.SearchFloat64s(d.cum[lo:hi], u)
}

// P returns the probability mass of the given rank.
func (d *Dist) P(rank int) float64 {
	if rank < 0 || rank >= d.n {
		return 0
	}
	if rank == 0 {
		return d.cum[0]
	}
	return d.cum[rank] - d.cum[rank-1]
}

// CDF returns the cumulative probability of ranks 0..rank inclusive.
// Ranks at or beyond N-1 return 1.
func (d *Dist) CDF(rank int) float64 {
	if rank < 0 {
		return 0
	}
	if rank >= d.n {
		return 1
	}
	return d.cum[rank]
}

// TopShare reports the fraction of total volume carried by the k most
// popular ranks. It is the quantity the paper plots in Figure 4.
func (d *Dist) TopShare(k int) float64 { return d.CDF(k - 1) }
