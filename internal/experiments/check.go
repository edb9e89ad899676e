package experiments

import (
	"fmt"
	"math"
	"strconv"
)

// A Check is one row of the paper's checks: a claim, the paper's value,
// the value an experiment computed and the bound the computed value must
// lie in. The registry attaches each experiment's rows to its Spec, so
// the rows are evaluated on the very result its table renders.
type Check struct {
	// Shape marks a row of its own kind: it counts a table's or a
	// curve's structure (points, series, steps out of order) instead of
	// comparing a figure with the paper's.
	Shape bool
	// Claim names what is compared, with its unit where it has one.
	Claim string
	// Paper is the paper's value, or the shape its figure shows.
	Paper string
	// Got is the computed value.
	Got   float64
	Bound Bound
	// Deviation is the number of the entry in EXPERIMENTS.md's "Known
	// deviations" that this row documents, or 0.
	Deviation int
}

// Holds reports whether the computed value lies in the bound.
func (c Check) Holds() bool { return c.Bound.Holds(c.Got) }

// String renders the row as a failure is reported: claim, computed
// value, bound and paper value.
func (c Check) String() string {
	s := fmt.Sprintf("%s = %s, want %s (paper: %s", c.Claim, num(c.Got), c.Bound, c.Paper)
	if c.Deviation != 0 {
		s += fmt.Sprintf("; EXPERIMENTS.md known deviation %d", c.Deviation)
	}
	if c.Shape {
		s = "shape: " + s
	}
	return s + ")"
}

// A Bound is the interval a computed value must lie in. An absent side
// is infinite; a strict side excludes its end. NaN, the value of a
// point a result does not have, lies in no bound.
type Bound struct {
	Lo, Hi             float64
	StrictLo, StrictHi bool
}

// In is lo ≤ x ≤ hi; AtLeast is x ≥ lo; AtMost is x ≤ hi; Above is
// x > lo; Below is x < hi; Exactly is x = v.
func In(lo, hi float64) Bound  { return Bound{Lo: lo, Hi: hi} }
func AtLeast(lo float64) Bound { return Bound{Lo: lo, Hi: math.Inf(1)} }
func AtMost(hi float64) Bound  { return Bound{Lo: math.Inf(-1), Hi: hi} }
func Above(lo float64) Bound   { return Bound{Lo: lo, Hi: math.Inf(1), StrictLo: true} }
func Below(hi float64) Bound   { return Bound{Lo: math.Inf(-1), Hi: hi, StrictHi: true} }
func Exactly(v float64) Bound  { return Bound{Lo: v, Hi: v} }

// Holds reports whether x lies in the bound.
func (b Bound) Holds(x float64) bool {
	return (b.Lo < x || !b.StrictLo && b.Lo == x) && (x < b.Hi || !b.StrictHi && x == b.Hi)
}

func (b Bound) String() string {
	lo, hi := "[", "]"
	if b.StrictLo || math.IsInf(b.Lo, 0) {
		lo = "("
	}
	if b.StrictHi || math.IsInf(b.Hi, 0) {
		hi = ")"
	}
	return lo + num(b.Lo) + ", " + num(b.Hi) + hi
}

// num prints a whole number in full and any other to four figures.
func num(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatFloat(v, 'f', -1, 64)
	}
	return strconv.FormatFloat(v, 'g', 4, 64)
}

// countIf counts the i in [from, n) for which bad holds: the steps out
// of order in a curve.
func countIf(from, n int, bad func(i int) bool) float64 {
	c := 0.0
	for i := from; i < n; i++ {
		if bad(i) {
			c++
		}
	}
	return c
}

// at returns xs[i], or NaN when xs has no point i.
func at(xs []float64, i int) float64 {
	if i < len(xs) {
		return xs[i]
	}
	return math.NaN()
}
