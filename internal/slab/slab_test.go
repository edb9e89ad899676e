package slab

import "testing"

// TestReserveGrowsByAnEighth: Reserve keeps the elements and the length,
// leaves a slab with room alone, and grows a full one to its need plus
// an eighth, or plus minStep while that is more — so a slab filled one
// element at a time carries at most an eighth of slack once past a few
// dozen elements and is reallocated a logarithmic number of times.
func TestReserveGrowsByAnEighth(t *testing.T) {
	var s []int
	grows := 0
	for i := 0; i < 1000; i++ {
		before := cap(s)
		s = append(Reserve(s, 1), i)
		if cap(s) != before {
			grows++
			if want := len(s) + max(len(s)/8, minStep); cap(s) != want {
				t.Fatalf("at length %d: grew to capacity %d, want %d", len(s), cap(s), want)
			}
		}
		if s[i] != i || s[0] != 0 {
			t.Fatalf("at length %d: elements lost", len(s))
		}
	}
	if grows > 45 {
		t.Errorf("%d reallocations for 1000 appends", grows)
	}
	if r := Reserve(s[:10], 5); &r[0] != &s[0] || len(r) != 10 {
		t.Error("a slab with room was reallocated or resized")
	}
}
