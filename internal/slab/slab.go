// Package slab holds the growth rule of the per-user slabs — a user's
// hash table, result database and eviction list. Each gains an element
// or two a day and stays resident for the life of the user, so the
// doubling append applies would leave up to half of every one as slack;
// a slab grows by an eighth instead, and by at least minStep elements,
// which keeps the slack near an eighth at a copy cost that is still
// amortized constant per element, and spares a small slab a
// reallocation per element.
package slab

// minStep is the fewest elements a slab grows by.
const minStep = 4

// Reserve returns s with room for n more elements without reallocation:
// s itself when it has the room, else a copy with capacity for its
// length plus n plus an eighth (at least minStep more). The length is
// unchanged.
func Reserve[E any](s []E, n int) []E {
	if need := len(s) + n; need > cap(s) {
		grown := make([]E, len(s), need+max(need/8, minStep))
		copy(grown, s)
		return grown
	}
	return s
}
