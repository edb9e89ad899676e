// Package placement maps users to fleet shards. It exists so the
// fleet's routing policy is a pluggable value instead of a formula
// buried in the serve path: the legacy static modulo mapping is one
// implementation (and stays the default, byte-identical to the
// historical fleet routing), and a consistent-hash ring with virtual
// nodes is another — the one that makes live resharding cheap, because
// resizing the ring remaps only ~|Δn|/n of the user population instead
// of nearly all of it.
//
// A Placement is an immutable value: ShardOf must be a pure function
// of the key, so routing decisions taken concurrently by many workers
// never need a lock, and two placements built from the same parameters
// agree forever. Resize derives a new placement for a different shard
// count; it is the fleet's migration machinery (fleet.Resize) that
// moves the affected users' state to their new homes.
package placement

import (
	"fmt"
	"sort"

	"pocketcloudlets/internal/hash64"
)

// Placement maps a 64-bit user key (UserKey) to a shard in [0, Shards).
type Placement interface {
	// Name identifies the policy ("modulo", "ring") for reports.
	Name() string
	// Shards is the shard count this placement routes over.
	Shards() int
	// ShardOf returns the home shard of a key. Pure and lock-free.
	ShardOf(key uint64) int
	// Resize derives a placement over n shards (n ≥ 1) that preserves
	// as much of this placement's mapping as the policy allows: the
	// ring keeps every surviving shard's points, so only transferred
	// arcs remap; modulo rebuilds the formula, remapping nearly all
	// keys. Panics if n < 1 — callers validate first.
	Resize(n int) Placement
}

// userKeySalt is the routing salt the fleet has used since the first
// sharded release; UserKey must keep producing the same keys or the
// default placement stops being byte-identical to the legacy mapping.
const userKeySalt = 0x517CC1B727220A95

// UserKey derives the placement key of a user ID — the exact value the
// fleet's legacy routing hashed with (splitmix64 finalization of the
// golden-ratio spread user ID XOR the routing salt), extracted here so
// every placement routes on the same key space.
func UserKey(uid uint64) uint64 {
	return hash64.Mix((uid+1)*0x9E3779B97F4A7C15 ^ userKeySalt)
}

// Modulo is the legacy static mapping: key mod shards. Cheap and
// perfectly balanced over uniform keys, but a resize remaps nearly
// every key — the cold-restart behavior resharding exists to avoid.
type Modulo struct {
	shards int
}

// NewModulo builds the legacy modulo placement over n shards.
func NewModulo(n int) (*Modulo, error) {
	if n < 1 {
		return nil, fmt.Errorf("placement: modulo needs at least 1 shard, got %d", n)
	}
	return &Modulo{shards: n}, nil
}

// Name implements Placement.
func (m *Modulo) Name() string { return "modulo" }

// Shards implements Placement.
func (m *Modulo) Shards() int { return m.shards }

// ShardOf implements Placement.
func (m *Modulo) ShardOf(key uint64) int { return int(key % uint64(m.shards)) }

// Resize implements Placement. The modulo formula has no stable
// structure to preserve: the new mapping shares only the keys whose
// residues happen to coincide (~1/max(n, old) of them).
func (m *Modulo) Resize(n int) Placement {
	next, err := NewModulo(n)
	if err != nil {
		panic(err)
	}
	return next
}

// DefaultVirtualNodes is the ring's default virtual-node count per
// shard. 64 points per shard keeps the max/mean load ratio within a
// few tens of percent while the ring stays small enough to rebuild in
// microseconds.
const DefaultVirtualNodes = 64

// ringPoint is one virtual node on the ring.
type ringPoint struct {
	hash  uint64
	shard int
}

// Ring is a consistent-hash ring: each shard owns vnodes points placed
// by hashing "(shard, vnode)" labels with the repo's hash64 primitive,
// and a key belongs to the first point at or clockwise after it. A
// shard's points depend only on its own index, so resizing keeps every
// surviving shard's points in place: growing moves only the arcs the
// new shards' points capture (~(n−old)/n of keys), shrinking moves
// only the removed shards' arcs.
type Ring struct {
	shards int
	vnodes int
	points []ringPoint
}

// NewRing builds a ring over n shards with v virtual nodes per shard
// (v ≤ 0 selects DefaultVirtualNodes).
func NewRing(n, v int) (*Ring, error) {
	if n < 1 {
		return nil, fmt.Errorf("placement: ring needs at least 1 shard, got %d", n)
	}
	if v <= 0 {
		v = DefaultVirtualNodes
	}
	r := &Ring{shards: n, vnodes: v, points: make([]ringPoint, 0, n*v)}
	for s := 0; s < n; s++ {
		for i := 0; i < v; i++ {
			r.points = append(r.points, ringPoint{hash: pointHash(s, i), shard: s})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		a, b := r.points[i], r.points[j]
		if a.hash != b.hash {
			return a.hash < b.hash
		}
		return a.shard < b.shard
	})
	return r, nil
}

// pointHash places one virtual node: the FNV-1a hash of its label (the
// same primitive the rest of the repo hashes strings with), finalized
// through splitmix64 — raw FNV of near-identical labels clusters in
// the high bits the ring search keys on. The label depends only on
// (shard, vnode), which is what makes resizes stable.
func pointHash(shard, vnode int) uint64 {
	return hash64.Mix(hash64.Sum(fmt.Sprintf("ring-shard-%d-vnode-%d", shard, vnode)))
}

// Name implements Placement.
func (r *Ring) Name() string { return "ring" }

// Shards implements Placement.
func (r *Ring) Shards() int { return r.shards }

// VirtualNodes returns the per-shard virtual-node count.
func (r *Ring) VirtualNodes() int { return r.vnodes }

// ShardOf implements Placement: binary-search the first point at or
// after the key, wrapping past the top of the ring.
func (r *Ring) ShardOf(key uint64) int {
	pts := r.points
	i := sort.Search(len(pts), func(i int) bool { return pts[i].hash >= key })
	if i == len(pts) {
		i = 0
	}
	return pts[i].shard
}

// Resize implements Placement: a ring over n shards with the same
// virtual-node count. Surviving shards re-derive identical points, so
// only the arcs gained by new shards (grow) or orphaned by removed
// shards (shrink) change owners.
func (r *Ring) Resize(n int) Placement {
	next, err := NewRing(n, r.vnodes)
	if err != nil {
		panic(err)
	}
	return next
}
