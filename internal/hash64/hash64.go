// Package hash64 provides the 64-bit string hash used consistently
// across the PocketSearch components: the query hash table keys its
// entries by query hash, identifies search results by the hash of
// their web address, and the result database assigns results to files
// by hash modulo the file count (paper Sections 5.2.1-5.2.2). All
// three must agree on the hash function.
//
// The hash is FNV-1a, computed inline rather than through hash/fnv so
// the serve hot path never converts a string to []byte (that
// conversion heap-allocates for strings past the runtime's small
// stack buffer) and never allocates a hash.Hash.
package hash64

// FNV-1a 64-bit parameters (the same constants hash/fnv uses).
const (
	offset64 = 14695981039346656037
	prime64  = 1099511628211
)

// Sum returns the FNV-1a 64-bit hash of s.
func Sum(s string) uint64 {
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}

// Mix is the splitmix64 finalizer: a bijective avalanche over 64 bits,
// the one every seed derivation, fault and backend draw, routing key
// and eviction key in the repo finalizes with.
func Mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// SumBytes returns the FNV-1a 64-bit hash of b.
func SumBytes(b []byte) uint64 {
	h := uint64(offset64)
	for i := 0; i < len(b); i++ {
		h ^= uint64(b[i])
		h *= prime64
	}
	return h
}
