// Package sampling implements the two stream-sampling substrates of the
// paper: Vitter's reservoir sampling (TOMS'85) for document-level
// samples, and Gibbons' distinct sampling (VLDB'01) with the
// set-expression estimators of Ganguly, Garofalakis and Rastogi
// (SIGMOD'03) for per-node hash samples.
package sampling

import "math/bits"

// Hasher maps document identifiers to sampling levels such that
// Pr[Level(x) ≥ l] = 2^-l. All hash samples participating in union or
// intersection estimation must share the same Hasher; the paper's
// synopsis therefore carries a single Hasher for all nodes.
type Hasher struct {
	seed uint64
}

// NewHasher returns a Hasher derived from the given seed. Two Hashers
// with the same seed are interchangeable.
func NewHasher(seed uint64) *Hasher {
	return &Hasher{seed: splitmix64(seed ^ 0x9e3779b97f4a7c15)}
}

// Hash returns a 64-bit mix of x. The mapping is fixed for the lifetime
// of the Hasher.
func (h *Hasher) Hash(x uint64) uint64 {
	return splitmix64(x ^ h.seed)
}

// Level returns the sampling level of x: the number of trailing zero
// bits of Hash(x). Levels follow a geometric distribution:
// Pr[Level ≥ l] = 2^-l for l ≤ 63.
func (h *Hasher) Level(x uint64) int {
	return bits.TrailingZeros64(h.Hash(x))
}

// splitmix64 is the SplitMix64 finalizer: a fast, well-distributed
// 64-bit mixing function (Steele, Lea & Flood, OOPSLA'14).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
