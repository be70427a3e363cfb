// Package bitset provides dense fixed-universe bitsets used to hold
// exact ground-truth matching sets (the Dp document sets of the paper's
// evaluation) and to compute exact conjunction/disjunction probabilities
// quickly via word-parallel operations.
package bitset

import (
	"fmt"
	"math/bits"
)

// Set is a bitset over the universe [0, n). The zero value is an empty
// set over an empty universe.
type Set struct {
	n     int
	words []uint64
}

// New returns an empty set over the universe [0, n).
func New(n int) *Set {
	if n < 0 {
		panic(fmt.Sprintf("bitset: negative universe size %d", n))
	}
	return &Set{n: n, words: make([]uint64, (n+63)/64)}
}

// Len returns the universe size n.
func (s *Set) Len() int { return s.n }

// Add inserts i into the set. It panics if i is outside the universe.
func (s *Set) Add(i int) {
	s.check(i)
	s.words[i>>6] |= 1 << (uint(i) & 63)
}

// Remove deletes i from the set.
func (s *Set) Remove(i int) {
	s.check(i)
	s.words[i>>6] &^= 1 << (uint(i) & 63)
}

// Contains reports whether i is in the set.
func (s *Set) Contains(i int) bool {
	s.check(i)
	return s.words[i>>6]&(1<<(uint(i)&63)) != 0
}

func (s *Set) check(i int) {
	if i < 0 || i >= s.n {
		panic(fmt.Sprintf("bitset: index %d out of universe [0,%d)", i, s.n))
	}
}

// Reset removes every element without changing the universe.
func (s *Set) Reset() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// Grow extends the universe to at least n (keeping current members).
// Shrinking is not supported; a smaller n is a no-op.
func (s *Set) Grow(n int) {
	if n <= s.n {
		return
	}
	s.n = n
	if need := (n + 63) / 64; need > len(s.words) {
		if need <= cap(s.words) {
			s.words = s.words[:need]
		} else {
			w := make([]uint64, need)
			copy(w, s.words)
			s.words = w
		}
	}
}

// Word returns the i-th backing word — read access for hot loops that
// intersect a sparse vector with a dense mask word by word.
func (s *Set) Word(i int) uint64 { return s.words[i] }

// Count returns the number of elements in the set.
func (s *Set) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Clone returns a copy of the set.
func (s *Set) Clone() *Set {
	out := &Set{n: s.n, words: make([]uint64, len(s.words))}
	copy(out.words, s.words)
	return out
}

// And returns the intersection of s and t as a new set. Panics if the
// universes differ.
func (s *Set) And(t *Set) *Set {
	s.sameUniverse(t)
	out := New(s.n)
	for i := range s.words {
		out.words[i] = s.words[i] & t.words[i]
	}
	return out
}

// AndCount returns |s ∩ t| without materializing the intersection.
func (s *Set) AndCount(t *Set) int {
	s.sameUniverse(t)
	c := 0
	for i := range s.words {
		c += bits.OnesCount64(s.words[i] & t.words[i])
	}
	return c
}

// OrCount returns |s ∪ t| without materializing the union.
func (s *Set) OrCount(t *Set) int {
	s.sameUniverse(t)
	c := 0
	for i := range s.words {
		c += bits.OnesCount64(s.words[i] | t.words[i])
	}
	return c
}

// Elements returns the members of the set in increasing order.
func (s *Set) Elements() []int {
	out := make([]int, 0, s.Count())
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			out = append(out, wi*64+b)
			w &= w - 1
		}
	}
	return out
}

func (s *Set) sameUniverse(t *Set) {
	if s.n != t.n {
		panic(fmt.Sprintf("bitset: universe mismatch %d vs %d", s.n, t.n))
	}
}
