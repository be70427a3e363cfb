package sampling

import "slices"

// DistinctSample is a bounded-size sample of a set of uint64 identifiers
// maintained with Gibbons' distinct-sampling scheme: the sample keeps
// exactly the inserted elements whose hash level is ≥ the current level,
// and doubles the sampling rate (level++) whenever the sample overflows
// its capacity. The cardinality of the underlying set is estimated as
// |sample| · 2^level.
//
// All samples combined with Union/Intersect must share the same *Hasher.
// Because membership at a level is a deterministic function of the
// element, the union (intersection) of two samples subsampled to a common
// level is exactly the distinct sample of the union (intersection) of the
// underlying sets at that level — this is what makes the set-expression
// estimators of Ganguly et al. work.
type DistinctSample struct {
	h     *Hasher
	cap   int
	level int
	// ids is sorted ascending and duplicate-free. Sorted hands it out
	// without copying, so no index below the length of a slice ever
	// handed out is written again: an in-order Add appends past that
	// length, Remove of the smallest element reslices, and every other
	// mutation builds a fresh slice.
	ids []uint64
}

// NewDistinctSample returns an empty sample with the given capacity
// (maximum number of retained identifiers). Capacity must be ≥ 1.
func NewDistinctSample(h *Hasher, capacity int) *DistinctSample {
	if capacity < 1 {
		panic("sampling: distinct sample capacity must be >= 1")
	}
	return &DistinctSample{h: h, cap: capacity}
}

// Add inserts x into the sampled set. Identifiers that arrive in
// increasing order (document ids do) cost a level check and an append.
func (s *DistinctSample) Add(x uint64) {
	if s.h.Level(x) < s.level {
		return
	}
	if n := len(s.ids); n == 0 || x > s.ids[n-1] {
		s.ids = append(s.ids, x)
	} else if i, found := slices.BinarySearch(s.ids, x); found {
		return
	} else {
		s.ids = slices.Concat(s.ids[:i], []uint64{x}, s.ids[i:])
	}
	for len(s.ids) > s.cap {
		s.raise(s.level + 1)
	}
}

// Remove deletes x from the sample if present. Note that removal from a
// distinct sample is best-effort: if x was subsampled away earlier it is
// simply absent.
func (s *DistinctSample) Remove(x uint64) {
	switch i, found := slices.BinarySearch(s.ids, x); {
	case !found:
	case i == 0: // a sliding window expires the oldest id first
		s.ids = s.ids[1:]
	default:
		s.ids = slices.Concat(s.ids[:i], s.ids[i+1:])
	}
}

// raise moves to level l > s.level, dropping elements whose hash level
// is below it. The fresh slice has room for the sample to fill up again,
// so the appends until the next overflow never reallocate.
func (s *DistinctSample) raise(l int) {
	s.level = l
	s.ids = s.appendAtLevel(make([]uint64, 0, s.cap+1), s.ids)
}

// appendAtLevel appends to dst the elements of src that survive at s's
// current level.
func (s *DistinctSample) appendAtLevel(dst, src []uint64) []uint64 {
	for _, x := range src {
		if s.h.Level(x) >= s.level {
			dst = append(dst, x)
		}
	}
	return dst
}

// Level returns the current sampling level (sampling probability 2^-level).
func (s *DistinctSample) Level() int { return s.level }

// ForceLevel raises the sampling level to at least l, subsampling the
// retained elements accordingly. Lowering the level is impossible
// (discarded elements cannot be recovered); calls with l ≤ Level() are
// no-ops.
func (s *DistinctSample) ForceLevel(l int) {
	if l > s.level {
		s.raise(l)
	}
}

// Size returns the number of identifiers currently retained.
func (s *DistinctSample) Size() int { return len(s.ids) }

// Capacity returns the maximum number of retained identifiers.
func (s *DistinctSample) Capacity() int { return s.cap }

// Estimate returns the estimated cardinality of the underlying set:
// |sample| · 2^level.
func (s *DistinctSample) Estimate() float64 {
	return float64(len(s.ids)) * float64(uint64(1)<<uint(s.level))
}

// Contains reports whether x is currently retained in the sample.
func (s *DistinctSample) Contains(x uint64) bool {
	_, found := slices.BinarySearch(s.ids, x)
	return found
}

// Sorted returns the retained identifiers in ascending order without
// copying them. The result stays valid — and unchanged — however the
// sample is mutated afterwards; the caller must not write to it (its
// capacity is clipped, so appending to it copies).
func (s *DistinctSample) Sorted() []uint64 { return slices.Clip(s.ids) }

// IDs returns a copy of the retained identifiers in ascending order.
func (s *DistinctSample) IDs() []uint64 { return slices.Clone(s.ids) }

// Clone returns a deep copy of the sample.
func (s *DistinctSample) Clone() *DistinctSample {
	return &DistinctSample{h: s.h, cap: s.cap, level: s.level, ids: s.IDs()}
}

// UnionInto merges other into s (s ← sample of union): the level becomes
// max of the two levels, both sides are subsampled to it, and the result
// is subsampled further if it exceeds s's capacity.
func (s *DistinctSample) UnionInto(other *DistinctSample) {
	if s.h != other.h {
		panic("sampling: union of samples with different hashers")
	}
	s.level = max(s.level, other.level)
	merged := s.appendAtLevel(make([]uint64, 0, len(s.ids)+len(other.ids)), s.ids)
	merged = s.appendAtLevel(merged, other.ids)
	slices.Sort(merged)
	s.ids = slices.Compact(merged)
	for len(s.ids) > s.cap {
		s.raise(s.level + 1)
	}
}

// Union returns a new sample of the union of the two underlying sets,
// with capacity equal to s's capacity.
func (s *DistinctSample) Union(other *DistinctSample) *DistinctSample {
	out := s.Clone()
	out.UnionInto(other)
	return out
}

// Intersect returns a new sample of the intersection of the two
// underlying sets: both sides are subsampled to the max level and the
// retained identifiers are intersected. The result's capacity is s's.
func (s *DistinctSample) Intersect(other *DistinctSample) *DistinctSample {
	if s.h != other.h {
		panic("sampling: intersection of samples with different hashers")
	}
	out := &DistinctSample{h: s.h, cap: s.cap, level: max(s.level, other.level)}
	a, b := s.ids, other.ids
	for len(a) > 0 && len(b) > 0 {
		switch {
		case a[0] < b[0]:
			a = a[1:]
		case a[0] > b[0]:
			b = b[1:]
		default:
			if s.h.Level(a[0]) >= out.level {
				out.ids = append(out.ids, a[0])
			}
			a, b = a[1:], b[1:]
		}
	}
	return out
}

// JaccardEstimate estimates |A∩B| / |A∪B| for the underlying sets.
// Returns 0 when the union estimate is 0.
func (s *DistinctSample) JaccardEstimate(other *DistinctSample) float64 {
	u := s.Union(other).Estimate()
	if u == 0 {
		return 0
	}
	return s.Intersect(other).Estimate() / u
}
