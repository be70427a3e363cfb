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
//
// The retained identifiers are held sorted as uvarint gaps (Packed):
// about 1.5 bytes per id on a document stream, against 8 as a []uint64.
type DistinctSample struct {
	h     *Hasher
	cap   int
	level int
	// ids is handed out by Packed without copying, so no byte below the
	// length of a list ever handed out is written again: an in-order Add
	// appends a gap past that length, Remove of the smallest element
	// reslices, and every other mutation builds a fresh list.
	ids Packed
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
	if s.ids.n == 0 || x > s.ids.last {
		s.ids.Append(x)
	} else {
		ids := s.ids.AppendTo(make([]uint64, 0, s.ids.n+1))
		i, found := slices.BinarySearch(ids, x)
		if found {
			return
		}
		s.ids = Pack(slices.Insert(ids, i, x))
	}
	for s.ids.n > s.cap {
		s.raise(s.level + 1)
	}
}

// Remove deletes x from the sample if present. Note that removal from a
// distinct sample is best-effort: if x was subsampled away earlier it is
// simply absent.
func (s *DistinctSample) Remove(x uint64) {
	switch {
	case !s.ids.Contains(x):
	case s.ids.first() == x: // a sliding window expires the oldest id first
		s.ids = s.ids.DropFirst()
	default:
		s.ids = s.ids.Filter(func(y uint64) bool { return y != x })
	}
}

// raise moves to level l > s.level, dropping elements whose hash level
// is below it.
func (s *DistinctSample) raise(l int) {
	s.level = l
	s.ids = s.ids.Filter(s.atLevel)
}

// atLevel reports whether x survives at s's current level.
func (s *DistinctSample) atLevel(x uint64) bool { return s.h.Level(x) >= s.level }

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
func (s *DistinctSample) Size() int { return s.ids.n }

// Capacity returns the maximum number of retained identifiers.
func (s *DistinctSample) Capacity() int { return s.cap }

// Estimate returns the estimated cardinality of the underlying set:
// |sample| · 2^level.
func (s *DistinctSample) Estimate() float64 {
	return float64(s.ids.n) * float64(uint64(1)<<uint(s.level))
}

// Contains reports whether x is currently retained in the sample.
func (s *DistinctSample) Contains(x uint64) bool { return s.ids.Contains(x) }

// Packed returns the retained identifiers without copying them. The
// result stays valid — and unchanged — however the sample is mutated
// afterwards (its capacity is clipped, so appending to it copies).
func (s *DistinctSample) Packed() Packed {
	p := s.ids
	p.b = slices.Clip(p.b)
	return p
}

// IDs returns a copy of the retained identifiers in ascending order.
func (s *DistinctSample) IDs() []uint64 { return s.ids.AppendTo(nil) }

// Clone returns an independent copy of the sample; the two share the
// bytes neither rewrites.
func (s *DistinctSample) Clone() *DistinctSample {
	return &DistinctSample{h: s.h, cap: s.cap, level: s.level, ids: s.Packed()}
}

// UnionInto merges other into s (s ← sample of union): the level becomes
// max of the two levels, both sides are subsampled to it, and the result
// is subsampled further if it exceeds s's capacity.
func (s *DistinctSample) UnionInto(other *DistinctSample) {
	if s.h != other.h {
		panic("sampling: union of samples with different hashers")
	}
	s.level = max(s.level, other.level)
	merged := slices.DeleteFunc(other.ids.AppendTo(s.IDs()), func(x uint64) bool { return !s.atLevel(x) })
	slices.Sort(merged)
	s.ids = Pack(slices.Compact(merged))
	for s.ids.n > s.cap {
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
	b := other.IDs()
	for x := range s.ids.All() {
		if _, found := slices.BinarySearch(b, x); found && out.atLevel(x) {
			out.ids.Append(x)
		}
	}
	return out
}
