package matchset

import (
	"sync"

	"treesim/internal/sampling"
)

// hashStore is the Hashes representation: a bounded per-node distinct
// sample of the documents whose skeleton paths end at the node. Value
// wraps the sample's own sorted slice — O(1), never copied, immutable by
// the sample's no-rewrite rule (sampling.DistinctSample.Sorted) — and is
// cached until the next mutation.
type hashStore struct {
	f *Factory
	s *sampling.DistinctSample

	snapMu sync.Mutex
	val    *hashValue
	dirty  bool
}

func (s *hashStore) Kind() Kind { return KindHashes }

func (s *hashStore) Add(id uint64) {
	s.s.Add(id)
	s.dirty = true
}

func (s *hashStore) Remove(id uint64) {
	s.s.Remove(id)
	s.dirty = true
}

func (s *hashStore) Value() Value {
	s.snapMu.Lock()
	if s.dirty || s.val == nil {
		s.val = &hashValue{level: s.s.Level(), ids: s.s.Sorted(), hasher: s.f.hasher}
		s.dirty = false
	}
	v := s.val
	s.snapMu.Unlock()
	return v
}

func (s *hashStore) Entries() int { return s.s.Size() }

func (s *hashStore) SetTo(v Value) {
	hv, ok := v.(*hashValue)
	if !ok {
		panic(kindMismatch(s.Value(), v))
	}
	ns := sampling.NewDistinctSample(s.f.hasher, s.f.capacity)
	// Re-inserting IDs reconstructs the sample; the level can only grow
	// back to hv.level or beyond (capacity pressure), never shrink below
	// the IDs' own levels, so the estimate stays consistent.
	for _, x := range hv.ids {
		ns.Add(x)
	}
	// The rebuilt sample must not claim a sampling rate higher than the
	// value it came from: force the level up to hv.level if needed.
	ns.ForceLevel(hv.level)
	s.s = ns
	s.dirty = true
}

// hashValue is an immutable distinct-sample view: the sorted identifiers
// retained at the given sampling level. Every retained identifier has
// hash level ≥ the value's level — unions restore this invariant by
// subsampling the lower-level operand, and intersections inherit it from
// the max-level operand. Query-time unions and intersections are not
// capacity-bounded (unlike store maintenance), which only improves
// accuracy; levels still combine by max as required for correctness.
type hashValue struct {
	level  int
	ids    []uint64
	hasher *sampling.Hasher
}

// emptyHashValue is the shared ∅ of the Hashes representation. Its nil
// hasher is never consulted: unions with it short-circuit to the other
// operand, and intersections need no subsampling (see Intersect).
var emptyHashValue = &hashValue{}

func (v *hashValue) Kind() Kind   { return KindHashes }
func (v *hashValue) IsZero() bool { return len(v.ids) == 0 }

func (v *hashValue) Card() float64 {
	return float64(len(v.ids)) * float64(uint64(1)<<uint(v.level))
}

func (v *hashValue) Union(o Value) Value {
	ov, ok := o.(*hashValue)
	if !ok {
		panic(kindMismatch(v, o))
	}
	if len(v.ids) == 0 && v.level <= ov.level {
		return ov
	}
	if len(ov.ids) == 0 && ov.level <= v.level {
		return v
	}
	h := v.hasher
	if h == nil {
		h = ov.hasher
	}
	l := max(v.level, ov.level)
	a, b := v.ids, ov.ids
	// Subsample the lower-level operand to the common level l; the other
	// operand's elements qualify by the value invariant.
	var fa, fb *[]uint64
	if v.level < l {
		fa = scratchGet(len(a))
		a = (*fa)[:filterLevel(*fa, a, h, l)]
	}
	if ov.level < l {
		fb = scratchGet(len(b))
		b = (*fb)[:filterLevel(*fb, b, h, l)]
	}
	buf := scratchGet(len(a) + len(b))
	n := mergeUnion(*buf, a, b)
	alias := aliasOf(*buf, n, v.ids, ov.ids)
	if fa != nil {
		scratchPut(fa)
	}
	if fb != nil {
		scratchPut(fb)
	}
	switch alias {
	case 1:
		scratchPut(buf)
		if v.level == l {
			return v
		}
		return &hashValue{level: l, ids: v.ids, hasher: h}
	case 2:
		scratchPut(buf)
		if ov.level == l {
			return ov
		}
		return &hashValue{level: l, ids: ov.ids, hasher: h}
	}
	return &hashValue{level: l, ids: materialize(buf, n), hasher: h}
}

func (v *hashValue) Intersect(o Value) Value {
	ov, ok := o.(*hashValue)
	if !ok {
		panic(kindMismatch(v, o))
	}
	h := v.hasher
	if h == nil {
		h = ov.hasher
	}
	l := max(v.level, ov.level)
	// No level filtering needed: every element of the max-level operand
	// already has level ≥ l, and the intersection is a subset of it.
	m := min(len(v.ids), len(ov.ids))
	if m == 0 {
		if l == 0 && h == nil {
			return emptyHashValue
		}
		return &hashValue{level: l, hasher: h}
	}
	buf := scratchGet(m)
	n := intersectInto(*buf, v.ids, ov.ids)
	switch aliasOf(*buf, n, v.ids, ov.ids) {
	case 1:
		scratchPut(buf)
		if v.level == l {
			return v
		}
		return &hashValue{level: l, ids: v.ids, hasher: h}
	case 2:
		scratchPut(buf)
		if ov.level == l {
			return ov
		}
		return &hashValue{level: l, ids: ov.ids, hasher: h}
	}
	return &hashValue{level: l, ids: materialize(buf, n), hasher: h}
}

// intersectCard mirrors Intersect + Card without building the value:
// the intersection keeps the raw common identifiers at level
// max(v.level, ov.level), so its cardinality is the common count scaled
// by 2^level.
func (v *hashValue) intersectCard(o Value) float64 {
	ov, ok := o.(*hashValue)
	if !ok {
		panic(kindMismatch(v, o))
	}
	l := max(v.level, ov.level)
	return float64(intersectCount(v.ids, ov.ids)) * float64(uint64(1)<<uint(l))
}

// NewHashValue builds a Hashes-kind value directly; exported for tests.
func NewHashValue(hasher *sampling.Hasher, level int, ids ...uint64) Value {
	out := make([]uint64, 0, len(ids))
	for _, x := range ids {
		if hasher.Level(x) >= level {
			out = append(out, x)
		}
	}
	return &hashValue{level: level, ids: sortIDs(out), hasher: hasher}
}

func (s *hashStore) Dump() Dump {
	return Dump{Kind: KindHashes, Level: s.s.Level(), IDs: s.s.IDs()}
}
