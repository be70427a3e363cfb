package matchset

import (
	"sync"

	"treesim/internal/sampling"
)

// hashStore is the Hashes representation: a bounded per-node distinct
// sample of the documents whose skeleton paths end at the node. Value
// wraps the sample's own packed list — O(1), never copied, immutable by
// the sample's no-rewrite rule over its bytes (sampling.DistinctSample
// .Packed) — and is cached until the next mutation.
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
		s.val = &hashValue{level: s.s.Level(), ids: s.s.Packed(), hasher: s.f.hasher}
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
	for x := range hv.ids.All() {
		ns.Add(x)
	}
	// The rebuilt sample must not claim a sampling rate higher than the
	// value it came from: force the level up to hv.level if needed.
	ns.ForceLevel(hv.level)
	s.s = ns
	s.dirty = true
}

// hashValue is an immutable distinct-sample view: the identifiers
// retained at the given sampling level, packed sorted as uvarint gaps
// (sampling.Packed). Every retained identifier has hash level ≥ the
// value's level — unions restore this invariant by subsampling the
// lower-level operand, and intersections inherit it from the max-level
// operand. Query-time unions and intersections are not capacity-bounded
// (unlike store maintenance), which only improves accuracy; levels still
// combine by max as required for correctness. They decode their operands
// into pooled scratch, run the sorted-slice kernels there, and pack the
// result; a value shares its bytes with the store it came from, which
// never rewrites them.
type hashValue struct {
	level  int
	ids    sampling.Packed
	hasher *sampling.Hasher
}

// emptyHashValue is the shared ∅ of the Hashes representation. Its nil
// hasher is never consulted: unions with it short-circuit to the other
// operand, and intersections need no subsampling (see Intersect).
var emptyHashValue = &hashValue{}

func (v *hashValue) Kind() Kind   { return KindHashes }
func (v *hashValue) IsZero() bool { return v.ids.Len() == 0 }

func (v *hashValue) Card() float64 {
	return float64(v.ids.Len()) * float64(uint64(1)<<uint(v.level))
}

// decode writes v's identifiers into a scratch buffer, keeping only
// those that survive at level l when l > v.level. n is their count, or
// -1 when some did not survive: a result can be v only if all did.
func (v *hashValue) decode(h *sampling.Hasher, l int) (buf *[]uint64, n int) {
	buf = scratchGet(v.ids.Len())
	*buf = v.ids.AppendTo((*buf)[:0])
	if v.level < l {
		*buf = (*buf)[:filterLevel(*buf, *buf, h, l)]
	}
	if n = len(*buf); n < v.ids.Len() {
		n = -1
	}
	return buf, n
}

// at returns v at level l ≥ v.level; every identifier of v must survive
// at l.
func (v *hashValue) at(l int, h *sampling.Hasher) Value {
	if v.level == l {
		return v
	}
	return &hashValue{level: l, ids: v.ids, hasher: h}
}

// result is the value of the first n scratch identifiers at level l,
// or the operand they equal: a union or intersection has as many
// elements as an operand exactly when it is that operand. na and nb are
// the operands' counts, -1 for one the result cannot equal.
func result(buf *[]uint64, n, l int, h *sampling.Hasher, v *hashValue, na int, ov *hashValue, nb int) Value {
	defer scratchPut(buf)
	switch aliasOf(n, na, nb) {
	case 1:
		return v.at(l, h)
	case 2:
		return ov.at(l, h)
	}
	return &hashValue{level: l, ids: sampling.Pack((*buf)[:n]), hasher: h}
}

func (v *hashValue) Union(o Value) Value {
	ov, ok := o.(*hashValue)
	if !ok {
		panic(kindMismatch(v, o))
	}
	if v.ids.Len() == 0 && v.level <= ov.level {
		return ov
	}
	if ov.ids.Len() == 0 && ov.level <= v.level {
		return v
	}
	if v.ids.Equal(ov.ids) { // SEL often unites a sample with itself: skip the decode
		if v.level < ov.level {
			return ov
		}
		return v
	}
	h := v.hasher
	if h == nil {
		h = ov.hasher
	}
	l := max(v.level, ov.level)
	// Subsample the lower-level operand to the common level l; the other
	// operand's elements qualify by the value invariant.
	fa, na := v.decode(h, l)
	fb, nb := ov.decode(h, l)
	defer scratchPut(fa)
	defer scratchPut(fb)
	buf := scratchGet(len(*fa) + len(*fb))
	return result(buf, mergeUnion(*buf, *fa, *fb), l, h, v, na, ov, nb)
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
	m := min(v.ids.Len(), ov.ids.Len())
	if m == 0 {
		if l == 0 && h == nil {
			return emptyHashValue
		}
		return &hashValue{level: l, hasher: h}
	}
	fa, na := v.decode(h, v.level)
	fb, nb := ov.decode(h, ov.level)
	defer scratchPut(fa)
	defer scratchPut(fb)
	buf := scratchGet(m)
	return result(buf, intersectInto(*buf, *fa, *fb), l, h, v, na, ov, nb)
}

// intersectCard mirrors Intersect + Card without building the value:
// the intersection keeps the raw common identifiers at level
// max(v.level, ov.level), so its cardinality is the common count scaled
// by 2^level. The count merges the two gap lists as they decode, with
// no scratch.
func (v *hashValue) intersectCard(o Value) float64 {
	ov, ok := o.(*hashValue)
	if !ok {
		panic(kindMismatch(v, o))
	}
	n := v.ids.CountCommon(ov.ids)
	return float64(n) * float64(uint64(1)<<uint(max(v.level, ov.level)))
}

// NewHashValue builds a Hashes-kind value directly; exported for tests.
func NewHashValue(hasher *sampling.Hasher, level int, ids ...uint64) Value {
	out := make([]uint64, 0, len(ids))
	for _, x := range ids {
		if hasher.Level(x) >= level {
			out = append(out, x)
		}
	}
	return &hashValue{level: level, ids: sampling.Pack(sortIDs(out)), hasher: hasher}
}

func (s *hashStore) Dump() Dump {
	return Dump{Kind: KindHashes, Level: s.s.Level(), IDs: s.s.IDs()}
}
