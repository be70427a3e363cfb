package matchset

import (
	"slices"
	"sync"
)

// setStore is the Sets representation: an exact set of document
// identifiers. Bounding happens globally, at the document level, via the
// reservoir owned by the synopsis: the store itself is unbounded but
// only ever holds identifiers of currently sampled documents.
//
// Mutation stays on a hash map (O(1) Add/Remove under reservoir churn);
// Value snapshots the map into an immutable sorted-slice value, cached
// until the next mutation so repeated queries over an unchanged store
// pay the sort (and the value allocation) once. The snapshot cache has
// its own mutex because concurrent queries may race to materialize it;
// mutations require the caller's exclusive lock as before.
type setStore struct {
	ids map[uint64]struct{}

	snapMu sync.Mutex
	val    *setValue
	dirty  bool
}

func (s *setStore) Kind() Kind { return KindSets }

func (s *setStore) Add(id uint64) {
	s.ids[id] = struct{}{}
	s.dirty = true
}

func (s *setStore) Remove(id uint64) {
	delete(s.ids, id)
	s.dirty = true
}

func (s *setStore) Value() Value {
	s.snapMu.Lock()
	if s.dirty || s.val == nil {
		s.val = &setValue{ids: sortedIDs(s.ids)}
		s.dirty = false
	}
	v := s.val
	s.snapMu.Unlock()
	return v
}

func (s *setStore) Entries() int { return len(s.ids) }

func (s *setStore) SetTo(v Value) {
	sv, ok := v.(*setValue)
	if !ok {
		panic(kindMismatch(s.Value(), v))
	}
	s.ids = make(map[uint64]struct{}, len(sv.ids))
	for _, x := range sv.ids {
		s.ids[x] = struct{}{}
	}
	s.dirty = true
}

// setValue is an immutable view of a sorted ID slice. A nil slice is the
// empty set. Union and Intersect never mutate; when a result equals one
// of the operands the operand itself is returned (no allocation).
type setValue struct {
	ids []uint64
}

// emptySetValue is the shared ∅ of the Sets representation.
var emptySetValue = &setValue{}

func (v *setValue) Kind() Kind    { return KindSets }
func (v *setValue) Card() float64 { return float64(len(v.ids)) }
func (v *setValue) IsZero() bool  { return len(v.ids) == 0 }

// Contains is used by tests and by exact-mode verification.
func (v *setValue) Contains(x uint64) bool {
	_, ok := slices.BinarySearch(v.ids, x)
	return ok
}

func (v *setValue) Union(o Value) Value {
	ov, ok := o.(*setValue)
	if !ok {
		panic(kindMismatch(v, o))
	}
	if len(v.ids) == 0 {
		return ov
	}
	if len(ov.ids) == 0 {
		return v
	}
	buf := scratchGet(len(v.ids) + len(ov.ids))
	n := mergeUnion(*buf, v.ids, ov.ids)
	switch aliasOf(*buf, n, v.ids, ov.ids) {
	case 1:
		scratchPut(buf)
		return v
	case 2:
		scratchPut(buf)
		return ov
	}
	return &setValue{ids: materialize(buf, n)}
}

func (v *setValue) Intersect(o Value) Value {
	ov, ok := o.(*setValue)
	if !ok {
		panic(kindMismatch(v, o))
	}
	m := min(len(v.ids), len(ov.ids))
	if m == 0 {
		return emptySetValue
	}
	buf := scratchGet(m)
	n := intersectInto(*buf, v.ids, ov.ids)
	if n == 0 {
		scratchPut(buf)
		return emptySetValue
	}
	switch aliasOf(*buf, n, v.ids, ov.ids) {
	case 1:
		scratchPut(buf)
		return v
	case 2:
		scratchPut(buf)
		return ov
	}
	return &setValue{ids: materialize(buf, n)}
}

// intersectCard implements the allocation-free IntersectCard fast path:
// the cardinality of a Sets intersection is the exact count of common
// identifiers.
func (v *setValue) intersectCard(o Value) float64 {
	ov, ok := o.(*setValue)
	if !ok {
		panic(kindMismatch(v, o))
	}
	return float64(intersectCount(v.ids, ov.ids))
}

// intersectCardBound bounds intersectCard by the smaller set.
func (v *setValue) intersectCardBound(o Value) float64 {
	ov, ok := o.(*setValue)
	if !ok {
		panic(kindMismatch(v, o))
	}
	return float64(min(len(v.ids), len(ov.ids)))
}

// NewSetValue builds a Sets-kind value from explicit identifiers; it is
// exported for tests and for exact ground-truth evaluation.
func NewSetValue(ids ...uint64) Value {
	out := make([]uint64, len(ids))
	copy(out, ids)
	return &setValue{ids: sortIDs(out)}
}

func (s *setStore) Dump() Dump {
	return Dump{Kind: KindSets, IDs: sortedIDs(s.ids)}
}
