package matchset

import "sync"

// counterStore is the Counters representation: one float64 count of the
// documents containing the node. Unlike Sets/Hashes stores, counter
// stores hold the *full* matching-set cardinality (the synopsis
// increments every node on a document's skeleton paths), because counts
// cannot be recovered by unioning descendant counts. Value caches its
// boxed snapshot like the other stores so quiescent query streams do
// not allocate per node.
type counterStore struct {
	f *Factory
	c float64

	snapMu sync.Mutex
	val    *countValue
	dirty  bool
}

func (s *counterStore) Kind() Kind { return KindCounters }

func (s *counterStore) Add(id uint64) {
	s.c++
	s.dirty = true
}

func (s *counterStore) Remove(id uint64) {
	panic("matchset: counters do not support removal")
}

func (s *counterStore) Value() Value {
	s.snapMu.Lock()
	if s.dirty || s.val == nil {
		s.val = &countValue{c: s.c, n: s.f.totalDocs}
		s.dirty = false
	}
	v := s.val
	s.snapMu.Unlock()
	return v
}

func (s *counterStore) Entries() int { return 1 }

func (s *counterStore) SetTo(v Value) {
	cv, ok := v.(*countValue)
	if !ok {
		panic(kindMismatch(s.Value(), v))
	}
	s.c = cv.c
	s.dirty = true
}

// countValue evaluates the SEL set algebra in "estimated count" space
// under independence assumptions (paper, Section 4): union is max,
// intersection is the product of the corresponding probabilities scaled
// back to a count: c1·c2 / |H|.
type countValue struct {
	c float64
	n func() float64
}

func (v *countValue) Kind() Kind    { return KindCounters }
func (v *countValue) Card() float64 { return v.c }
func (v *countValue) IsZero() bool  { return v.c == 0 }

func (v *countValue) Union(o Value) Value {
	ov, ok := o.(*countValue)
	if !ok {
		panic(kindMismatch(v, o))
	}
	// Max combining: one of the operands already is the union value
	// unless a totalDocs source needs grafting onto the larger side.
	big, small := v, ov
	if ov.c > v.c {
		big, small = ov, v
	}
	if big.n == nil && small.n != nil {
		return &countValue{c: big.c, n: small.n}
	}
	return big
}

func (v *countValue) Intersect(o Value) Value {
	ov, ok := o.(*countValue)
	if !ok {
		panic(kindMismatch(v, o))
	}
	n := v.n
	if n == nil {
		n = ov.n
	}
	total := 0.0
	if n != nil {
		total = n()
	}
	if total == 0 {
		return &countValue{c: 0, n: n}
	}
	return &countValue{c: v.c * ov.c / total, n: n}
}

// intersectCard mirrors Intersect's independence product without the
// intermediate value.
func (v *countValue) intersectCard(o Value) float64 {
	ov, ok := o.(*countValue)
	if !ok {
		panic(kindMismatch(v, o))
	}
	n := v.n
	if n == nil {
		n = ov.n
	}
	total := 0.0
	if n != nil {
		total = n()
	}
	if total == 0 {
		return 0
	}
	return v.c * ov.c / total
}

func (s *counterStore) Dump() Dump { return Dump{Kind: KindCounters, Counter: s.c} }
