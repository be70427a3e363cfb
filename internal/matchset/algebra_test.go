package matchset

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"treesim/internal/sampling"
)

// Differential tests: the sorted-slice algebra must match a straight
// map-based reference model — the semantics the pre-slice implementation
// had — for Union, Intersect and Card, including the Hashes level-max
// combining rules.

// refUnion/refIntersect model Sets semantics over plain maps.
func refUnion(a, b map[uint64]bool) map[uint64]bool {
	out := make(map[uint64]bool)
	for x := range a {
		out[x] = true
	}
	for x := range b {
		out[x] = true
	}
	return out
}

func refIntersect(a, b map[uint64]bool) map[uint64]bool {
	out := make(map[uint64]bool)
	for x := range a {
		if b[x] {
			out[x] = true
		}
	}
	return out
}

// refHashUnion/refHashIntersect model Hashes semantics: combine at the
// max level, subsampling both sides to it.
func refHashUnion(h *sampling.Hasher, la int, a map[uint64]bool, lb int, b map[uint64]bool) (int, map[uint64]bool) {
	l := max(la, lb)
	out := make(map[uint64]bool)
	for x := range a {
		if h.Level(x) >= l {
			out[x] = true
		}
	}
	for x := range b {
		if h.Level(x) >= l {
			out[x] = true
		}
	}
	return l, out
}

func refHashIntersect(h *sampling.Hasher, la int, a map[uint64]bool, lb int, b map[uint64]bool) (int, map[uint64]bool) {
	l := max(la, lb)
	out := make(map[uint64]bool)
	for x := range a {
		if b[x] && h.Level(x) >= l {
			out[x] = true
		}
	}
	return l, out
}

func valueIDs(t *testing.T, v Value) []uint64 {
	t.Helper()
	switch x := v.(type) {
	case *setValue:
		return x.ids
	case *hashValue:
		return x.ids
	default:
		t.Fatalf("unexpected value type %T", v)
		return nil
	}
}

func sameSet(ids []uint64, m map[uint64]bool) bool {
	if len(ids) != len(m) {
		return false
	}
	for _, x := range ids {
		if !m[x] {
			return false
		}
	}
	return true
}

func randomIDs(rng *rand.Rand, n, space int) ([]uint64, map[uint64]bool) {
	m := make(map[uint64]bool)
	var ids []uint64
	for i := 0; i < n; i++ {
		x := uint64(rng.Intn(space))
		if !m[x] {
			m[x] = true
			ids = append(ids, x)
		}
	}
	return ids, m
}

func TestSetAlgebraDifferential(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		aIDs, am := randomIDs(rng, rng.Intn(80), 100)
		bIDs, bm := randomIDs(rng, rng.Intn(80), 100)
		av, bv := NewSetValue(aIDs...), NewSetValue(bIDs...)
		u := av.Union(bv)
		x := av.Intersect(bv)
		if !sameSet(valueIDs(t, u), refUnion(am, bm)) {
			return false
		}
		if !sameSet(valueIDs(t, x), refIntersect(am, bm)) {
			return false
		}
		// Operands must be untouched and results sorted.
		if av.Card() != float64(len(am)) || bv.Card() != float64(len(bm)) {
			return false
		}
		return sort.SliceIsSorted(valueIDs(t, u), func(i, j int) bool {
			return valueIDs(t, u)[i] < valueIDs(t, u)[j]
		})
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestHashAlgebraDifferential(t *testing.T) {
	h := sampling.NewHasher(99)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		la, lb := rng.Intn(3), rng.Intn(3)
		aIDs, _ := randomIDs(rng, rng.Intn(120), 400)
		bIDs, _ := randomIDs(rng, rng.Intn(120), 400)
		av := NewHashValue(h, la, aIDs...)
		bv := NewHashValue(h, lb, bIDs...)
		// The reference model starts from the values' retained IDs (the
		// constructor already filtered to each value's own level).
		am := make(map[uint64]bool)
		for _, x := range valueIDs(t, av) {
			am[x] = true
		}
		bm := make(map[uint64]bool)
		for _, x := range valueIDs(t, bv) {
			bm[x] = true
		}
		wl, wu := refHashUnion(h, la, am, lb, bm)
		u := av.Union(bv).(*hashValue)
		if u.level != wl && len(wu) > 0 {
			return false
		}
		if !sameSet(u.ids, wu) {
			return false
		}
		xl, xi := refHashIntersect(h, la, am, lb, bm)
		x := av.Intersect(bv).(*hashValue)
		if x.level != xl {
			return false
		}
		if !sameSet(x.ids, xi) {
			return false
		}
		// Card must be |ids|·2^level.
		return u.Card() == float64(len(wu))*float64(uint64(1)<<uint(u.level))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestHashEmptyValueAlgebra exercises the nil-hasher empty value the
// factory hands to SEL as ∅: it must behave as the identity for unions
// and the annihilator for intersections, without panicking on its nil
// hasher.
func TestHashEmptyValueAlgebra(t *testing.T) {
	h := sampling.NewHasher(7)
	f := NewFactory(KindHashes, 8, h, nil)
	empty := f.EmptyValue()
	v := NewHashValue(h, 1, 2, 4, 6, 8, 10, 12)
	if got := empty.Union(v); got.Card() != v.Card() {
		t.Errorf("∅∪v card = %v, want %v", got.Card(), v.Card())
	}
	if got := v.Union(empty); got.Card() != v.Card() {
		t.Errorf("v∪∅ card = %v, want %v", got.Card(), v.Card())
	}
	if got := empty.Intersect(v); !got.IsZero() {
		t.Errorf("∅∩v = %v, want zero", got.Card())
	}
	if got := v.Intersect(empty); !got.IsZero() {
		t.Errorf("v∩∅ = %v, want zero", got.Card())
	}
	if got := empty.Union(empty); !got.IsZero() {
		t.Error("∅∪∅ should stay zero")
	}
}

// TestGallopIntersect drives the skewed-size galloping path against the
// merge path.
func TestGallopIntersect(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	big := make([]uint64, 0, 20000)
	bm := make(map[uint64]bool)
	for i := 0; i < 20000; i++ {
		x := uint64(rng.Intn(1 << 20))
		if !bm[x] {
			bm[x] = true
			big = append(big, x)
		}
	}
	small := append([]uint64{}, big[:40]...) // guaranteed hits
	for i := 0; i < 40; i++ {                // plus likely misses
		small = append(small, uint64(rng.Intn(1<<20)))
	}
	want := make(map[uint64]bool)
	for _, x := range small {
		if bm[x] {
			want[x] = true
		}
	}
	sv, bv := NewSetValue(small...), NewSetValue(big...)
	if got := sv.Intersect(bv); !sameSet(valueIDs(t, got), want) {
		t.Errorf("gallop intersect: %d ids, want %d", int(got.Card()), len(want))
	}
	if got := bv.Intersect(sv); !sameSet(valueIDs(t, got), want) {
		t.Errorf("gallop intersect (swapped): %d ids, want %d", int(got.Card()), len(want))
	}
}

// TestAliasingInvariance checks the no-allocation fast paths: when one
// operand subsumes the other, the result aliases it — and later algebra
// on the result must not disturb the original.
func TestAliasingInvariance(t *testing.T) {
	a := NewSetValue(1, 2, 3, 4, 5)
	b := NewSetValue(2, 3)
	u := a.Union(b) // == a
	if u.Card() != 5 {
		t.Fatalf("union card = %v", u.Card())
	}
	x := u.Intersect(NewSetValue(9))
	if !x.IsZero() {
		t.Fatalf("intersect card = %v", x.Card())
	}
	if a.Card() != 5 || b.Card() != 2 {
		t.Error("aliased algebra mutated an operand")
	}
	i := a.Intersect(b) // == b
	if i.Card() != 2 || b.Card() != 2 {
		t.Errorf("subset intersect: got %v / %v", i.Card(), b.Card())
	}
}

// TestStoreValueSnapshotStability: a Value must stay valid (same
// contents) after further store mutations, because SEL memoizes values
// while the synopsis keeps streaming between queries.
func TestStoreValueSnapshotStability(t *testing.T) {
	f := NewFactory(KindSets, 0, nil, nil)
	st := f.NewStore()
	for i := 0; i < 10; i++ {
		st.Add(uint64(i))
	}
	v := st.Value()
	st.Add(100)
	st.Remove(3)
	if v.Card() != 10 {
		t.Errorf("snapshot card drifted to %v after mutation", v.Card())
	}
	v2 := st.Value()
	if v2.Card() != 10 { // 10 - 1 + 1
		t.Errorf("fresh value card = %v, want 10", v2.Card())
	}
	if !v2.(*setValue).Contains(100) || v2.(*setValue).Contains(3) {
		t.Error("fresh value does not reflect mutations")
	}
}

// TestIntersectCardDifferential pins IntersectCard to the reference
// Intersect(...).Card() across representations, sizes and level skews —
// the fast path must agree exactly, in the galloping regime and in the
// branch-free merge.
func TestIntersectCardDifferential(t *testing.T) {
	h := sampling.NewHasher(7)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		// Skewed sizes exercise both counters; comparable ones, drawn from
		// a space where most elements collide, the merge alone.
		na, nb := rng.Intn(200), rng.Intn(8)
		if rng.Intn(2) == 0 {
			na, nb = rng.Intn(200), rng.Intn(200)
		}
		if rng.Intn(2) == 0 {
			na, nb = nb, na
		}
		aIDs, _ := randomIDs(rng, na, 500)
		bIDs, _ := randomIDs(rng, nb, 500)

		sa, sb := NewSetValue(aIDs...), NewSetValue(bIDs...)
		if IntersectCard(sa, sb) != sa.Intersect(sb).Card() {
			return false
		}

		la, lb := rng.Intn(3), rng.Intn(3)
		ha := NewHashValue(h, la, aIDs...)
		hb := NewHashValue(h, lb, bIDs...)
		return IntersectCard(ha, hb) == ha.Intersect(hb).Card()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestIntersectCardBound: IntersectCardBound never reads below
// IntersectCard — on Sets, on Hashes at mixed levels, with empty
// operands (the shared empties and empty samples at a level) and for a
// value intersected with itself, where the bound is tight — and is +Inf
// under Counters.
func TestIntersectCardBound(t *testing.T) {
	h := sampling.NewHasher(7)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		aIDs, _ := randomIDs(rng, rng.Intn(3)*rng.Intn(150), 400)
		bIDs, _ := randomIDs(rng, rng.Intn(3)*rng.Intn(150), 400)
		la, lb := rng.Intn(4), rng.Intn(4)
		vals := [][2]Value{
			{NewSetValue(aIDs...), NewSetValue(bIDs...)},
			{NewHashValue(h, la, aIDs...), NewHashValue(h, lb, bIDs...)},
			{emptySetValue, NewSetValue(bIDs...)},
			{emptyHashValue, NewHashValue(h, lb, bIDs...)},
			{NewHashValue(h, la), NewHashValue(h, lb, bIDs...)},
		}
		for _, p := range vals {
			for _, ab := range [][2]Value{p, {p[1], p[0]}, {p[0], p[0]}} {
				a, b := ab[0], ab[1]
				card, bound := IntersectCard(a, b), IntersectCardBound(a, b)
				if bound < card || (a == b && bound != card) {
					t.Logf("%s: bound %v, card %v (self %v)", a.Kind(), bound, card, a == b)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
	c := counterFactory(10)
	s := c.NewStore()
	s.Add(1)
	if b := IntersectCardBound(s.Value(), c.EmptyValue()); !math.IsInf(b, 1) {
		t.Errorf("Counters bound = %v, want +Inf", b)
	}
}

// BenchmarkIntersectCard prices the kernel every similarity cell runs:
// |a ∩ b| of two Hashes values of equal size sharing 20 % of their
// identifiers (the merge regime). The identifiers are random, so every
// comparison is a coin toss — the merge's worst case; real samples are
// correlated document ids (see intersectCount). It cycles through 16
// distinct pairs, as a row or matrix does: one pair intersected over
// and over lets the branch predictor learn its comparison outcomes.
func BenchmarkIntersectCard(b *testing.B) {
	h := sampling.NewHasher(7)
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{100, 1000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			shared := n / 5
			var pairs [16][2]Value
			for k := range pairs {
				a, c := make([]uint64, 0, n), make([]uint64, 0, n)
				for len(a) < n {
					x := rng.Uint64()
					a = append(a, x)
					if len(a) <= shared {
						c = append(c, x)
					}
				}
				for len(c) < n {
					c = append(c, rng.Uint64())
				}
				pairs[k] = [2]Value{NewHashValue(h, 0, a...), NewHashValue(h, 0, c...)}
			}
			k := 0
			for b.Loop() {
				p := pairs[k%len(pairs)]
				if got := IntersectCard(p[0], p[1]); got != float64(shared) {
					b.Fatalf("|a ∩ b| = %v, want %d", got, shared)
				}
				k++
			}
		})
	}
}

// TestIntersectCardCounters checks the counters independence product
// (and the zero-total guard) against the materializing path.
func TestIntersectCardCounters(t *testing.T) {
	f := counterFactory(10)
	a, b := f.NewStore(), f.NewStore()
	for i := 0; i < 4; i++ {
		a.Add(uint64(i))
	}
	for i := 0; i < 5; i++ {
		b.Add(uint64(100 + i))
	}
	av, bv := a.Value(), b.Value()
	if got, want := IntersectCard(av, bv), av.Intersect(bv).Card(); got != want {
		t.Fatalf("IntersectCard = %v, want %v", got, want)
	}
	zero := counterFactory(0)
	za, zb := zero.NewStore(), zero.NewStore()
	za.Add(1)
	zb.Add(2)
	if got := IntersectCard(za.Value(), zb.Value()); got != 0 {
		t.Fatalf("zero-total IntersectCard = %v, want 0", got)
	}
}
