package matchset

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"treesim/internal/sampling"
)

func counterFactory(total float64) *Factory {
	return NewFactory(KindCounters, 0, nil, func() float64 { return total })
}

func hashFactory(capacity int, seed uint64) *Factory {
	return NewFactory(KindHashes, capacity, sampling.NewHasher(seed), nil)
}

func TestKindString(t *testing.T) {
	if KindCounters.String() != "Counters" || KindSets.String() != "Sets" || KindHashes.String() != "Hashes" {
		t.Error("Kind.String broken")
	}
	if Kind(99).String() != "Kind(99)" {
		t.Error("unknown kind string broken")
	}
}

func TestFactoryValidation(t *testing.T) {
	for _, f := range []func(){
		func() { NewFactory(KindCounters, 0, nil, nil) },
		func() { NewFactory(KindHashes, 0, sampling.NewHasher(1), nil) },
		func() { NewFactory(KindHashes, 10, nil, nil) },
		func() { NewFactory(Kind(42), 0, nil, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestCounterSemantics(t *testing.T) {
	f := counterFactory(6)
	st := f.NewStore()
	for i := 0; i < 3; i++ {
		st.Add(uint64(i))
	}
	v := st.Value()
	if v.Card() != 3 {
		t.Errorf("Card = %v, want 3", v.Card())
	}
	// The paper's Section 3.2 example: P(a/b)=1/2, P(a/d)=1/2,
	// independence gives P(a[b][d]) = c1*c2/N = 3*3/6 = 1.5 (i.e. 1/4 of
	// the 6 documents).
	st2 := f.NewStore()
	for i := 0; i < 3; i++ {
		st2.Add(uint64(10 + i))
	}
	inter := v.Intersect(st2.Value())
	if inter.Card() != 1.5 {
		t.Errorf("Intersect Card = %v, want 1.5", inter.Card())
	}
	// Union is max.
	st3 := f.NewStore()
	st3.Add(1)
	u := v.Union(st3.Value())
	if u.Card() != 3 {
		t.Errorf("Union Card = %v, want 3", u.Card())
	}
	if st.Entries() != 1 {
		t.Errorf("counter Entries = %d, want 1", st.Entries())
	}
}

func TestCounterRemovePanics(t *testing.T) {
	st := counterFactory(1).NewStore()
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	st.Remove(0)
}

func TestCounterSetTo(t *testing.T) {
	f := counterFactory(10)
	a, b := f.NewStore(), f.NewStore()
	for i := 0; i < 4; i++ {
		a.Add(uint64(i))
	}
	b.SetTo(a.Value())
	if b.Value().Card() != 4 {
		t.Errorf("SetTo: Card = %v, want 4", b.Value().Card())
	}
}

func TestSetSemantics(t *testing.T) {
	f := NewFactory(KindSets, 0, nil, nil)
	a, b := f.NewStore(), f.NewStore()
	for i := 0; i < 4; i++ {
		a.Add(uint64(i)) // {0,1,2,3}
	}
	for i := 2; i < 6; i++ {
		b.Add(uint64(i)) // {2,3,4,5}
	}
	av, bv := a.Value(), b.Value()
	if got := av.Union(bv).Card(); got != 6 {
		t.Errorf("union card = %v, want 6", got)
	}
	if got := av.Intersect(bv).Card(); got != 2 {
		t.Errorf("intersect card = %v, want 2", got)
	}
	a.Remove(0)
	if got := a.Value().Card(); got != 3 {
		t.Errorf("after Remove card = %v, want 3", got)
	}
	if a.Entries() != 3 {
		t.Errorf("Entries = %d, want 3", a.Entries())
	}
	// Empty behaviour.
	e := f.EmptyValue()
	if !e.IsZero() || e.Card() != 0 {
		t.Error("empty set value should be zero")
	}
	if got := e.Union(av).Card(); got != av.Card() {
		t.Errorf("∅∪A card = %v, want %v", got, av.Card())
	}
	if got := e.Intersect(av).Card(); got != 0 {
		t.Errorf("∅∩A card = %v, want 0", got)
	}
}

func TestSetValueImmutability(t *testing.T) {
	a := NewSetValue(1, 2, 3)
	b := NewSetValue(3, 4)
	_ = a.Union(b)
	_ = a.Intersect(b)
	if a.Card() != 3 || b.Card() != 2 {
		t.Error("set algebra mutated its operands")
	}
}

func TestHashSemanticsLossless(t *testing.T) {
	// Below capacity, hash stores behave exactly like sets.
	f := hashFactory(1000, 3)
	a, b := f.NewStore(), f.NewStore()
	for i := 0; i < 300; i++ {
		a.Add(uint64(i))
	}
	for i := 200; i < 500; i++ {
		b.Add(uint64(i))
	}
	av, bv := a.Value(), b.Value()
	if got := av.Union(bv).Card(); got != 500 {
		t.Errorf("union card = %v, want 500", got)
	}
	if got := av.Intersect(bv).Card(); got != 100 {
		t.Errorf("intersect card = %v, want 100", got)
	}
}

func TestHashSemanticsSampled(t *testing.T) {
	// Above capacity, estimates stay close on average across seeds.
	const trueA, trueB, trueBoth = 8000, 8000, 4000
	var unionErr, interErr float64
	const seeds = 8
	for seed := uint64(0); seed < seeds; seed++ {
		f := hashFactory(256, seed+50)
		a, b := f.NewStore(), f.NewStore()
		for i := 0; i < trueA; i++ {
			a.Add(uint64(i))
		}
		for i := trueA - trueBoth; i < trueA-trueBoth+trueB; i++ {
			b.Add(uint64(i))
		}
		av, bv := a.Value(), b.Value()
		u := av.Union(bv).Card()
		x := av.Intersect(bv).Card()
		unionErr += math.Abs(u-12000) / 12000
		interErr += math.Abs(x-trueBoth) / trueBoth
	}
	if avg := unionErr / seeds; avg > 0.15 {
		t.Errorf("avg union error %v too high", avg)
	}
	if avg := interErr / seeds; avg > 0.3 {
		t.Errorf("avg intersection error %v too high", avg)
	}
}

func TestHashSetToRoundTrip(t *testing.T) {
	f := hashFactory(64, 9)
	a := f.NewStore()
	for i := 0; i < 5000; i++ {
		a.Add(uint64(i))
	}
	b := f.NewStore()
	b.SetTo(a.Value())
	// The rebuilt store must estimate a similar cardinality.
	ca, cb := a.Value().Card(), b.Value().Card()
	if math.Abs(ca-cb)/ca > 0.35 {
		t.Errorf("SetTo changed estimate too much: %v vs %v", ca, cb)
	}
	if b.Entries() > 64 {
		t.Errorf("SetTo exceeded capacity: %d", b.Entries())
	}
}

func TestMixedKindsPanic(t *testing.T) {
	sv := NewSetValue(1)
	hv := NewHashValue(sampling.NewHasher(1), 0, 1)
	defer func() {
		if recover() == nil {
			t.Error("expected panic on mixed kinds")
		}
	}()
	sv.Union(hv)
}

func TestHashUnionLevelIsMax(t *testing.T) {
	h := sampling.NewHasher(17)
	// Construct values at explicit levels.
	ids := make([]uint64, 0, 100)
	for x := uint64(0); len(ids) < 100; x++ {
		if h.Level(x) >= 2 {
			ids = append(ids, x)
		}
	}
	v0 := NewHashValue(h, 0, ids[:50]...)
	v2 := NewHashValue(h, 2, ids[50:]...)
	u := v0.Union(v2).(*hashValue)
	if u.level != 2 {
		t.Errorf("union level = %d, want 2", u.level)
	}
	// All retained elements must satisfy the level constraint.
	for x := range u.ids.All() {
		if h.Level(x) < 2 {
			t.Errorf("element %d below union level", x)
		}
	}
}

func TestSetAlgebraProperties(t *testing.T) {
	// Union/intersect on Sets values agree with model map-based sets.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		mk := func() (Value, map[uint64]bool) {
			m := make(map[uint64]bool)
			var ids []uint64
			for i := 0; i < rng.Intn(50); i++ {
				x := uint64(rng.Intn(60))
				if !m[x] {
					m[x] = true
					ids = append(ids, x)
				}
			}
			return NewSetValue(ids...), m
		}
		av, am := mk()
		bv, bm := mk()
		wantU, wantI := 0, 0
		for x := range am {
			if bm[x] {
				wantI++
			}
			wantU++
		}
		for x := range bm {
			if !am[x] {
				wantU++
			}
		}
		return av.Union(bv).Card() == float64(wantU) &&
			av.Intersect(bv).Card() == float64(wantI)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
