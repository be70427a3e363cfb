package bitset

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestBasicOps(t *testing.T) {
	s := New(130) // cross a word boundary
	for _, i := range []int{0, 63, 64, 65, 129} {
		s.Add(i)
	}
	if got := s.Count(); got != 5 {
		t.Errorf("Count = %d, want 5", got)
	}
	for _, i := range []int{0, 63, 64, 65, 129} {
		if !s.Contains(i) {
			t.Errorf("Contains(%d) = false", i)
		}
	}
	if s.Contains(1) || s.Contains(128) {
		t.Error("unexpected membership")
	}
	s.Remove(64)
	if s.Contains(64) || s.Count() != 4 {
		t.Error("Remove failed")
	}
	if got := s.Elements(); !reflect.DeepEqual(got, []int{0, 63, 65, 129}) {
		t.Errorf("Elements = %v", got)
	}
}

func TestAddIdempotent(t *testing.T) {
	s := New(10)
	s.Add(3)
	s.Add(3)
	if s.Count() != 1 {
		t.Errorf("Count = %d, want 1", s.Count())
	}
}

func TestSetAlgebra(t *testing.T) {
	a, b := New(200), New(200)
	for i := 0; i < 200; i += 2 {
		a.Add(i)
	}
	for i := 0; i < 200; i += 3 {
		b.Add(i)
	}
	and := a.And(b)
	or := a.Or(b)
	for i := 0; i < 200; i++ {
		wantAnd := i%2 == 0 && i%3 == 0
		wantOr := i%2 == 0 || i%3 == 0
		if and.Contains(i) != wantAnd {
			t.Fatalf("And.Contains(%d) = %v", i, and.Contains(i))
		}
		if or.Contains(i) != wantOr {
			t.Fatalf("Or.Contains(%d) = %v", i, or.Contains(i))
		}
	}
	if a.AndCount(b) != and.Count() {
		t.Errorf("AndCount = %d, want %d", a.AndCount(b), and.Count())
	}
	if a.OrCount(b) != or.Count() {
		t.Errorf("OrCount = %d, want %d", a.OrCount(b), or.Count())
	}
}

func TestJaccard(t *testing.T) {
	a, b := New(10), New(10)
	if got := a.Jaccard(b); got != 0 {
		t.Errorf("empty Jaccard = %v, want 0", got)
	}
	a.Add(1)
	a.Add(2)
	b.Add(2)
	b.Add(3)
	if got := a.Jaccard(b); got != 1.0/3 {
		t.Errorf("Jaccard = %v, want 1/3", got)
	}
}

func TestInclusionExclusion(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 64 + rng.Intn(300)
		a, b := New(n), New(n)
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				a.Add(i)
			}
			if rng.Intn(3) == 0 {
				b.Add(i)
			}
		}
		return a.OrCount(b) == a.Count()+b.Count()-a.AndCount(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestCloneIndependence(t *testing.T) {
	a := New(10)
	a.Add(5)
	b := a.Clone()
	b.Add(6)
	if a.Contains(6) {
		t.Error("mutating clone affected original")
	}
}

func TestPanics(t *testing.T) {
	s := New(4)
	for _, f := range []func(){
		func() { s.Add(4) },
		func() { s.Add(-1) },
		func() { s.Contains(100) },
		func() { s.And(New(5)) },
		func() { New(-1) },
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

func TestResetGrowUnion(t *testing.T) {
	s := New(10)
	s.Add(3)
	s.Add(9)
	s.Reset()
	if s.Count() != 0 {
		t.Fatal("Reset left members behind")
	}
	if s.Len() != 10 {
		t.Fatalf("Reset changed universe to %d", s.Len())
	}

	s.Add(9)
	s.Grow(200)
	if s.Len() != 200 {
		t.Fatalf("Grow: Len = %d, want 200", s.Len())
	}
	if !s.Contains(9) {
		t.Fatal("Grow dropped member 9")
	}
	s.Add(130)
	s.Grow(50) // shrink is a no-op
	if s.Len() != 200 || !s.Contains(130) {
		t.Fatal("Grow(50) must be a no-op on a larger set")
	}

	s.Add(64)
	if s.Word(0) != 1<<9 || s.Word(1) != 1 || s.Word(2) != 1<<2 {
		t.Errorf("word access: %#x %#x %#x, want bits 9, 64, 130", s.Word(0), s.Word(1), s.Word(2))
	}
}
