package matchset

import (
	"bytes"
	"encoding/gob"
	"math/rand"
	"slices"
	"testing"

	"treesim/internal/sampling"
)

func TestDumpRestoreCounter(t *testing.T) {
	f := counterFactory(10)
	st := f.NewStore()
	for i := 0; i < 7; i++ {
		st.Add(uint64(i))
	}
	d := st.Dump()
	if d.Kind != KindCounters || d.Counter != 7 {
		t.Fatalf("Dump = %+v", d)
	}
	re := f.Restore(d)
	if re.Kind() != KindCounters || re.Value().Card() != 7 {
		t.Errorf("restored counter = %v", re.Value().Card())
	}
}

func TestDumpRestoreSet(t *testing.T) {
	f := NewFactory(KindSets, 0, nil, nil)
	st := f.NewStore()
	for i := 0; i < 5; i++ {
		st.Add(uint64(i * 3))
	}
	d := st.Dump()
	if d.Kind != KindSets || len(d.IDs) != 5 {
		t.Fatalf("Dump = %+v", d)
	}
	re := f.Restore(d)
	if re.Kind() != KindSets || re.Entries() != 5 {
		t.Errorf("restored set entries = %d", re.Entries())
	}
	if re.Value().Intersect(st.Value()).Card() != 5 {
		t.Error("restored set content differs")
	}
}

func TestDumpRestoreHash(t *testing.T) {
	f := hashFactory(32, 7)
	st := f.NewStore()
	for i := 0; i < 500; i++ {
		st.Add(uint64(i))
	}
	d := st.Dump()
	if d.Kind != KindHashes || d.Level == 0 || len(d.IDs) > 32 {
		t.Fatalf("Dump = kind=%v level=%d ids=%d", d.Kind, d.Level, len(d.IDs))
	}
	re := f.Restore(d)
	if re.Kind() != KindHashes {
		t.Fatal("restored kind wrong")
	}
	// Cardinality estimate must be preserved exactly: same IDs, same
	// level.
	if a, b := st.Value().Card(), re.Value().Card(); a != b {
		t.Errorf("restored estimate %v, want %v", b, a)
	}
}

func TestRestoreKindMismatchPanics(t *testing.T) {
	f := NewFactory(KindSets, 0, nil, nil)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	f.Restore(Dump{Kind: KindHashes})
}

func TestStoreKinds(t *testing.T) {
	cases := []struct {
		f    *Factory
		want Kind
	}{
		{counterFactory(1), KindCounters},
		{NewFactory(KindSets, 0, nil, nil), KindSets},
		{hashFactory(8, 1), KindHashes},
	}
	for _, c := range cases {
		if got := c.f.NewStore().Kind(); got != c.want {
			t.Errorf("store kind = %v, want %v", got, c.want)
		}
		if got := c.f.Kind(); got != c.want {
			t.Errorf("factory kind = %v, want %v", got, c.want)
		}
		ev := c.f.EmptyValue()
		if ev.Kind() != c.want || !ev.IsZero() || ev.Card() != 0 {
			t.Errorf("empty value of %v: kind=%v zero=%v card=%v", c.want, ev.Kind(), ev.IsZero(), ev.Card())
		}
	}
}

func TestHashRemoveBestEffort(t *testing.T) {
	f := hashFactory(100, 3)
	st := f.NewStore()
	st.Add(5)
	st.Add(6)
	st.Remove(5)
	if st.Entries() != 1 {
		t.Errorf("Entries = %d, want 1", st.Entries())
	}
	// Removing an absent element is a no-op.
	st.Remove(99)
	if st.Entries() != 1 {
		t.Errorf("Entries = %d after no-op remove", st.Entries())
	}
}

func TestSetStoreSetTo(t *testing.T) {
	f := NewFactory(KindSets, 0, nil, nil)
	a, b := f.NewStore(), f.NewStore()
	a.Add(1)
	a.Add(2)
	b.SetTo(a.Value())
	if b.Entries() != 2 {
		t.Fatalf("SetTo entries = %d", b.Entries())
	}
	// SetTo must copy, not alias.
	a.Add(3)
	if b.Entries() != 2 {
		t.Error("SetTo aliased the source map")
	}
	// Kind mismatch panics.
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	b.SetTo(counterFactory(1).EmptyValue())
}

func TestCounterUnionNilTotalSource(t *testing.T) {
	// Union must propagate the total-docs source from either operand.
	f := counterFactory(4)
	a := f.NewStore()
	a.Add(1)
	a.Add(2)
	zero := countValue{} // no source
	u := zero.Union(a.Value())
	if u.Card() != 2 {
		t.Errorf("union card = %v", u.Card())
	}
	// Intersect through the recovered source still normalizes.
	x := u.Intersect(a.Value())
	if x.Card() != 1 { // 2*2/4
		t.Errorf("intersect card = %v, want 1", x.Card())
	}
	// Fully sourceless intersection degrades to zero.
	if got := (&countValue{c: 3}).Intersect(&countValue{c: 2}); got.Card() != 0 {
		t.Errorf("sourceless intersect = %v, want 0", got.Card())
	}
}

func TestHashIsZeroAndDumpOfEmpty(t *testing.T) {
	f := hashFactory(8, 2)
	st := f.NewStore()
	if !st.Value().IsZero() {
		t.Error("empty hash store value should be zero")
	}
	d := st.Dump()
	if len(d.IDs) != 0 || d.Level != 0 {
		t.Errorf("empty dump = %+v", d)
	}
	re := f.Restore(d)
	if re.Entries() != 0 {
		t.Error("restored empty store not empty")
	}
	_ = sampling.NewHasher(1) // keep import for potential extension
}

// TestRestoreHashFromUnsortedDump: a snapshot written when the sample was
// a map lists its ids in map order. Restore accepts that shape — unsorted,
// with duplicates, level above 0 — and dumps of equal state are equal
// byte for byte whatever order the state was reached in.
func TestRestoreHashFromUnsortedDump(t *testing.T) {
	f := hashFactory(64, 7)
	st := f.NewStore()
	for i := 0; i < 2000; i++ {
		st.Add(uint64(i))
	}
	want := st.Dump()
	if want.Level == 0 || !slices.IsSorted(want.IDs) {
		t.Fatalf("Dump = level %d, sorted %v; want a sampled, sorted dump", want.Level, slices.IsSorted(want.IDs))
	}
	old := Dump{Kind: KindHashes, Level: want.Level, IDs: slices.Clone(want.IDs)}
	rand.New(rand.NewSource(5)).Shuffle(len(old.IDs), func(i, j int) { old.IDs[i], old.IDs[j] = old.IDs[j], old.IDs[i] })
	old.IDs = append(old.IDs, old.IDs[:7]...)
	shuffled := slices.Clone(old.IDs)

	re := f.Restore(old)
	if !slices.Equal(old.IDs, shuffled) {
		t.Error("Restore reordered its argument")
	}
	var a, b bytes.Buffer
	if err := gob.NewEncoder(&a).Encode(want); err != nil {
		t.Fatal(err)
	}
	if err := gob.NewEncoder(&b).Encode(re.Dump()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Errorf("dump of the restored store differs: %+v, want %+v", re.Dump(), want)
	}
}
