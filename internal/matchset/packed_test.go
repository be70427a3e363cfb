package matchset

import (
	"math/rand"
	"slices"
	"testing"

	"treesim/internal/sampling"
)

// refHash is a Hashes value as it was before its ids were packed: a
// level and a sorted []uint64, with the algebra written out plainly.
type refHash struct {
	level int
	ids   []uint64
}

func (r refHash) union(o refHash, h *sampling.Hasher) refHash {
	l := max(r.level, o.level)
	var ids []uint64
	for _, x := range slices.Concat(r.ids, o.ids) {
		if h.Level(x) >= l {
			ids = append(ids, x)
		}
	}
	return refHash{l, sortIDs(ids)}
}

func (r refHash) intersect(o refHash) refHash {
	var ids []uint64
	for _, x := range r.ids {
		if _, found := slices.BinarySearch(o.ids, x); found {
			ids = append(ids, x)
		}
	}
	return refHash{max(r.level, o.level), ids}
}

func (r refHash) card() float64 { return float64(len(r.ids)) * float64(uint64(1)<<uint(r.level)) }

// key is SampleKey's FNV-1a over a []uint64, as SampleKey computed it.
func (r refHash) key() uint64 {
	key := (14695981039346656037 ^ uint64(r.level)) * 1099511628211
	for _, id := range r.ids {
		key = (key ^ id) * 1099511628211
	}
	return key
}

func (r refHash) value(h *sampling.Hasher) *hashValue {
	return &hashValue{level: r.level, ids: sampling.Pack(r.ids), hasher: h}
}

// TestPackedAlgebraAgainstReference intersects and unites random pairs
// of packed values at mixed levels — disjoint, overlapping, one a subset
// of the other, equal, and empty — and holds every answer to the
// reference: Union, Intersect, Card, intersectCard, SampleKey and
// SameSample. A union or intersection equal to one operand at its level
// and not to the other must come back as that operand, not a copy.
func TestPackedAlgebraAgainstReference(t *testing.T) {
	h := sampling.NewHasher(17)
	rng := rand.New(rand.NewSource(5))
	draw := func(level, n int, lo, span uint64) refHash {
		var ids []uint64
		for range n << level {
			if x := lo + uint64(rng.Int63n(int64(span))); h.Level(x) >= level {
				ids = append(ids, x)
			}
		}
		return refHash{level, sortIDs(ids)}
	}
	for trial := 0; trial < 3000; trial++ {
		span := uint64(1) << (4 + rng.Intn(40))
		lo := uint64(rng.Int63())
		a := draw(rng.Intn(4), rng.Intn(80), lo, span)
		var b refHash
		switch rng.Intn(5) {
		case 0: // one a subset of the other, possibly at a higher level
			b.level = a.level + rng.Intn(2)
			for _, x := range a.ids {
				if rng.Intn(3) > 0 && h.Level(x) >= b.level {
					b.ids = append(b.ids, x)
				}
			}
		case 1: // equal ids, at the same level or one below
			b = refHash{max(0, a.level-rng.Intn(2)), slices.Clone(a.ids)}
		case 2: // empty at some level
			b.level = rng.Intn(4)
		default:
			b = draw(rng.Intn(4), rng.Intn(80), lo+uint64(rng.Int63n(int64(span))), span)
		}
		if rng.Intn(2) == 0 {
			a, b = b, a
		}
		av, bv := a.value(h), b.value(h)
		u, x := a.union(b, h), a.intersect(b)
		for name, got := range map[string]Value{"union": av.Union(bv), "intersection": av.Intersect(bv)} {
			want := u
			if name == "intersection" {
				want = x
			}
			gv := got.(*hashValue)
			ids := gv.ids.AppendTo(nil)
			if gv.level != want.level || !slices.Equal(ids, want.ids) || got.Card() != want.card() {
				t.Fatalf("trial %d: %s of %v and %v = level %d %v, want level %d %v", trial, name, a, b, gv.level, ids, want.level, want.ids)
			}
			for _, op := range []struct {
				r refHash
				v *hashValue
			}{{a, av}, {b, bv}} {
				if len(want.ids) > 0 && op.r.level == want.level && slices.Equal(op.r.ids, want.ids) && !slices.Equal(a.ids, b.ids) && got != op.v {
					t.Fatalf("trial %d: %s of %v and %v equals an operand but is a copy", trial, name, a, b)
				}
			}
		}
		if got := IntersectCard(av, bv); got != x.card() {
			t.Fatalf("trial %d: intersectCard = %v, want %v", trial, got, x.card())
		}
		for _, r := range []refHash{a, b, u, x} {
			key, ok := SampleKey(r.value(h))
			if ok != (len(r.ids) > 0) || ok && key != r.key() {
				t.Fatalf("trial %d: SampleKey(%v) = %x/%v, want %x", trial, r, key, ok, r.key())
			}
		}
		same := len(a.ids) > 0 && a.level == b.level && slices.Equal(a.ids, b.ids)
		if SameSample(av, bv) != same || SameSample(bv, av) != same {
			t.Fatalf("trial %d: SameSample(%v, %v) = %v, want %v", trial, a, b, !same, same)
		}
	}
	// A value whose first ids were dropped keeps its gaps from another
	// base; it is still the same sample as the same ids packed afresh.
	st := hashFactory(1000, 17).NewStore()
	for id := uint64(1); id <= 50; id++ {
		st.Add(id)
	}
	st.Remove(1)
	st.Remove(2)
	fresh := &hashValue{level: 0, ids: sampling.Pack(st.Dump().IDs), hasher: h}
	if !SameSample(st.Value(), fresh) {
		t.Error("a sample whose oldest ids expired differs from the same ids packed afresh")
	}
	if k1, _ := SampleKey(st.Value()); k1 != (refHash{0, st.Dump().IDs}).key() {
		t.Error("SampleKey of an expired-from sample differs from the reference")
	}
}
