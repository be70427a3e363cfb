package sampling

import (
	"math/rand"
	"slices"
	"testing"
)

// refSample is the map-backed distinct sample DistinctSample was before
// it became a sorted slice; the differential test holds the slice to it.
type refSample struct {
	h     *Hasher
	cap   int
	level int
	ids   map[uint64]struct{}
}

func (r *refSample) add(x uint64) {
	if r.h.Level(x) >= r.level {
		r.ids[x] = struct{}{}
	}
	r.force(r.level)
}

// force raises the level to at least l, then further until the sample
// fits its capacity.
func (r *refSample) force(l int) {
	for r.level < l || len(r.ids) > r.cap {
		r.level++
		for x := range r.ids {
			if r.h.Level(x) < r.level {
				delete(r.ids, x)
			}
		}
	}
}

func (r *refSample) unionInto(o *refSample) {
	r.force(o.level)
	for x := range o.ids {
		r.add(x)
	}
}

func (r *refSample) sorted() []uint64 {
	out := make([]uint64, 0, len(r.ids))
	for x := range r.ids {
		out = append(out, x)
	}
	slices.Sort(out)
	return out
}

// TestDistinctSliceDifferentialAndAliasing drives the slice-backed sample
// and the map reference through the same random operations — in-order
// and out-of-order Add, Remove of the first, a middle and an absent
// element, ForceLevel, UnionInto — and checks after every step that they
// hold the same set at the same level, and at the end that every slice
// Sorted ever handed out still reads exactly what it read when taken.
func TestDistinctSliceDifferentialAndAliasing(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		h := NewHasher(uint64(seed))
		capacity := 4 + rng.Intn(60)
		s := NewDistinctSample(h, capacity)
		ref := &refSample{h: h, cap: capacity, ids: map[uint64]struct{}{}}
		type snapshot struct{ shared, copied []uint64 }
		var snaps []snapshot
		next := uint64(1000)
		for step := 0; step < 600; step++ {
			shared := s.Sorted()
			snaps = append(snaps, snapshot{shared, slices.Clone(shared)})
			op := rng.Intn(10)
			switch {
			case op < 4: // the stream: ids in increasing order
				next += uint64(1 + rng.Intn(3))
				s.Add(next)
				ref.add(next)
			case op < 6: // out of order, sometimes a duplicate
				x := uint64(rng.Intn(int(next)))
				s.Add(x)
				ref.add(x)
			case op < 9 && s.Size() > 0:
				ids := s.IDs()
				x := ids[0] // the window's order
				switch rng.Intn(3) {
				case 1:
					x = ids[rng.Intn(len(ids))]
				case 2:
					x = next + 1 // absent
				}
				s.Remove(x)
				delete(ref.ids, x)
			case op == 9 && rng.Intn(4) == 0:
				l := s.Level() + rng.Intn(2)
				s.ForceLevel(l)
				ref.force(l)
			default:
				o := NewDistinctSample(h, capacity)
				oref := &refSample{h: h, cap: capacity, ids: map[uint64]struct{}{}}
				for i := rng.Intn(2 * capacity); i > 0; i-- {
					x := uint64(rng.Intn(int(next) + 100))
					o.Add(x)
					oref.add(x)
				}
				s.UnionInto(o)
				ref.unionInto(oref)
			}
			if s.Level() != ref.level || !slices.Equal(s.Sorted(), ref.sorted()) {
				t.Fatalf("seed %d step %d: slice sample level %d %v, reference level %d %v",
					seed, step, s.Level(), s.Sorted(), ref.level, ref.sorted())
			}
			if got := s.Sorted(); cap(got) != len(got) {
				t.Fatalf("seed %d step %d: Sorted leaves %d spare capacity", seed, step, cap(got)-len(got))
			}
		}
		for i, sn := range snaps {
			if !slices.Equal(sn.shared, sn.copied) {
				t.Fatalf("seed %d: slice handed out before step %d was rewritten: %v, was %v", seed, i, sn.shared, sn.copied)
			}
		}
	}
}

// TestDistinctAddInOrderDoesNotAllocate: the streaming path — ids in
// increasing order — amortises to an append; the only allocations are the
// slice's growth and one fresh slice per level.
func TestDistinctAddInOrderDoesNotAllocate(t *testing.T) {
	s := NewDistinctSample(NewHasher(3), 1000)
	x := uint64(0)
	if avg := testing.AllocsPerRun(100000, func() { s.Add(x); x++ }); avg >= 0.1 {
		t.Errorf("in-order Add allocates %v times per call, want < 0.1", avg)
	}
	if s.Level() == 0 {
		t.Error("the run never subsampled")
	}
}
