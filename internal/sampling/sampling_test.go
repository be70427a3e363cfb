package sampling

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestHasherDeterministic(t *testing.T) {
	a, b := NewHasher(42), NewHasher(42)
	c := NewHasher(43)
	diff := false
	for x := uint64(0); x < 100; x++ {
		if a.Hash(x) != b.Hash(x) {
			t.Fatalf("same-seed hashers disagree at %d", x)
		}
		if a.Hash(x) != c.Hash(x) {
			diff = true
		}
	}
	if !diff {
		t.Error("different seeds produced identical hash functions")
	}
}

func TestLevelGeometric(t *testing.T) {
	// Pr[Level(x) >= l] should be ~2^-l.
	h := NewHasher(1)
	const n = 1 << 17
	counts := make([]int, 8)
	for x := uint64(0); x < n; x++ {
		l := h.Level(x)
		for i := 0; i < len(counts) && i <= l; i++ {
			counts[i]++
		}
	}
	for l := 0; l < len(counts); l++ {
		got := float64(counts[l]) / n
		want := math.Pow(2, -float64(l))
		if math.Abs(got-want)/want > 0.1 {
			t.Errorf("Pr[level >= %d] = %v, want ~%v", l, got, want)
		}
	}
}

func TestDistinctSampleBound(t *testing.T) {
	h := NewHasher(5)
	s := NewDistinctSample(h, 32)
	for x := uint64(0); x < 10000; x++ {
		s.Add(x)
		if s.Size() > s.Capacity() {
			t.Fatalf("sample size %d exceeds capacity %d", s.Size(), s.Capacity())
		}
	}
	if s.Level() == 0 {
		t.Error("level should have advanced beyond 0 after overflow")
	}
}

func TestDistinctSampleExactWhenSmall(t *testing.T) {
	h := NewHasher(5)
	s := NewDistinctSample(h, 100)
	for x := uint64(0); x < 50; x++ {
		s.Add(x)
	}
	if s.Level() != 0 || s.Size() != 50 {
		t.Fatalf("level=%d size=%d; expected lossless retention", s.Level(), s.Size())
	}
	if got := s.Estimate(); got != 50 {
		t.Errorf("Estimate = %v, want 50", got)
	}
}

func TestDistinctEstimateAccuracy(t *testing.T) {
	// Average relative error over several seeds should be modest for a
	// 256-element sample of a 20k-element set.
	const trueCard = 20000
	var relErrSum float64
	const seeds = 10
	for seed := int64(0); seed < seeds; seed++ {
		h := NewHasher(uint64(seed) + 100)
		s := NewDistinctSample(h, 256)
		for x := uint64(0); x < trueCard; x++ {
			s.Add(x * 7919) // arbitrary distinct ids
		}
		relErrSum += math.Abs(s.Estimate()-trueCard) / trueCard
	}
	if avg := relErrSum / seeds; avg > 0.15 {
		t.Errorf("average relative cardinality error %v too high", avg)
	}
}

func TestDistinctAddIdempotent(t *testing.T) {
	h := NewHasher(9)
	s := NewDistinctSample(h, 10)
	s.Add(1)
	s.Add(1)
	if s.Size() != 1 {
		t.Errorf("Size = %d, want 1", s.Size())
	}
}

func TestUnionMatchesCombinedSet(t *testing.T) {
	// With capacity large enough to avoid subsampling, union must be
	// exact.
	h := NewHasher(11)
	a := NewDistinctSample(h, 1000)
	b := NewDistinctSample(h, 1000)
	for x := uint64(0); x < 300; x++ {
		a.Add(x)
	}
	for x := uint64(200); x < 500; x++ {
		b.Add(x)
	}
	u := a.Union(b)
	if got := u.Estimate(); got != 500 {
		t.Errorf("union estimate = %v, want 500", got)
	}
	i := a.Intersect(b)
	if got := i.Estimate(); got != 100 {
		t.Errorf("intersect estimate = %v, want 100", got)
	}
}

func TestUnionCommutative(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := NewHasher(uint64(seed))
		a := NewDistinctSample(h, 32)
		b := NewDistinctSample(h, 32)
		for i := 0; i < 500; i++ {
			x := uint64(rng.Intn(2000))
			if rng.Intn(2) == 0 {
				a.Add(x)
			} else {
				b.Add(x)
			}
		}
		ab := a.Union(b)
		ba := b.Union(a)
		// Same level and same retained set (capacities equal).
		if ab.Level() != ba.Level() || ab.Size() != ba.Size() {
			return false
		}
		for _, x := range ab.IDs() {
			if !ba.Contains(x) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestUnionIdempotent(t *testing.T) {
	h := NewHasher(3)
	a := NewDistinctSample(h, 64)
	for x := uint64(0); x < 1000; x++ {
		a.Add(x)
	}
	u := a.Union(a)
	if u.Level() != a.Level() || u.Size() != a.Size() {
		t.Errorf("A ∪ A differs from A: level %d vs %d, size %d vs %d",
			u.Level(), a.Level(), u.Size(), a.Size())
	}
}

func TestIntersectSubsetOfBoth(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := NewHasher(uint64(seed) * 31)
		a := NewDistinctSample(h, 48)
		b := NewDistinctSample(h, 48)
		for i := 0; i < 800; i++ {
			x := uint64(rng.Intn(1000))
			if rng.Intn(3) != 0 {
				a.Add(x)
			}
			if rng.Intn(3) != 0 {
				b.Add(x)
			}
		}
		i := a.Intersect(b)
		l := i.Level()
		for _, x := range i.IDs() {
			if h.Level(x) < l {
				return false
			}
			// Each retained element must be in both inputs (when at
			// sufficient level).
			if !a.Contains(x) || !b.Contains(x) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestIntersectionEstimateAccuracy(t *testing.T) {
	// |A| = |B| = 10000, |A∩B| = 5000; estimates from 512-capacity
	// samples should land near 5000 on average.
	var sum float64
	const seeds = 10
	for seed := uint64(0); seed < seeds; seed++ {
		h := NewHasher(seed + 77)
		a := NewDistinctSample(h, 512)
		b := NewDistinctSample(h, 512)
		for x := uint64(0); x < 10000; x++ {
			a.Add(x)
		}
		for x := uint64(5000); x < 15000; x++ {
			b.Add(x)
		}
		sum += a.Intersect(b).Estimate()
	}
	avg := sum / seeds
	if math.Abs(avg-5000)/5000 > 0.2 {
		t.Errorf("average intersection estimate %v, want ~5000", avg)
	}
}

func TestDifferentHasherPanics(t *testing.T) {
	a := NewDistinctSample(NewHasher(1), 8)
	b := NewDistinctSample(NewHasher(2), 8)
	defer func() {
		if recover() == nil {
			t.Error("expected panic on mixed hashers")
		}
	}()
	a.Union(b)
}

func TestDistinctRemoveAndForceLevel(t *testing.T) {
	h := NewHasher(21)
	s := NewDistinctSample(h, 100)
	for x := uint64(0); x < 50; x++ {
		s.Add(x)
	}
	s.Remove(3)
	if s.Contains(3) || s.Size() != 49 {
		t.Errorf("Remove failed: size=%d", s.Size())
	}
	s.Remove(3) // absent: no-op
	if s.Size() != 49 {
		t.Error("double remove changed size")
	}
	before := s.Size()
	s.ForceLevel(2)
	if s.Level() != 2 {
		t.Errorf("Level = %d, want 2", s.Level())
	}
	if s.Size() > before {
		t.Error("ForceLevel grew the sample")
	}
	for _, x := range s.IDs() {
		if h.Level(x) < 2 {
			t.Errorf("element %d below forced level", x)
		}
	}
	// Lowering is a no-op.
	s.ForceLevel(1)
	if s.Level() != 2 {
		t.Error("ForceLevel lowered the level")
	}
}

func TestConstructorPanics(t *testing.T) {
	h := NewHasher(1)
	for _, f := range []func(){
		func() { NewDistinctSample(h, 0) },
		func() { NewReservoir(1, 0) },
		func() { RestoreReservoir(1, 2, []uint64{1, 2, 3}, 5) },
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

func TestRestoreReservoir(t *testing.T) {
	r := RestoreReservoir(9, 5, []uint64{10, 20, 30}, 100)
	if r.Size() != 3 || r.Seen() != 100 || r.Capacity() != 5 {
		t.Fatalf("restored: size=%d seen=%d cap=%d", r.Size(), r.Seen(), r.Capacity())
	}
	if !r.Contains(20) || r.Contains(99) {
		t.Error("membership wrong after restore")
	}
	// Continued streaming respects the restored position: acceptance
	// probability is now low (5/100+), so most offers are rejected, but
	// the reservoir stays consistent.
	for x := uint64(1000); x < 1100; x++ {
		acc, ev, hadEv := r.Offer(x)
		if hadEv && !acc {
			t.Fatal("eviction without acceptance")
		}
		_ = ev
	}
	if r.Size() > 5 {
		t.Errorf("size %d exceeds capacity", r.Size())
	}
}

func TestReservoirFillsToCapacity(t *testing.T) {
	r := NewReservoir(1, 10)
	for x := uint64(0); x < 5; x++ {
		acc, _, evict := r.Offer(x)
		if !acc || evict {
			t.Fatal("initial fill must accept without eviction")
		}
	}
	if r.Size() != 5 || r.Seen() != 5 {
		t.Fatalf("size=%d seen=%d", r.Size(), r.Seen())
	}
	for x := uint64(5); x < 1000; x++ {
		r.Offer(x)
	}
	if r.Size() != 10 {
		t.Errorf("size = %d, want capacity 10", r.Size())
	}
	if r.Seen() != 1000 {
		t.Errorf("seen = %d, want 1000", r.Seen())
	}
}

func TestReservoirEvictionConsistency(t *testing.T) {
	r := NewReservoir(3, 4)
	members := make(map[uint64]bool)
	for x := uint64(0); x < 500; x++ {
		acc, ev, hadEv := r.Offer(x)
		if acc {
			members[x] = true
		}
		if hadEv {
			if !members[ev] {
				t.Fatalf("evicted %d was not a member", ev)
			}
			delete(members, ev)
		}
	}
	if len(members) != r.Size() {
		t.Fatalf("tracked %d members, reservoir has %d", len(members), r.Size())
	}
	for x := range members {
		if !r.Contains(x) {
			t.Fatalf("member %d missing from reservoir", x)
		}
	}
}

func TestReservoirUniformity(t *testing.T) {
	// Each of the first 100 elements should survive in a 10-slot
	// reservoir with probability 10/100 = 0.1.
	const n, capacity, trials = 100, 10, 3000
	counts := make([]int, n)
	for trial := 0; trial < trials; trial++ {
		r := NewReservoir(int64(trial), capacity)
		for x := uint64(0); x < n; x++ {
			r.Offer(x)
		}
		for _, x := range r.IDs() {
			counts[x]++
		}
	}
	want := float64(capacity) / n
	for i, c := range counts {
		got := float64(c) / trials
		if math.Abs(got-want) > 0.03 {
			t.Errorf("element %d inclusion prob %v, want ~%v", i, got, want)
		}
	}
}
