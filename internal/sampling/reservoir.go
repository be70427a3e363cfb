package sampling

import "math/rand"

// Reservoir maintains a fixed-size uniform random sample of a stream of
// uint64 identifiers using Vitter's Algorithm R: the k-th element is
// included with probability min{1, s/k}, replacing a uniformly random
// current member when the reservoir is full.
//
// The paper's "Sets" matching-set representation samples documents at
// this level: the synopsis is maintained from exactly the sampled
// documents, and an eviction notifies the synopsis to remove the evicted
// document everywhere.
type Reservoir struct {
	rng  *rand.Rand
	cap  int
	seen int
	ids  []uint64
	pos  map[uint64]int
}

// NewReservoir returns an empty reservoir of the given capacity, seeded
// deterministically.
func NewReservoir(seed int64, capacity int) *Reservoir {
	if capacity < 1 {
		panic("sampling: reservoir capacity must be >= 1")
	}
	return &Reservoir{
		rng: rand.New(rand.NewSource(seed)),
		cap: capacity,
		pos: make(map[uint64]int, min(capacity, 1<<12)), // a capacity may come from a file
	}
}

// Offer presents the next stream element x to the reservoir. It returns
// (accepted, evicted, hadEviction): whether x was kept, and if a current
// member was displaced to make room, which one.
func (r *Reservoir) Offer(x uint64) (accepted bool, evicted uint64, hadEviction bool) {
	r.seen++
	if len(r.ids) < r.cap {
		r.pos[x] = len(r.ids)
		r.ids = append(r.ids, x)
		return true, 0, false
	}
	// Keep with probability cap/seen.
	if r.rng.Intn(r.seen) >= r.cap {
		return false, 0, false
	}
	victim := r.rng.Intn(r.cap)
	old := r.ids[victim]
	delete(r.pos, old)
	r.ids[victim] = x
	r.pos[x] = victim
	return true, old, true
}

// RestoreReservoir rebuilds a reservoir from a saved state: the sampled
// identifiers and the stream position. The random source is freshly
// seeded (the original generator state is not serializable), so the
// continuation is statistically — not bitwise — equivalent to the
// original stream. It panics if len(ids) exceeds the capacity.
func RestoreReservoir(seed int64, capacity int, ids []uint64, seen int) *Reservoir {
	if len(ids) > capacity {
		panic("sampling: restored sample exceeds capacity")
	}
	r := NewReservoir(seed, capacity)
	r.seen = seen
	r.ids = append(r.ids, ids...)
	for i, x := range r.ids {
		r.pos[x] = i
	}
	return r
}

// Contains reports whether x is currently in the sample.
func (r *Reservoir) Contains(x uint64) bool {
	_, ok := r.pos[x]
	return ok
}

// Size returns the current number of sampled elements.
func (r *Reservoir) Size() int { return len(r.ids) }

// Seen returns the number of stream elements offered so far.
func (r *Reservoir) Seen() int { return r.seen }

// Capacity returns the reservoir capacity.
func (r *Reservoir) Capacity() int { return r.cap }

// IDs returns the sampled identifiers in unspecified order. The returned
// slice is shared; callers must not modify it.
func (r *Reservoir) IDs() []uint64 { return r.ids }
