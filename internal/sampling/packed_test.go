package sampling

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// sliceSample is DistinctSample as it was before its ids were packed:
// the same algorithm over a sorted []uint64. The differential tests and
// the fuzz target hold the packed sample to it.
type sliceSample struct {
	h     *Hasher
	cap   int
	level int
	ids   []uint64
}

func (s *sliceSample) add(x uint64) {
	if s.h.Level(x) < s.level {
		return
	}
	if n := len(s.ids); n == 0 || x > s.ids[n-1] {
		s.ids = append(s.ids, x)
	} else if i, found := slices.BinarySearch(s.ids, x); found {
		return
	} else {
		s.ids = slices.Concat(s.ids[:i], []uint64{x}, s.ids[i:])
	}
	for len(s.ids) > s.cap {
		s.raise(s.level + 1)
	}
}

func (s *sliceSample) remove(x uint64) {
	if i, found := slices.BinarySearch(s.ids, x); found {
		s.ids = slices.Concat(s.ids[:i], s.ids[i+1:])
	}
}

func (s *sliceSample) raise(l int) {
	s.level = l
	s.ids = slices.DeleteFunc(s.ids, func(x uint64) bool { return s.h.Level(x) < l })
}

func (s *sliceSample) estimate() float64 {
	return float64(len(s.ids)) * float64(uint64(1)<<uint(s.level))
}

// runSampleOps drives a packed sample and the slice reference through
// the operations ops encodes, two bytes each (an operation and its
// argument), and fails at the first step after which they differ in
// Level, Size, Estimate, Contains or IDs. At the end every list Packed
// handed out along the way must still read what it read when taken.
func runSampleOps(t *testing.T, seed uint64, capacity int, ops []byte) {
	t.Helper()
	h := NewHasher(seed)
	s := NewDistinctSample(h, capacity)
	ref := &sliceSample{h: h, cap: capacity}
	type snapshot struct {
		p   Packed
		ids []uint64
	}
	var snaps []snapshot
	next := uint64(1000)
	for step := 0; step+1 < len(ops); step += 2 {
		snaps = append(snaps, snapshot{s.Packed(), slices.Clone(ref.ids)})
		arg := uint64(ops[step+1])
		var probe uint64
		switch ops[step] % 8 {
		case 0: // the stream: ids in increasing order
			next += 1 + arg
			s.Add(next)
			ref.add(next)
		case 1: // a gap of 2^32 or more
			next += (1 + arg) << 32
			s.Add(next)
			ref.add(next)
		case 2: // ids near 2^64
			next = math.MaxUint64 - arg
			s.Add(next)
			ref.add(next)
		case 3: // out of order, sometimes a duplicate
			x := next / 256 * arg
			if len(ref.ids) > 0 && arg%4 == 0 {
				x = ref.ids[int(arg)%len(ref.ids)]
			}
			s.Add(x)
			ref.add(x)
			probe = x
		case 4: // the window's order: the smallest id
			if len(ref.ids) > 0 {
				probe = ref.ids[0]
				s.Remove(probe)
				ref.remove(probe)
			}
		case 5: // an interior id
			if len(ref.ids) > 0 {
				probe = ref.ids[int(arg)%len(ref.ids)]
				s.Remove(probe)
				ref.remove(probe)
			}
		case 6: // an id that may be absent
			probe = next / 256 * arg
			s.Remove(probe)
			ref.remove(probe)
		case 7:
			l := s.Level() + int(arg%3)
			s.ForceLevel(l)
			if l > ref.level {
				ref.raise(l)
			}
		}
		if s.Level() != ref.level || s.Size() != len(ref.ids) || s.Estimate() != ref.estimate() || !slices.Equal(s.IDs(), ref.ids) {
			t.Fatalf("step %d (op %d, arg %d): packed level %d size %d %v, slice level %d size %d %v",
				step/2, ops[step]%8, arg, s.Level(), s.Size(), s.IDs(), ref.level, len(ref.ids), ref.ids)
		}
		for _, x := range []uint64{probe, probe + 1, next, 0} {
			_, want := slices.BinarySearch(ref.ids, x)
			if s.Contains(x) != want {
				t.Fatalf("step %d: Contains(%d) = %v, slice says %v", step/2, x, !want, want)
			}
		}
	}
	for i, sn := range snaps {
		if got := sn.p.AppendTo(nil); !slices.Equal(got, sn.ids) {
			t.Fatalf("list handed out before step %d was rewritten: %v, was %v", i, got, sn.ids)
		}
	}
}

// TestPackedSampleAgainstSlice runs random operation sequences over
// small capacities, so that overflow raises happen every few steps.
func TestPackedSampleAgainstSlice(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		ops := make([]byte, 2*(200+rng.Intn(400)))
		for i := range ops {
			ops[i] = byte(rng.Intn(256))
			if i%2 == 0 && rng.Intn(3) > 0 {
				ops[i] = 0 // mostly the stream, as in a synopsis
			}
		}
		runSampleOps(t, seed, 1+rng.Intn(64), ops)
	}
}

// TestPackRoundTrip packs id lists whose gaps take every uvarint length,
// from one byte to ten, and reads them back.
func TestPackRoundTrip(t *testing.T) {
	var ids []uint64
	x := uint64(0)
	for shift := 0; shift < 64; shift += 7 {
		x += 1 << shift
		ids = append(ids, x)
	}
	ids = append(ids, math.MaxUint64)
	for n := 0; n <= len(ids); n++ {
		p := Pack(ids[:n])
		if got := p.AppendTo(nil); !slices.Equal(got, ids[:n]) || p.Len() != n {
			t.Fatalf("Pack(%v) reads back %v (Len %d)", ids[:n], got, p.Len())
		}
		var appended Packed
		for _, x := range ids[:n] {
			appended.Append(x)
		}
		if !appended.Equal(p) || !slices.Equal(appended.b, p.b) {
			t.Fatalf("appending %v gives bytes %x, Pack %x", ids[:n], appended.b, p.b)
		}
		if n > 0 && !p.DropFirst().Equal(Pack(ids[1:n])) {
			t.Fatalf("DropFirst of %v differs from packing %v", ids[:n], ids[1:n])
		}
	}
}

// FuzzPackedSample is runSampleOps over arbitrary bytes: a hasher seed,
// a capacity and the operations.
func FuzzPackedSample(f *testing.F) {
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0, 3, 0, 5, 0, 0, 1, 3, 2, 200, 4, 0, 5, 3, 6, 9, 7, 2})
	f.Add([]byte{7, 0, 0, 0, 0, 0, 0, 0, 1, 1, 255, 1, 7, 2, 0, 0, 3, 4, 5, 5, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 9 {
			return
		}
		runSampleOps(t, binary.LittleEndian.Uint64(data), 1+int(data[8]%64), data[9:])
	})
}

// TestUnpackRoundTripAndRejects: what Raw hands out Unpack takes back,
// DropFirst's nonzero base included; a malformed list is refused.
func TestUnpackRoundTripAndRejects(t *testing.T) {
	p := Pack([]uint64{3, 5, 300, 1 << 40}).DropFirst()
	n, base, gaps := p.Raw()
	q, err := Unpack(n, base, gaps)
	if err != nil || !q.Equal(p) || !slices.Equal(q.AppendTo(nil), []uint64{5, 300, 1 << 40}) {
		t.Fatalf("Unpack(Raw) = %v, %v", q.AppendTo(nil), err)
	}
	if q, err := Unpack(0, 0, nil); err != nil || q.Len() != 0 {
		t.Fatalf("Unpack of the empty list = %v, %v", q, err)
	}
	for name, c := range map[string]struct {
		n    int
		base uint64
		gaps []byte
	}{
		"truncated uvarint": {1, 0, []byte{0x80}},
		"non-canonical":     {1, 0, []byte{0x85, 0x00}},
		"too long":          {1, 0, []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}},
		"repeated id":       {2, 0, []byte{4, 0}},
		"past 2^64-1":       {2, math.MaxUint64 - 1, []byte{1, 1}},
		"count":             {3, 0, []byte{4, 1}},
	} {
		if _, err := Unpack(c.n, c.base, c.gaps); err == nil {
			t.Errorf("%s: Unpack accepted %v", name, c.gaps)
		}
	}
}

// TestCountCommonAgainstSlices holds the merged count of two gap lists to
// the count over their ids, on lists that overlap in runs, interleave,
// and end on either side.
func TestCountCommonAgainstSlices(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 2000; i++ {
		var a, b []uint64
		for x := uint64(rng.Intn(3)); len(a)+len(b) < rng.Intn(60); x += uint64(1 + rng.Intn(4)) {
			switch rng.Intn(3) {
			case 0:
				a = append(a, x)
			case 1:
				b = append(b, x)
			default:
				a, b = append(a, x), append(b, x)
			}
		}
		pa, pb := Pack(a), Pack(b)
		if len(a) > 1 && rng.Intn(2) == 0 { // a nonzero base
			pa, a = pa.DropFirst(), a[1:]
		}
		want := 0
		for _, x := range a {
			if _, ok := slices.BinarySearch(b, x); ok {
				want++
			}
		}
		if got := pa.CountCommon(pb); got != want {
			t.Fatalf("CountCommon(%v, %v) = %d, want %d", a, b, got, want)
		}
		if got := pb.CountCommon(pa); got != want {
			t.Fatalf("CountCommon(%v, %v) = %d, want %d", b, a, got, want)
		}
	}
}
