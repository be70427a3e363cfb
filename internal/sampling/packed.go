package sampling

import (
	"bytes"
	"encoding/binary"
	"errors"
	"iter"
	"slices"
	"sync"
)

// Packed is a sorted, duplicate-free list of uint64 identifiers held as
// uvarint gaps in one []byte: the first gap counts from base, every
// other from its predecessor. A sample's document ids sit close together
// in the stream, so a gap takes one or two bytes where an id takes eight.
//
// A Packed is a value and its copies share bytes. That is safe because
// no byte below the length of a copy ever handed out is written again:
// Append writes past the length, DropFirst reslices, and everything
// else builds a fresh list.
type Packed struct {
	b    []byte
	n    int
	base uint64 // the value the first gap counts from
	last uint64 // the largest id while n > 0
}

// packPool recycles the buffers Pack encodes into before it copies the
// list out exactly sized: one pass, where sizing first takes two.
var packPool = sync.Pool{New: func() any { return new([]byte) }}

// Pack packs sorted, duplicate-free ids into an exactly sized list.
func Pack(ids []uint64) Packed {
	buf := packPool.Get().(*[]byte)
	b, prev := (*buf)[:0], uint64(0)
	for _, x := range ids {
		b = binary.AppendUvarint(b, x-prev)
		prev = x
	}
	*buf = b
	p := Packed{b: bytes.Clone(b), n: len(ids), last: prev}
	packPool.Put(buf)
	return p
}

// Append adds x, which must exceed every id in p.
func (p *Packed) Append(x uint64) {
	if p.n == 0 {
		p.base, p.last = 0, 0
	}
	p.b = binary.AppendUvarint(p.b, x-p.last)
	p.n++
	p.last = x
}

// Raw returns p as it rests, for a codec: its count, the value its
// first gap counts from, and its gaps (shared, not copied).
func (p Packed) Raw() (n int, base uint64, gaps []byte) { return p.n, p.base, p.b }

// Unpack is the list Raw returned, checked before it is trusted: every
// gap a canonical uvarint, every gap after the first nonzero (strictly
// ascending ids), no id past 2^64-1, and n ids. gaps is shared.
func Unpack(n int, base uint64, gaps []byte) (Packed, error) {
	p := Packed{b: gaps, base: base, last: base}
	for i := 0; i < len(gaps); p.n++ {
		g, k := binary.Uvarint(gaps[i:])
		if k <= 0 || k > 1 && gaps[i+k-1] == 0 || g == 0 && p.n > 0 || p.last+g < p.last {
			return Packed{}, errors.New("sampling: packed ids malformed or not ascending")
		}
		i, p.last = i+k, p.last+g
	}
	if p.n != n {
		return Packed{}, errors.New("sampling: packed ids miscounted")
	}
	return p, nil
}

// Len returns the number of ids.
func (p Packed) Len() int { return p.n }

// gap decodes the uvarint at b[i:] and returns it with the index past it.
func gap(b []byte, i int) (uint64, int) {
	g := uint64(b[i])
	i++
	if g >= 0x80 {
		g &= 0x7f
		for s := 7; b[i-1] >= 0x80; s += 7 {
			g |= uint64(b[i]&0x7f) << s
			i++
		}
	}
	return g, i
}

// AppendTo appends p's ids to dst in ascending order.
func (p Packed) AppendTo(dst []uint64) []uint64 {
	dst = slices.Grow(dst, p.n)
	out := dst[len(dst) : len(dst)+p.n]
	x, k := p.base, 0
	for i := 0; i < len(p.b); k++ {
		var g uint64
		g, i = gap(p.b, i)
		x += g
		out[k] = x
	}
	return dst[:len(dst)+p.n]
}

// All yields p's ids in ascending order.
func (p Packed) All() iter.Seq[uint64] {
	return func(yield func(uint64) bool) {
		x := p.base
		for i := 0; i < len(p.b); {
			var g uint64
			g, i = gap(p.b, i)
			x += g
			if !yield(x) {
				return
			}
		}
	}
}

// CountCommon returns how many ids p and q share, merging their gap
// lists as they decode.
func (p Packed) CountCommon(q Packed) (k int) {
	if p.n == 0 || q.n == 0 {
		return 0
	}
	if q.last < p.last {
		p, q = q, p
	}
	g, j := gap(q.b, 0)
	x, y := p.base, q.base+g
	for i := 0; i < len(p.b); {
		g, i = gap(p.b, i)
		for x += g; y < x; y += g { // q outlasts every x ≤ p.last
			g, j = gap(q.b, j)
		}
		if x == y {
			k++
		}
	}
	return k
}

// Contains reports whether x is in p.
func (p Packed) Contains(x uint64) bool {
	for y := range p.All() {
		if y >= x {
			return y == x
		}
	}
	return false
}

// Filter returns a fresh list of the ids in p that keep accepts.
// Dropping an id merges two gaps into one no longer than both, so the
// result never outgrows p's bytes.
func (p Packed) Filter(keep func(uint64) bool) Packed {
	out := Packed{b: make([]byte, 0, len(p.b))}
	for x := range p.All() {
		if keep(x) {
			out.Append(x)
		}
	}
	return out
}

// first returns p's smallest id; p must not be empty.
func (p Packed) first() uint64 {
	g, _ := gap(p.b, 0)
	return p.base + g
}

// DropFirst returns p without its smallest id, sharing p's bytes.
func (p Packed) DropFirst() Packed {
	g, i := gap(p.b, 0)
	return Packed{b: p.b[i:], n: p.n - 1, base: p.base + g, last: p.last}
}

// Equal reports whether p and q hold the same ids. Uvarints are
// canonical, so past the first id equal lists have equal bytes.
func (p Packed) Equal(q Packed) bool {
	if p.n != q.n {
		return false
	}
	if p.n == 0 {
		return true
	}
	g, i := gap(p.b, 0)
	h, j := gap(q.b, 0)
	return p.base+g == q.base+h && bytes.Equal(p.b[i:], q.b[j:])
}
