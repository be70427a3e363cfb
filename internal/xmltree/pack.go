package xmltree

import (
	"encoding/binary"
	"errors"
	"slices"
	"sync"
	"unsafe"
)

// packer is the pooled scratch Pack and ParsePacked encode in: the label
// dictionary and the node records of the document being packed, encoded
// side by side because the dictionary is only complete once the last
// node is seen.
type packer struct {
	index       map[string]uint64
	dict, nodes []byte
	count       uint64
	stack       []*Node
}

var packers = sync.Pool{New: func() any { return &packer{index: make(map[string]uint64)} }}

// add encodes the next node in pre-order. The packer keeps label as a
// map key until finish, so label may alias scratch that finish outlives.
func (p *packer) add(label string, kids int) {
	li, ok := p.index[label]
	if !ok {
		li = uint64(len(p.index))
		p.index[label] = li
		p.dict = append(binary.AppendUvarint(p.dict, uint64(len(label))), label...)
	}
	p.nodes = binary.AppendUvarint(binary.AppendUvarint(p.nodes, li), uint64(kids))
	p.count++
}

// finish appends the document's encoding to dst and pools p.
func (p *packer) finish(dst []byte) []byte {
	var counts [2 * binary.MaxVarintLen64]byte
	head := binary.AppendUvarint(binary.AppendUvarint(counts[:0], p.count), uint64(len(p.index)))
	dst = slices.Grow(dst, len(head)+len(p.dict)+len(p.nodes))
	dst = append(append(append(dst, head...), p.dict...), p.nodes...)
	clear(p.index)
	p.dict, p.nodes, p.count = p.dict[:0], p.nodes[:0], 0
	if cap(p.nodes) <= maxPooledBody {
		packers.Put(p)
	}
	return dst
}

// Pack encodes t as one pointer-free byte slice, the form a document
// takes from the parser to its deliveries:
//
//	uvarint(nodes) uvarint(labels) {uvarint(len) bytes}… {uvarint(label) uvarint(children)}…
//
// The dictionary lists the document's distinct labels in order of first
// use and belongs to this document alone; the nodes follow in pre-order,
// each naming its label by dictionary index. A nil or empty tree packs
// to nil. Unpack is the inverse.
func Pack(t *Tree) []byte { return appendPack(nil, t) }

// appendPack appends Pack(t) to dst.
func appendPack(dst []byte, t *Tree) []byte {
	if t == nil || t.Root == nil {
		return dst
	}
	p := packers.Get().(*packer)
	p.stack = append(p.stack[:0], t.Root)
	for len(p.stack) > 0 {
		last := len(p.stack) - 1
		n := p.stack[last]
		p.stack[last] = nil // pooled scratch must not pin the document it last saw
		p.stack = p.stack[:last]
		p.add(n.Label, len(n.Children))
		for i := len(n.Children) - 1; i >= 0; i-- {
			p.stack = append(p.stack, n.Children[i])
		}
	}
	return p.finish(dst)
}

var errPacked = errors.New("xmltree: unpack: truncated or corrupt document")

// packedReader reads Pack's encoding front to back, for Unpack,
// Flat.LoadPacked and SkeletonScratch.BuildPacked alike, and checks it as
// it goes: input Pack did not produce is errPacked, a tree deeper than
// MaxDepth ErrTooDeep, and no count it claims is trusted beyond what its
// own length could hold. It numbers the nodes by slot: the root is 0, and
// a node's children take the next free block when it is read.
type packedReader struct {
	b             []byte
	nodes, labels uint64 // as the header claims
	read, claimed uint64 // nodes read; slots claimed by child counts
	open          []openSpan
	err           error

	// The node last read: its dictionary index and child count, its slot
	// and its first child's, and its depth (the root's is 0).
	label, kids, slot, first uint64
	depth                    int
}

// openSpan is a node still missing children: the slots they go to and
// their depth. Pre-order puts the next node under the innermost.
type openSpan struct {
	next, end uint64
	depth     int
}

func (r *packedReader) uvarint() (uint64, bool) {
	x, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.b = nil
		return 0, false
	}
	r.b = r.b[n:]
	return x, true
}

// start reads b's header and dictionary, appending each label to dict
// as str makes it a string. Empty input is the empty document: no nodes.
func (r *packedReader) start(b []byte, dict []string, str func([]byte) string) ([]string, error) {
	*r = packedReader{b: b, open: r.open[:0]}
	if len(b) == 0 {
		return dict, nil
	}
	nodes, ok := r.uvarint()
	labels, ok2 := r.uvarint()
	// A node takes at least two bytes and a label at least one.
	if !ok || !ok2 || nodes == 0 || nodes > uint64(len(r.b))/2 || labels > uint64(len(r.b)) {
		return dict, errPacked
	}
	r.nodes, r.labels = nodes, labels
	dict = slices.Grow(dict, int(labels))
	for range labels {
		n, ok := r.uvarint()
		if !ok || n > uint64(len(r.b)) {
			return dict, errPacked
		}
		dict, r.b = append(dict, str(r.b[:n:n])), r.b[n:]
	}
	return dict, nil
}

// next reads the next node in pre-order into r. It reports false after
// the last node, or at an error, which r.err then holds.
func (r *packedReader) next() bool {
	if r.read == r.nodes {
		if len(r.open) != 0 || len(r.b) != 0 {
			r.err = errPacked
		}
		return false
	}
	var li, kids uint64
	ok, ok2 := true, true
	if b := r.b; len(b) >= 2 && b[0]|b[1] < 0x80 { // the common case: both fit a byte
		li, kids, r.b = uint64(b[0]), uint64(b[1]), b[2:]
	} else {
		li, ok = r.uvarint()
		kids, ok2 = r.uvarint()
	}
	root := r.read == 0
	r.read++
	if !ok || !ok2 || li >= r.labels || kids > r.nodes-1-r.claimed || (!root && len(r.open) == 0) {
		r.err = errPacked
		return false
	}
	r.label, r.kids, r.slot, r.depth = li, kids, 0, 0
	if !root {
		top := &r.open[len(r.open)-1]
		r.slot, r.depth = top.next, top.depth
		if top.next++; top.next == top.end {
			r.open = r.open[:len(r.open)-1]
		}
	}
	if kids > 0 {
		if r.depth == MaxDepth-1 {
			r.err = ErrTooDeep
			return false
		}
		r.first = 1 + r.claimed
		r.open = append(r.open, openSpan{r.first, r.first + kids, r.depth + 1})
		r.claimed += kids
	}
	return true
}

// aliasString is b as a string sharing its bytes, which must not change
// while the string is in use.
func aliasString(b []byte) string { return unsafe.String(unsafe.SliceData(b), len(b)) }

// Unpack rebuilds the tree Pack encoded, into the same two exactly
// sized slabs Parse builds (labels come from the shared label cache).
// Empty input is the empty document: a nil tree. Input that Pack did
// not produce is an error, as is a tree deeper than MaxDepth.
func Unpack(b []byte) (*Tree, error) {
	r := packedReader{open: make([]openSpan, 0, 32)} // on the stack unless the document is deeper
	labels, err := r.start(b, nil, cachedLabel)
	if err != nil || r.nodes == 0 {
		return nil, err
	}
	nodes := make([]Node, r.nodes)
	ptrs := make([]*Node, r.nodes-1)
	for i := 0; r.next(); i++ {
		if r.slot > 0 {
			ptrs[r.slot-1] = &nodes[i]
		}
		nodes[i].Label = labels[r.label]
		if r.kids > 0 {
			// cap == len, as in parse: AddChild must not grow into the next list.
			nodes[i].Children = ptrs[r.first-1 : r.first-1+r.kids : r.first-1+r.kids]
		}
	}
	if r.err != nil {
		return nil, r.err
	}
	return &Tree{Root: &nodes[0]}, nil
}
