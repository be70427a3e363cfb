package xmltree

import (
	"encoding/binary"
	"errors"
	"slices"
	"sync"
)

// packer is Pack's pooled scratch: the label dictionary and the node
// records of the document being packed, encoded side by side because the
// dictionary is only complete once the last node is seen.
type packer struct {
	index       map[string]uint64
	dict, nodes []byte
	stack       []*Node
}

var packers = sync.Pool{New: func() any { return &packer{index: make(map[string]uint64)} }}

// Pack encodes t as one pointer-free byte slice, the form a document is
// retained in once routing is done with its tree:
//
//	uvarint(nodes) uvarint(labels) {uvarint(len) bytes}… {uvarint(label) uvarint(children)}…
//
// The dictionary lists the document's distinct labels in order of first
// use and belongs to this document alone; the nodes follow in pre-order,
// each naming its label by dictionary index. A nil or empty tree packs
// to nil. Unpack is the inverse.
func Pack(t *Tree) []byte {
	if t == nil || t.Root == nil {
		return nil
	}
	p := packers.Get().(*packer)
	p.dict, p.nodes = p.dict[:0], p.nodes[:0]
	count := uint64(0)
	p.stack = append(p.stack[:0], t.Root)
	for len(p.stack) > 0 {
		last := len(p.stack) - 1
		n := p.stack[last]
		p.stack[last] = nil // pooled scratch must not pin the document it last saw
		p.stack = p.stack[:last]
		li, ok := p.index[n.Label]
		if !ok {
			li = uint64(len(p.index))
			p.index[n.Label] = li
			p.dict = append(binary.AppendUvarint(p.dict, uint64(len(n.Label))), n.Label...)
		}
		p.nodes = binary.AppendUvarint(binary.AppendUvarint(p.nodes, li), uint64(len(n.Children)))
		count++
		for i := len(n.Children) - 1; i >= 0; i-- {
			p.stack = append(p.stack, n.Children[i])
		}
	}
	var counts [2 * binary.MaxVarintLen64]byte
	head := binary.AppendUvarint(binary.AppendUvarint(counts[:0], count), uint64(len(p.index)))
	b := slices.Concat(head, p.dict, p.nodes)
	clear(p.index)
	if cap(p.nodes) <= maxPooledBody {
		packers.Put(p)
	}
	return b
}

var errPacked = errors.New("xmltree: unpack: truncated or corrupt document")

// Unpack rebuilds the tree Pack encoded, into the same two exactly
// sized slabs Parse builds (labels come from the shared label cache).
// Empty input is the empty document: a nil tree. Input that Pack did
// not produce is an error, as is a tree deeper than MaxDepth, and no
// count it claims is trusted beyond what its own length could hold.
func Unpack(b []byte) (*Tree, error) {
	if len(b) == 0 {
		return nil, nil
	}
	ok := true
	next := func() uint64 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			ok, n = false, len(b)
		}
		b = b[n:]
		return x
	}
	// A node takes at least two bytes and a label at least one.
	nNodes, nLabels := next(), next()
	if !ok || nNodes == 0 || nNodes > uint64(len(b))/2 || nLabels > uint64(len(b)) {
		return nil, errPacked
	}
	labels := make([]string, nLabels)
	for i := range labels {
		n := next()
		if !ok || n > uint64(len(b)) {
			return nil, errPacked
		}
		labels[i], b = cachedLabel(b[:n]), b[n:]
	}
	nodes := make([]Node, nNodes)
	ptrs := make([]*Node, nNodes-1)
	// open holds, for each node still missing children, the range of
	// ptrs they go to and their depth; pre-order puts the next node under
	// the innermost.
	type span struct{ next, end, depth uint64 }
	open := make([]span, 0, 32) // on the stack unless the document is deeper
	used := uint64(0)           // of ptrs
	for i := range nodes {
		li, kids := next(), next()
		if !ok || li >= nLabels || kids > uint64(len(ptrs))-used || (i > 0 && len(open) == 0) {
			return nil, errPacked
		}
		depth := uint64(1)
		if i > 0 {
			top := &open[len(open)-1]
			ptrs[top.next], depth = &nodes[i], top.depth
			if top.next++; top.next == top.end {
				open = open[:len(open)-1]
			}
		}
		nodes[i].Label = labels[li]
		if kids > 0 {
			if depth == MaxDepth {
				return nil, errTooDeep
			}
			// cap == len, as in parse: AddChild must not grow into the next list.
			nodes[i].Children = ptrs[used : used+kids : used+kids]
			open = append(open, span{used, used + kids, depth + 1})
			used += kids
		}
	}
	if len(open) != 0 || len(b) != 0 {
		return nil, errPacked
	}
	return &Tree{Root: &nodes[0]}, nil
}
