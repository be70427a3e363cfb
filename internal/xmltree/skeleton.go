package xmltree

import "slices"

// Skeleton builds the skeleton tree Ts of a document T (paper, Section
// 3.1): in Ts each node has at most one child with a given tag. Children
// of a node that share a tag are coalesced, the coalesced node inherits
// the union of their children, and coalescing continues recursively: Ts
// is the trie of T's root-to-node label paths, children in first-seen
// order. It is the unit of insertion into the document synopsis, which
// builds it from the packed document (SkeletonScratch.BuildPacked); this
// is the reference that builder is held to.
func Skeleton(t *Tree) *Tree {
	if t == nil || t.Root == nil {
		return &Tree{}
	}
	var add func(sk, n *Node)
	add = func(sk, n *Node) {
		for _, c := range n.Children {
			i := slices.IndexFunc(sk.Children, func(k *Node) bool { return k.Label == c.Label })
			if i < 0 {
				i = len(sk.Children)
				sk.Children = append(sk.Children, &Node{Label: c.Label})
			}
			add(sk.Children[i], c)
		}
	}
	root := &Node{Label: t.Root.Label}
	add(root, t.Root)
	return &Tree{Root: root}
}

// SkeletonScratch is the reusable storage a skeleton is built in: once
// it has seen a document of a given shape, building another allocates
// nothing. A build's skeleton aliases its document's bytes until
// Release, which its user calls once done with it. The zero value is
// ready to use; it is not safe for concurrent use.
type SkeletonScratch struct {
	chunks [][]Node // the node arena; chunks are never reallocated
	used   int      // arena nodes handed out by the current build
	rd     packedReader
	dict   []string // the document's labels by dictionary index
	path   []*Node  // the skeleton nodes of the current node's ancestors
	wide   map[wideKey]*Node
}

// wideKey finds a child of a skeleton node with more than skeletonScan
// children by label.
type wideKey struct {
	parent *Node
	label  string
}

// The arena grows skeletonChunk nodes at a time, and a scratch whose
// last build needed more than skeletonKeep nodes (some forty times a
// workload skeleton) starts over empty, so one huge document does not
// stay resident. A node's children are found by a scan up to
// skeletonScan of them — their count is bounded by the distinct child
// labels, small in practice, and the scan beats a map on the ingest hot
// path — and through wide past it, so a hostile wide document with
// thousands of distinct tags cannot make the build quadratic.
const (
	skeletonChunk = 64
	skeletonKeep  = 4096
	skeletonScan  = 32
)

// BuildPacked returns the root of the skeleton of the document b packs
// (Pack's form; nil for the empty document, and for bytes Unpack
// refuses). It reads b once, in pre-order, into a label-path trie: each
// node joins the child with its label under its parent's skeleton node,
// or starts it. That is Skeleton's tree, child order included. The
// skeleton lives in s and its labels alias b: it is valid while b is
// unchanged, until the next build or Release.
func (s *SkeletonScratch) BuildPacked(b []byte) *Node {
	if s.used > skeletonKeep {
		*s = SkeletonScratch{}
	}
	s.used = 0
	clear(s.wide)
	r := &s.rd
	var err error
	if s.dict, err = r.start(b, s.dict[:0], aliasString); err != nil || r.nodes == 0 {
		return nil
	}
	for r.next() {
		if r.depth == 0 {
			s.path = append(s.path[:0], s.newNode(s.dict[r.label]))
		} else {
			s.path = append(s.path[:r.depth], s.child(s.path[r.depth-1], s.dict[r.label]))
		}
	}
	if r.err != nil {
		return nil
	}
	return s.path[0]
}

// Release drops every reference the last build holds into its
// document's bytes, so a scratch kept between documents does not pin
// the last one. The skeleton it returned is invalid after.
func (s *SkeletonScratch) Release() {
	for i := range s.used {
		s.chunks[i/skeletonChunk][i%skeletonChunk].Label = ""
	}
	clear(s.dict[:cap(s.dict)])
	clear(s.wide)
	s.rd.b = nil
}

// child returns p's child labelled label, adding it if p has none.
func (s *SkeletonScratch) child(p *Node, label string) *Node {
	if len(p.Children) > skeletonScan {
		if c := s.wide[wideKey{p, label}]; c != nil {
			return c
		}
	} else {
		for _, c := range p.Children {
			if c.Label == label {
				return c
			}
		}
	}
	c := s.newNode(label)
	p.Children = append(p.Children, c)
	if n := len(p.Children); n > skeletonScan {
		if s.wide == nil {
			s.wide = make(map[wideKey]*Node)
		}
		from := n - 1
		if n == skeletonScan+1 {
			from = 0 // p just outgrew the scan: index all its children
		}
		for _, k := range p.Children[from:] {
			s.wide[wideKey{p, k.Label}] = k
		}
	}
	return c
}

// newNode takes the next arena node. A reused node keeps its child
// list's capacity, which is what makes a warm build allocation-free.
func (s *SkeletonScratch) newNode(label string) *Node {
	if s.used == len(s.chunks)*skeletonChunk {
		s.chunks = append(s.chunks, make([]Node, skeletonChunk))
	}
	n := &s.chunks[s.used/skeletonChunk][s.used%skeletonChunk]
	s.used++
	n.Label, n.Children = label, n.Children[:0]
	return n
}
