// Package xmltree provides the forms of an XML document, a parser, and
// skeleton-tree construction. Packed bytes (Pack) are the document from
// the parser to its deliveries: ParsePacked scans XML straight to them,
// and the broker queues, retains, journals and forwards them as they
// are. A Flat (LoadPacked) reads them in one pass into the arena of
// child ranges and label symbols that matching walks; the synopsis
// builds each skeleton from them (SkeletonScratch.BuildPacked). A Tree
// (Parse, Unpack) is for callers that build, edit or print documents:
// generators, tests, GET /doc.
//
// Trees in this package are purely structural: each node carries a label
// (an element tag name or, optionally, a text value promoted to a label)
// and an ordered list of children. This is the document model of Chand,
// Felber and Garofalakis (ICDE'07), where both XML documents and tree
// patterns are unordered node-labeled trees and matching only tests for
// the existence of labeled children or descendants.
package xmltree

import (
	"fmt"
	"sort"
	"strings"
)

// Node is a single node of an XML tree. The zero value is an unlabeled
// leaf. Nodes are linked downward only; parents are not tracked because
// matching and synopsis construction both walk top-down.
type Node struct {
	// Label is the element tag name (or promoted text value).
	Label string
	// Children holds the node's child elements in document order.
	Children []*Node
}

// Tree is a rooted XML document tree.
type Tree struct {
	// Root is the document (root) element. A nil Root denotes the empty
	// document, which matches no pattern.
	Root *Node
}

// New returns a tree rooted at a fresh node with the given label.
func New(label string) *Tree {
	return &Tree{Root: &Node{Label: label}}
}

// AddChild appends a new child with the given label and returns it.
func (n *Node) AddChild(label string) *Node {
	c := &Node{Label: label}
	n.Children = append(n.Children, c)
	return c
}

// IsLeaf reports whether the node has no children.
func (n *Node) IsLeaf() bool { return len(n.Children) == 0 }

// Size returns the number of nodes in the subtree rooted at n,
// including n itself. A nil node has size 0.
func (n *Node) Size() int {
	if n == nil {
		return 0
	}
	s := 1
	for _, c := range n.Children {
		s += c.Size()
	}
	return s
}

// Size returns the number of nodes in the tree.
func (t *Tree) Size() int {
	if t == nil {
		return 0
	}
	return t.Root.Size()
}

// Depth returns the number of levels in the subtree rooted at n
// (a single node has depth 1). A nil node has depth 0.
func (n *Node) Depth() int {
	if n == nil {
		return 0
	}
	max := 0
	for _, c := range n.Children {
		if d := c.Depth(); d > max {
			max = d
		}
	}
	return max + 1
}

// Depth returns the number of levels in the tree.
func (t *Tree) Depth() int {
	if t == nil {
		return 0
	}
	return t.Root.Depth()
}

// TagPairs returns the number of element tag pairs in the tree, i.e. the
// number of nodes. The paper sizes generated documents in "tag pairs"
// (each element contributes one open/close pair).
func (t *Tree) TagPairs() int { return t.Size() }

// Walk calls fn for every node of the subtree rooted at n in preorder.
// If fn returns false the walk does not descend into that node's children.
func (n *Node) Walk(fn func(*Node) bool) {
	if n == nil {
		return
	}
	if !fn(n) {
		return
	}
	for _, c := range n.Children {
		c.Walk(fn)
	}
}

// LabelPaths returns the set of distinct root-to-node label paths in the
// tree, each encoded as "/a/b/c". The result is sorted. It is primarily a
// testing and diagnostics helper: the synopsis stores exactly the
// information needed to recover these paths.
func (t *Tree) LabelPaths() []string {
	if t == nil || t.Root == nil {
		return nil
	}
	set := make(map[string]struct{})
	var rec func(n *Node, prefix string)
	rec = func(n *Node, prefix string) {
		p := prefix + "/" + n.Label
		set[p] = struct{}{}
		for _, c := range n.Children {
			rec(c, p)
		}
	}
	rec(t.Root, "")
	out := make([]string, 0, len(set))
	for p := range set {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// Clone returns a deep copy of the subtree rooted at n.
func (n *Node) Clone() *Node {
	if n == nil {
		return nil
	}
	cp := &Node{Label: n.Label}
	if len(n.Children) > 0 {
		cp.Children = make([]*Node, len(n.Children))
		for i, c := range n.Children {
			cp.Children[i] = c.Clone()
		}
	}
	return cp
}

// Clone returns a deep copy of the tree.
func (t *Tree) Clone() *Tree {
	if t == nil {
		return nil
	}
	return &Tree{Root: t.Root.Clone()}
}

// Equal reports whether two subtrees are structurally identical,
// including child order. For order-insensitive comparison, canonicalize
// both sides first (see Canonicalize).
func (n *Node) Equal(o *Node) bool {
	if n == nil || o == nil {
		return n == o
	}
	if n.Label != o.Label || len(n.Children) != len(o.Children) {
		return false
	}
	for i := range n.Children {
		if !n.Children[i].Equal(o.Children[i]) {
			return false
		}
	}
	return true
}

// Canonicalize sorts every child list by the canonical string of the
// child subtree, producing a deterministic representation of the
// unordered tree. It modifies the tree in place and returns it.
func (t *Tree) Canonicalize() *Tree {
	if t != nil && t.Root != nil {
		canonNode(t.Root)
	}
	return t
}

func canonNode(n *Node) string {
	keys := make([]string, len(n.Children))
	for i, c := range n.Children {
		keys[i] = canonNode(c)
	}
	sort.Sort(&byKey{keys: keys, nodes: n.Children})
	var b strings.Builder
	b.WriteString(n.Label)
	if len(n.Children) > 0 {
		b.WriteByte('(')
		for i, k := range keys {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(k)
		}
		b.WriteByte(')')
	}
	return b.String()
}

type byKey struct {
	keys  []string
	nodes []*Node
}

func (s *byKey) Len() int           { return len(s.keys) }
func (s *byKey) Less(i, j int) bool { return s.keys[i] < s.keys[j] }
func (s *byKey) Swap(i, j int) {
	s.keys[i], s.keys[j] = s.keys[j], s.keys[i]
	s.nodes[i], s.nodes[j] = s.nodes[j], s.nodes[i]
}

// String renders the tree in the compact "a(b,c(d))" functional form used
// throughout tests and examples.
func (t *Tree) String() string {
	if t == nil || t.Root == nil {
		return "<empty>"
	}
	var b strings.Builder
	writeNode(&b, t.Root)
	return b.String()
}

func writeNode(b *strings.Builder, n *Node) {
	b.WriteString(n.Label)
	if len(n.Children) > 0 {
		b.WriteByte('(')
		for i, c := range n.Children {
			if i > 0 {
				b.WriteByte(',')
			}
			writeNode(b, c)
		}
		b.WriteByte(')')
	}
}

// ParseCompact parses the compact functional form produced by String,
// e.g. "a(b,c(d,e))". Labels may contain any characters except
// '(', ')', ',' and whitespace. It is the inverse of String and is used
// heavily in tests to state trees succinctly.
func ParseCompact(s string) (*Tree, error) {
	p := &compactParser{in: s}
	n, err := p.parseNode()
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	if p.pos != len(p.in) {
		return nil, fmt.Errorf("xmltree: trailing input at offset %d in %q", p.pos, s)
	}
	return &Tree{Root: n}, nil
}

type compactParser struct {
	in  string
	pos int
}

func (p *compactParser) skipSpace() {
	for p.pos < len(p.in) && (p.in[p.pos] == ' ' || p.in[p.pos] == '\t' || p.in[p.pos] == '\n') {
		p.pos++
	}
}

func (p *compactParser) parseNode() (*Node, error) {
	p.skipSpace()
	start := p.pos
	for p.pos < len(p.in) && !strings.ContainsRune("(),", rune(p.in[p.pos])) &&
		p.in[p.pos] != ' ' && p.in[p.pos] != '\t' && p.in[p.pos] != '\n' {
		p.pos++
	}
	if p.pos == start {
		return nil, fmt.Errorf("xmltree: expected label at offset %d in %q", p.pos, p.in)
	}
	n := &Node{Label: p.in[start:p.pos]}
	p.skipSpace()
	if p.pos < len(p.in) && p.in[p.pos] == '(' {
		p.pos++
		for {
			c, err := p.parseNode()
			if err != nil {
				return nil, err
			}
			n.Children = append(n.Children, c)
			p.skipSpace()
			if p.pos >= len(p.in) {
				return nil, fmt.Errorf("xmltree: unterminated child list in %q", p.in)
			}
			if p.in[p.pos] == ',' {
				p.pos++
				continue
			}
			if p.in[p.pos] == ')' {
				p.pos++
				break
			}
			return nil, fmt.Errorf("xmltree: unexpected %q at offset %d in %q", p.in[p.pos], p.pos, p.in)
		}
	}
	return n, nil
}
