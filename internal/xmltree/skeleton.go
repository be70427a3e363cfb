package xmltree

// Skeleton builds the skeleton tree Ts of a document T (paper, Section
// 3.1): in Ts each node has at most one child with a given tag. It is
// constructed top-down by coalescing children of a node that share a tag;
// the coalesced node inherits the union of the children of the merged
// nodes, and coalescing continues recursively.
//
// The skeleton preserves the set of root-to-node label paths of the
// document, and it is the unit of insertion into the document synopsis.
func Skeleton(t *Tree) *Tree {
	var s SkeletonScratch
	return &Tree{Root: s.Build(t)}
}

// SkeletonScratch is the reusable storage a skeleton is built in: once
// it has seen a document of a given shape, building another allocates
// nothing. The zero value is ready to use; it is not safe for
// concurrent use.
type SkeletonScratch struct {
	chunks [][]Node // the node arena; chunks are never reallocated
	used   int      // arena nodes handed out by the current build
	links  []skeletonLink
	groups []skeletonGroup
}

// The arena grows skeletonChunk nodes at a time, and a scratch whose
// last build needed more than skeletonKeep nodes (some forty times a
// workload skeleton) starts over empty, so one huge document does not
// stay resident.
const (
	skeletonChunk = 64
	skeletonKeep  = 4096
)

// skeletonLink is one document node in the list of nodes a skeleton
// node coalesces; next indexes links, -1 ends the list.
type skeletonLink struct {
	src  *Node
	next int
}

// skeletonGroup is such a list, in first-seen order; head is -1 while
// it is empty.
type skeletonGroup struct{ head, tail int }

// Build returns the root of t's skeleton (nil for an empty tree). The
// skeleton lives in s and is valid until the next Build.
func (s *SkeletonScratch) Build(t *Tree) *Node {
	if s.used > skeletonKeep {
		*s = SkeletonScratch{}
	}
	s.used = 0
	if t == nil || t.Root == nil {
		return nil
	}
	root := s.newNode(t.Root.Label)
	s.links = append(s.links[:0], skeletonLink{src: t.Root, next: -1})
	s.coalesce(root, 0)
	s.links[0] = skeletonLink{} // coalesce cleared the rest: do not pin the document
	return root
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

// coalesce populates dst.Children from the union of the children of the
// document nodes in the list at links[head], grouping by tag (first-seen
// order, for determinism). Each group becomes one skeleton child whose
// own children are recursively coalesced from the whole group. Groups
// are found by scanning the skeleton children built so far — their
// count is bounded by the distinct child labels, small in practice, and
// the scan beats a per-node map on the ingest hot path (Skeleton runs
// per observed document) — with a map fallback past a threshold so a
// hostile wide document with thousands of distinct tags cannot make
// this quadratic. The lists live on two stacks shared by the whole
// build, popped when dst is done.
func (s *SkeletonScratch) coalesce(dst *Node, head int) {
	linkBase, groupBase := len(s.links), len(s.groups)
	var byLabel map[string]int
	for l := head; l >= 0; l = s.links[l].next {
		for _, c := range s.links[l].src.Children {
			idx := -1
			if byLabel != nil {
				if i, ok := byLabel[c.Label]; ok {
					idx = i
				}
			} else {
				for i, d := range dst.Children {
					if d.Label == c.Label {
						idx = i
						break
					}
				}
			}
			if idx < 0 {
				dst.Children = append(dst.Children, s.newNode(c.Label))
				s.groups = append(s.groups, skeletonGroup{head: -1})
				idx = len(dst.Children) - 1
				if byLabel != nil {
					byLabel[c.Label] = idx
				} else if len(dst.Children) > 32 {
					byLabel = make(map[string]int, 2*len(dst.Children))
					for i, d := range dst.Children {
						byLabel[d.Label] = i
					}
				}
			}
			if len(c.Children) == 0 {
				continue // a leaf adds nothing below its skeleton node
			}
			g := &s.groups[groupBase+idx]
			if g.head < 0 {
				g.head = len(s.links)
			} else {
				s.links[g.tail].next = len(s.links)
			}
			g.tail = len(s.links)
			s.links = append(s.links, skeletonLink{src: c, next: -1})
		}
	}
	for i, child := range dst.Children {
		if head := s.groups[groupBase+i].head; head >= 0 {
			s.coalesce(child, head)
		}
	}
	clear(s.links[linkBase:])
	s.links, s.groups = s.links[:linkBase], s.groups[:groupBase]
}

// IsSkeleton reports whether no node of the tree has two children with
// the same tag, i.e. whether the tree is its own skeleton.
func IsSkeleton(t *Tree) bool {
	if t == nil || t.Root == nil {
		return true
	}
	ok := true
	t.Root.Walk(func(n *Node) bool {
		seen := make(map[string]struct{}, len(n.Children))
		for _, c := range n.Children {
			if _, dup := seen[c.Label]; dup {
				ok = false
				return false
			}
			seen[c.Label] = struct{}{}
		}
		return ok
	})
	return ok
}
