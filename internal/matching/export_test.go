package matching

import (
	"math/bits"

	"treesim/internal/xmltree"
)

// FrameStack lets a test own the scratch a match runs on: reuse one
// across matches to pin what the pool only makes likely, or read its
// work counter afterwards.
type FrameStack = frameStack

// MatchOn is Match on the caller's frame stack.
func (f *Forest) MatchOn(fr *FrameStack, t *xmltree.Tree) *MatchSet {
	doc := &xmltree.Flat{}
	doc.Load(t, f.tbl)
	return f.matchFlat(t, doc, fr)
}

// WordsTouched is the number of frame words every reset, union and
// masked scan on this stack has visited so far.
func (fr *FrameStack) WordsTouched() int {
	n := 0
	for i := range fr.slots {
		s := &fr.slots[i]
		n += s.ns.touched + s.sat.touched + s.nsOut.touched
	}
	return n
}

// FiredBits sums |NS(i)| + |SAT(i)| over the document's nodes — the
// answer the kernel's per-node work should be proportional to. Each
// node is evaluated as if it were the root, so slot 0 ends up holding
// exactly that node's vectors; quadratic, for reporting only.
func (f *Forest) FiredBits(t *xmltree.Tree) (fired, docNodes int) {
	doc := &xmltree.Flat{}
	doc.Load(t, f.tbl)
	fr := &frameStack{}
	fr.fit(doc.MaxDepth, len(f.nodes))
	root := &fr.slots[0]
	for i := 0; i < doc.Len(); i++ {
		root.ns.reset()
		root.sat.reset()
		f.eval(doc, fr, int32(i), 0)
		for _, s := range []*frame{&root.ns, &root.sat} {
			for _, wi := range s.dirty {
				fired += bits.OnesCount64(s.words[wi])
			}
		}
	}
	return fired, doc.Len()
}
