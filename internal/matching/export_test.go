package matching

import (
	"math/bits"
	"slices"
	"testing"

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

// Examined is the number of first-kid candidates every match on this
// stack ran the remaining-kids check on.
func (fr *FrameStack) Examined() int { return fr.examined }

// CandidateWork recounts, from the nodes themselves rather than the
// index, what the first-kid loop owes for t: over every document node
// and every first kid fired there, the tag/"*" nodes with that lowest
// kid whose label the document node admits — split into those whose
// remaining kids all fired (accepted) and the rest (kidRejected) — and,
// for scale, the ones a label-blind scan would also have loaded
// (labelRejected).
func (f *Forest) CandidateWork(t *xmltree.Tree) (accepted, kidRejected, labelRejected int) {
	byKid := map[uint32][]uint32{}
	for id := range f.nodes {
		if n := &f.nodes[id]; n.refs > 0 && (n.kind == kindTag || n.kind == kindWild) && len(n.kids) > 0 {
			byKid[n.kids[0]] = append(byKid[n.kids[0]], uint32(id))
		}
	}
	doc := &xmltree.Flat{}
	doc.Load(t, f.tbl)
	fr := &frameStack{}
	fr.fit(doc.MaxDepth, len(f.nodes))
	root := &fr.slots[0]
	for i := 0; i < doc.Len(); i++ {
		root.ns.reset()
		root.sat.reset()
		f.eval(doc, fr, int32(i), 0)
		// As the root's accumulator, slot 0's sat is the S vector node i
		// was evaluated on, plus root-"//" ids — nobody's kid.
		for k, ids := range byKid {
			if !root.sat.has(k) {
				continue
			}
			for _, id := range ids {
				n := &f.nodes[id]
				switch {
				case n.kind == kindTag && n.sym != doc.Syms[i]:
					labelRejected++
				case allIn(n.kids[1:], &root.sat):
					accepted++
				default:
					kidRejected++
				}
			}
		}
	}
	return accepted, kidRejected, labelRejected
}

// checkIndex asserts the first-kid index's invariants: every tag/"*"
// node with kids is listed exactly once, under its lowest kid, with its
// own symbol (wildSym for "*") and remaining kids inline; each list is
// sorted by symbol, so the "*" run comes last; and the mask mirrors
// which lists are non-empty.
func checkIndex(tb testing.TB, f *Forest) {
	tb.Helper()
	listed := 0
	for kid, l := range f.byFirstKid {
		if (len(l) > 0) != f.firstKidMask.Contains(kid) {
			tb.Errorf("kid %d: %d candidates, mask says %v", kid, len(l), f.firstKidMask.Contains(kid))
		}
		for j, c := range l {
			listed++
			if j > 0 && l[j-1].sym > c.sym {
				tb.Errorf("kid %d: symbol %d before %d", kid, l[j-1].sym, c.sym)
			}
			n := &f.nodes[c.id]
			want := n.sym
			if n.kind == kindWild {
				want = wildSym
			}
			if n.refs <= 0 || (n.kind != kindTag && n.kind != kindWild) || len(n.kids) == 0 ||
				n.kids[0] != uint32(kid) || c.sym != want || !slices.Equal(c.rest, n.kids[1:]) {
				tb.Errorf("kid %d entry %+v does not describe node %d %+v", kid, c, c.id, *n)
			}
		}
	}
	nodes := 0
	for id := range f.nodes {
		if n := &f.nodes[id]; n.refs > 0 && (n.kind == kindTag || n.kind == kindWild) && len(n.kids) > 0 {
			nodes++
		}
	}
	if listed != nodes {
		tb.Errorf("%d index entries for %d tag/* nodes with kids", listed, nodes)
	}
}
