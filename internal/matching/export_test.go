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

// Lists is the number of first-kid runs every match on this stack
// read.
func (fr *FrameStack) Lists() int { return fr.lists }

// CandidateWork recounts, from the nodes themselves rather than the
// index, what the first-kid loop owes for t: over every document node
// and every first kid fired there, the tag/"*" nodes with that lowest
// kid whose label the document node admits — split into those whose
// remaining kids all fired (accepted) and the rest (kidRejected) — and,
// for scale, the ones a label-blind scan would also have loaded
// (labelRejected). lists counts the runs — one per fired kid and label
// index — holding an admissible candidate: the runs the loop must read.
func (f *Forest) CandidateWork(t *xmltree.Tree) (accepted, kidRejected, labelRejected, lists int) {
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
			var admitted [2]bool // by kind: a tag run, a "*" run
			for _, id := range ids {
				n := &f.nodes[id]
				switch {
				case n.kind == kindTag && n.sym != doc.Sym(int32(i)):
					labelRejected++
					continue
				case allIn(n.kids[1:], &root.sat):
					accepted++
				default:
					kidRejected++
				}
				admitted[n.kind] = true
			}
			for _, a := range admitted {
				if a {
					lists++
				}
			}
		}
	}
	return accepted, kidRejected, labelRejected, lists
}

// checkIndex asserts the kid indexes' invariants: every node with kids
// is listed exactly once, in its label's index (wildKids for "*",
// descKids and rdKids for "//") under its lowest kid, with its
// remaining kids inline; in every index a kid is marked exactly when
// its run is non-empty, the runs tile the candidates in kid order, and
// base counts the marks below each word; and while no node was created
// or freed since the last batch install, ids are dense and in (kind,
// label) order.
func checkIndex(tb testing.TB, f *Forest) {
	tb.Helper()
	listed := 0
	check := func(kind nodeKind, sym uint32, x *kidIndex) {
		kids := x.kids.Elements()
		if len(x.off) != len(kids)+1 || x.off[0] != 0 || int(x.off[len(kids)]) != len(x.cands) {
			tb.Errorf("label %d: %d marked kids, %d offsets, %d candidates", sym, len(kids), len(x.off), len(x.cands))
			return
		}
		marked := uint32(0)
		for w := range x.base {
			if x.base[w] != marked {
				tb.Errorf("label %d: base[%d] = %d, %d kids marked below", sym, w, x.base[w], marked)
			}
			marked += uint32(bits.OnesCount64(x.kids.Word(w)))
		}
		for r, k := range kids {
			if x.rank(uint32(k)) != r || x.off[r] >= x.off[r+1] {
				tb.Errorf("label %d kid %d: rank %d (want %d), run %d..%d", sym, k, x.rank(uint32(k)), r, x.off[r], x.off[r+1])
				continue
			}
			for _, c := range x.run(uint32(k)) {
				listed++
				n := &f.nodes[c.id]
				if n.refs <= 0 || n.kind != kind || (kind == kindTag && n.sym != sym) || len(n.kids) == 0 ||
					n.kids[0] != uint32(k) || !slices.Equal(c.rest, n.kids[1:]) {
					tb.Errorf("label %d kid %d entry %+v does not describe node %d %+v", sym, k, c, c.id, *n)
				}
			}
		}
	}
	check(kindWild, 0, f.wildKids)
	check(kindDesc, 0, f.descKids)
	check(kindRootDesc, 0, f.rdKids)
	for sym, x := range f.tagKids {
		if x != nil {
			check(kindTag, uint32(sym), x)
		}
	}
	nodes := 0
	for id := range f.nodes {
		if n := &f.nodes[id]; n.refs > 0 && len(n.kids) > 0 {
			nodes++
		}
	}
	if listed != nodes {
		tb.Errorf("%d index entries for %d nodes with kids", listed, nodes)
	}
	if !f.ordered {
		return
	}
	if len(f.freeIDs) != 0 {
		tb.Errorf("ordered forest has %d free ids", len(f.freeIDs))
	}
	for id := range f.nodes {
		n := &f.nodes[id]
		if n.refs <= 0 {
			tb.Errorf("ordered forest: id %d is dead", id)
		}
		if id > 0 {
			p := &f.nodes[id-1]
			if p.kind > n.kind || p.kind == n.kind && p.sym > n.sym {
				tb.Errorf("ordered forest: id %d (kind %d, label %d) follows (kind %d, label %d)", id, n.kind, n.sym, p.kind, p.sym)
			}
		}
	}
}
