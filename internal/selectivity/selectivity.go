// Package selectivity implements the paper's recursive selectivity
// algorithm (Section 4, Algorithms 1 and 2): SEL(v,u) parses a tree
// pattern against the document synopsis and returns the (approximate)
// matching set of documents satisfying the pattern; P(p) normalizes its
// cardinality by the root matching set.
//
// The algorithm is representation-agnostic: all set operations go
// through the matchset.Value algebra, so Counters (max/product), Sets
// and Hashes all evaluate through the same code path, exactly as the
// paper prescribes.
package selectivity

import (
	"sync"

	"treesim/internal/matchset"
	"treesim/internal/pattern"
	"treesim/internal/synopsis"
)

// Estimator evaluates tree-pattern selectivities over a synopsis.
// Evaluations are independent: any number of them may run concurrently
// (the per-query working state comes from an internal pool).
type Estimator struct {
	syn  *synopsis.Synopsis
	pool sync.Pool // *evaluator, reset per query
}

// New returns an estimator over the given synopsis. The synopsis may
// keep evolving; evaluations always reflect its current state.
func New(s *synopsis.Synopsis) *Estimator {
	return &Estimator{syn: s}
}

// Synopsis returns the underlying synopsis.
func (e *Estimator) Synopsis() *synopsis.Synopsis { return e.syn }

// Evaluate runs SEL over the synopsis root and the pattern root and
// returns the estimated matching set of documents satisfying p.
func (e *Estimator) Evaluate(p *pattern.Pattern) matchset.Value {
	ev, _ := e.pool.Get().(*evaluator)
	if ev == nil {
		ev = &evaluator{}
	}
	ev.reset(e.syn, p)
	res := ev.sel(e.syn.Root(), 0)
	ev.release()
	e.pool.Put(ev)
	return res
}

// Clamp01 clamps a probability estimate to [0, 1] — sampling noise in
// the numerator and denominator estimates can otherwise push a ratio
// slightly outside. Shared by every consumer of probability estimates
// (the overlay's advertised selectivity digests included).
func Clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// P estimates the selectivity of p: the probability that a document of
// the observed stream matches p (Algorithm 2), clamped to [0, 1].
func (e *Estimator) P(p *pattern.Pattern) float64 {
	den := e.syn.RootCard()
	if den == 0 {
		return 0
	}
	return Clamp01(e.Evaluate(p).Card() / den)
}

// PAnd estimates the conjunction probability P(p ∧ q) by evaluating the
// root-merged pattern (Section 4).
func (e *Estimator) PAnd(p, q *pattern.Pattern) float64 {
	return e.P(pattern.MergeRoots(p, q))
}

// EvaluateCard converts a matching-set value from Evaluate into the
// probability of Algorithm 2 (clamped to [0, 1]).
func (e *Estimator) EvaluateCard(v matchset.Value) float64 {
	den := e.syn.RootCard()
	if den == 0 {
		return 0
	}
	return Clamp01(v.Card() / den)
}

// Note on conjunctions: SEL over a root-merged pattern intersects the
// root-level constraint sets of both patterns, so
// SEL(p ∧ q) = SEL(p) ∩ SEL(q) holds exactly (for counters, the product
// algebra is likewise associative). Batch consumers exploit this: each
// pattern is evaluated once and pairwise conjunctions reduce to
// matching-set intersections — see core.SimilarityMatrix.

// POr estimates P(p ∨ q) by inclusion–exclusion, clamped to [0, 1].
func (e *Estimator) POr(p, q *pattern.Pattern) float64 {
	return Clamp01(e.P(p) + e.P(q) - e.PAnd(p, q))
}

// pnode is a pattern node prepared for evaluation: the node itself plus
// the evaluator-local indices of its children, so the hot recursion
// never consults a map to identify pattern nodes.
type pnode struct {
	n        *pattern.Node
	children []int
}

// evaluator carries the per-query working state. It is pooled by the
// Estimator: the flat memo table and the pattern index are reused
// across queries, so a warmed-up estimator evaluates without building
// maps. The memo is indexed [v.Slot()·stride + u-index] — slots are
// dense and recycled, so the table scales with the live synopsis, not
// with how many nodes ever existed; nil marks an uncomputed entry (SEL
// never returns a nil value). written lists the entries the running
// evaluation filled: a pattern touches a small part of the table, so
// release nils exactly those instead of clearing SlotBound × stride
// pointers per evaluation — and a pooled evaluator pins no values.
type evaluator struct {
	syn     *synopsis.Synopsis
	empty   matchset.Value
	pnodes  []pnode
	stride  int
	memo    []matchset.Value
	written []int
}

func (ev *evaluator) reset(syn *synopsis.Synopsis, p *pattern.Pattern) {
	ev.syn = syn
	ev.empty = syn.EmptyValue()
	ev.pnodes = ev.pnodes[:0]
	ev.number(p.Root)
	ev.stride = len(ev.pnodes)
	need := syn.SlotBound() * ev.stride
	if cap(ev.memo) < need {
		ev.memo = make([]matchset.Value, need)
	} else {
		ev.memo = ev.memo[:need] // all nil: release undid the previous evaluation
	}
}

// release returns the memo to all-nil and drops the synopsis reference.
func (ev *evaluator) release() {
	for _, idx := range ev.written {
		ev.memo[idx] = nil
	}
	ev.written = ev.written[:0]
	ev.syn, ev.empty = nil, nil
}

func (ev *evaluator) number(n *pattern.Node) int {
	i := len(ev.pnodes)
	ev.pnodes = append(ev.pnodes, pnode{n: n})
	var kids []int
	if len(n.Children) > 0 {
		kids = make([]int, 0, len(n.Children))
		for _, c := range n.Children {
			kids = append(kids, ev.number(c))
		}
	}
	ev.pnodes[i].children = kids
	return i
}

// sel is Algorithm 1. SEL(v,u) is the set of documents for which pattern
// node u is matched at synopsis node v with all of u's subtree
// constraints satisfied below v. Memoization on (v,u) pairs bounds the
// work by O(|HS|·|p|) even with descendant operators.
func (ev *evaluator) sel(v *synopsis.Node, ui int) matchset.Value {
	idx := v.Slot()*ev.stride + ui
	if r := ev.memo[idx]; r != nil {
		return r
	}
	res := ev.selCompute(v, ui)
	ev.memo[idx] = res
	ev.written = append(ev.written, idx)
	return res
}

func (ev *evaluator) selCompute(v *synopsis.Node, ui int) matchset.Value {
	u := ev.pnodes[ui].n
	// Line 1: label compatibility (label(v) ⪯ label(u)).
	if !pattern.LabelLeq(v.Label().Tag, u.Label) {
		return ev.empty
	}
	// Line 3: a pattern leaf is matched by v itself — all documents
	// containing v's path qualify.
	if u.IsLeaf() {
		return ev.syn.Full(v)
	}
	if u.Label != pattern.Descendant {
		// Line 6: a synopsis dead end (no children, no folded
		// structure) cannot satisfy u's child constraints.
		if v.IsLeaf() && v.Label().IsPlain() {
			return ev.empty
		}
		// Line 9: ⋂ over pattern children of (⋃ over synopsis children),
		// extended with folded-label contributions: if u' embeds in a
		// nested label of v, every document in S(v) (approximately)
		// satisfies u' below v.
		var res matchset.Value
		for _, ci := range ev.pnodes[ui].children {
			uni := ev.empty
			for _, v2 := range v.Children() {
				uni = uni.Union(ev.sel(v2, ci))
			}
			u2 := ev.pnodes[ci].n
			for _, nt := range v.Label().Nested {
				if ev.bsel(nt, u2) {
					uni = uni.Union(ev.syn.Full(v))
					break
				}
			}
			if res == nil {
				res = uni
			} else {
				res = res.Intersect(uni)
			}
			if res.IsZero() {
				return res
			}
		}
		return res
	}
	// Lines 11–14: descendant operator. S0 maps "//" to a path of length
	// zero (u's children matched at v itself); S≥1 pushes "//" down to
	// v's children and into folded labels.
	var s0 matchset.Value
	for _, ci := range ev.pnodes[ui].children {
		x := ev.sel(v, ci)
		if s0 == nil {
			s0 = x
		} else {
			s0 = s0.Intersect(x)
		}
	}
	if s0 == nil {
		s0 = ev.empty
	}
	s1 := ev.empty
	for _, v2 := range v.Children() {
		s1 = s1.Union(ev.sel(v2, ui))
	}
	for _, nt := range v.Label().Nested {
		if ev.bselDesc(nt, u) {
			s1 = s1.Union(ev.syn.Full(v))
			break
		}
	}
	return s0.Union(s1)
}

// bsel is the boolean analogue of sel over a folded label tree: it
// decides whether pattern node u can be matched at label-tree node nt.
// Folded structure carries no per-level matching sets (they were unioned
// into the folded node), so the answer is structural.
func (ev *evaluator) bsel(nt *synopsis.LabelTree, u *pattern.Node) bool {
	if u.Label == pattern.Descendant {
		return ev.bselDesc(nt, u)
	}
	if !pattern.LabelLeq(nt.Tag, u.Label) {
		return false
	}
	for _, u2 := range u.Children {
		// Each pattern child must be matched within some folded child of
		// nt; bselDesc's zero-length case already covers a "//" child
		// whose constraints bind directly at that folded child.
		ok := false
		for _, nt2 := range nt.Nested {
			if ev.bsel(nt2, u2) {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

// bselDesc decides whether a descendant operator u ("//") can map into
// the label tree rooted at nt: either its child constraints are matched
// at nt itself (zero length) or it descends into some nested child.
func (ev *evaluator) bselDesc(nt *synopsis.LabelTree, u *pattern.Node) bool {
	all := true
	for _, u2 := range u.Children {
		if !ev.bsel(nt, u2) {
			all = false
			break
		}
	}
	if all {
		return true
	}
	for _, nt2 := range nt.Nested {
		if ev.bselDesc(nt2, u) {
			return true
		}
	}
	return false
}
