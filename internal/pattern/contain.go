package pattern

// Containment and minimization of tree patterns.
//
// The paper (Section 1) discusses containment — p contains q, written
// q ⊑ p, iff every document matching q also matches p — as the
// inadequate-but-classical proximity relation that similarity metrics
// replace, and cites pattern minimization (Amer-Yahia et al., SIGMOD'01;
// Wood, WebDB'01) as the standard preprocessing for pattern queries.
// Both are useful to a content-based router (e.g. to collapse redundant
// subscriptions before clustering), so they are provided here.
//
// Contains implements the classical homomorphism test. For patterns
// combining descendants, wildcards and branching the test is sound but
// not complete (containment for XP{//,*,[]} is coNP-complete; the
// homomorphism characterization is exact for the fragments XP{//,[]}
// and XP{*,[]} — Miklau & Suciu, JACM'04). A true return value is
// always correct; a false may be a false negative only when "//", "*"
// and branching interact.

// edge is a pattern edge in axis form: the descendant operator nodes of
// the tree form are folded into edges labeled with their axis.
type edge struct {
	// desc is true for a descendant-axis edge (depth ≥ 1), false for a
	// child-axis edge (depth exactly 1).
	desc bool
	to   *axisNode
}

// axisNode is a pattern node in axis form: labels are tags or "*" only.
type axisNode struct {
	label string // tag or Wildcard; Root for the anchor node
	edges []edge
}

// toAxisForm converts the subtree rooted at n (a tree-form pattern node)
// into axis form. Descendant-operator nodes disappear into edge labels.
func toAxisForm(n *Node) *axisNode {
	out := &axisNode{label: n.Label}
	for _, c := range n.Children {
		if c.Label == Descendant {
			// The operator has exactly one child (Validate enforces it).
			out.edges = append(out.edges, edge{desc: true, to: toAxisForm(c.Children[0])})
		} else {
			out.edges = append(out.edges, edge{desc: false, to: toAxisForm(c)})
		}
	}
	return out
}

// Prepared is a pattern in axis form, built once: a caller testing one
// pattern against many (an advertisement cover tests every newcomer
// against every kept pattern) prepares each pattern a single time
// instead of having Contains rebuild both arguments per call. A
// Prepared is immutable and safe for concurrent use.
type Prepared struct {
	root *axisNode
	desc bool // some edge is a descendant edge
}

// Prepare converts p for repeated containment tests (nil for a nil or
// rootless pattern). p is only read.
func Prepare(p *Pattern) *Prepared {
	if p == nil || p.Root == nil {
		return nil
	}
	return &Prepared{root: toAxisForm(p.Root), desc: hasDescendant(p.Root)}
}

func hasDescendant(n *Node) bool {
	for _, c := range n.Children {
		if c.Label == Descendant || hasDescendant(c) {
			return true
		}
	}
	return false
}

// Contains reports whether p contains q (q ⊑ p): every document
// matching q also matches p. Sound; see the completeness caveat above.
func Contains(p, q *Pattern) bool {
	return Prepare(p).Contains(Prepare(q))
}

// Contains is the package-level Contains on prepared patterns.
func (p *Prepared) Contains(q *Prepared) bool {
	if p == nil || q == nil {
		return false
	}
	// The empty pattern contains everything, and every root constraint
	// of p must be witnessed at q's root.
	m := homMatcher{memoize: p.desc}
	for _, pe := range p.root.edges {
		if !m.edgeMaps(pe, q.root) {
			return false
		}
	}
	return true
}

// Equivalent reports whether p and q contain each other.
func Equivalent(p, q *Pattern) bool {
	return Contains(p, q) && Contains(q, p)
}

// homMatcher memoizes one containment test's hom results. Only a
// descendant edge of p can bring the same (u, v) pair up twice — along
// child edges each pair is reached from its parents' pair alone — so a
// p without one runs unmemoized, and the map is made on the first
// result worth keeping: the common quick refusal (labels differ near
// the root) allocates nothing.
type homMatcher struct {
	memoize bool
	memo    map[[2]*axisNode]bool
}

// hom reports whether the p-subtree rooted at u can be homomorphically
// mapped onto the q-subtree rooted at v: labels are compatible
// (whatever v matches, u accepts) and every edge of u maps to an
// appropriate edge/path of v.
func (m *homMatcher) hom(u, v *axisNode) bool {
	if !labelOK(u, v) {
		return false
	}
	if len(u.edges) == 0 {
		return true
	}
	key := [2]*axisNode{u, v}
	if r, ok := m.memo[key]; ok {
		return r
	}
	res := true
	for _, pe := range u.edges {
		if !m.edgeMaps(pe, v) {
			res = false
			break
		}
	}
	if m.memoize {
		if m.memo == nil {
			m.memo = make(map[[2]*axisNode]bool)
		}
		m.memo[key] = res
	}
	return res
}

// labelOK: any document node v matches also satisfies u's label test.
func labelOK(u, v *axisNode) bool {
	// A concrete tag u needs the same tag at v (a wildcard v matches
	// nodes of other tags too).
	return u.label == Wildcard || u.label == v.label
}

// edgeMaps reports whether p-edge pe, anchored at q-node v, is entailed
// by q's structure. Root and inner anchoring share the same edge
// semantics: p's root children constrain the document root itself, so a
// child-axis edge at the root maps onto q's root edges directly.
func (m *homMatcher) edgeMaps(pe edge, v *axisNode) bool {
	if !pe.desc {
		// Child axis: must be witnessed by a child-axis edge of v.
		for _, qe := range v.edges {
			if !qe.desc && m.hom(pe.to, qe.to) {
				return true
			}
		}
		return false
	}
	// Descendant axis (depth ≥ 1): witnessed by any non-empty q-path.
	return m.descendantMaps(pe.to, v)
}

// descendantMaps reports whether target can be mapped at some node
// strictly below v in q.
func (m *homMatcher) descendantMaps(target *axisNode, v *axisNode) bool {
	for _, qe := range v.edges {
		if m.hom(target, qe.to) {
			return true
		}
		if m.descendantMaps(target, qe.to) {
			return true
		}
	}
	return false
}

// subsumesConstraint reports whether constraint a, attached to some
// context node, is implied by constraint b attached to the same context
// node (b ⊑ a as single-child constraint subtrees): whenever b holds, a
// holds. Both a and b are tree-form children of the same parent.
func subsumesConstraint(a, b *Node) bool {
	m := homMatcher{memoize: true}
	anchor := &axisNode{label: Root}
	var ae, be edge
	if a.Label == Descendant {
		ae = edge{desc: true, to: toAxisForm(a.Children[0])}
	} else {
		ae = edge{desc: false, to: toAxisForm(a)}
	}
	if b.Label == Descendant {
		be = edge{desc: true, to: toAxisForm(b.Children[0])}
	} else {
		be = edge{desc: false, to: toAxisForm(b)}
	}
	anchor.edges = []edge{be}
	return m.edgeMaps(ae, anchor)
}

// Minimize returns an equivalent pattern with redundant branches
// removed: a child constraint implied by one of its siblings is dropped
// (Amer-Yahia et al., SIGMOD'01 — here using the sound homomorphism
// test, so minimization never removes a non-redundant branch). The
// input is not modified.
func (p *Pattern) Minimize() *Pattern {
	out := p.Clone()
	if out.Root != nil {
		minimizeNode(out.Root)
		// Dropping a branch can change subtree canonical keys, so a
		// canonical input's child order may no longer be sorted — the
		// minimized clone must re-canonicalize before String/Equal.
		out.canonical = false
	}
	return out
}

func minimizeNode(n *Node) {
	// Bottom-up: minimize children's subtrees first.
	for _, c := range n.Children {
		minimizeNode(c)
	}
	if len(n.Children) < 2 {
		return
	}
	// Drop any child implied by a kept sibling. Mutually-subsuming
	// (equivalent) children: keep the lexicographically smallest
	// canonical form for determinism.
	keep := make([]bool, len(n.Children))
	for i := range keep {
		keep[i] = true
	}
	keys := make([]string, len(n.Children))
	for i, c := range n.Children {
		keys[i] = (&Pattern{Root: &Node{Label: Root, Children: []*Node{cloneNode(c)}}}).Canonicalize().String()
	}
	for i, ci := range n.Children {
		if !keep[i] {
			continue
		}
		for j, cj := range n.Children {
			if i == j || !keep[j] || !keep[i] {
				continue
			}
			// ci is redundant if cj implies it.
			if subsumesConstraint(ci, cj) {
				if subsumesConstraint(cj, ci) {
					// Equivalent: drop the one with the larger key;
					// tie-break on index to guarantee progress.
					if keys[i] > keys[j] || (keys[i] == keys[j] && i > j) {
						keep[i] = false
					} else {
						keep[j] = false
					}
				} else {
					keep[i] = false
				}
			}
		}
	}
	var kept []*Node
	for i, c := range n.Children {
		if keep[i] {
			kept = append(kept, c)
		}
	}
	n.Children = kept
}
