package pattern

import (
	"sync"

	"treesim/internal/xmltree"
)

// Matches reports whether XML tree T satisfies pattern p (T |= p) under
// the exact semantics of Section 2.
//
// The root node "/." is treated specially: a root child labeled with a
// tag constrains the label of the document root itself; a root child
// "//" re-roots its subtree at some descendant-or-self of the document
// root. Below the root, a pattern node v constrains a context node t:
// a tag or "*" child requires a matching child of t, and "//" requires a
// matching descendant-or-self of t.
//
// Matching is memoized on (document node, pattern node) pairs, giving
// O(|T|·|p|) time per call. The memo is a pooled flat byte slice
// indexed by document-node ordinal × pattern-node ordinal (both
// assigned by a BFS flattening), so the steady state allocates nothing
// — this is the cold-path matcher; the hot multi-pattern paths go
// through the shared forest engine in internal/matching, which uses
// this function as its reference oracle.
func Matches(t *xmltree.Tree, p *Pattern) bool {
	if p == nil || p.Root == nil {
		return false
	}
	if len(p.Root.Children) == 0 {
		// The empty pattern imposes no constraints: every non-empty
		// document satisfies it.
		return t != nil && t.Root != nil
	}
	if t == nil || t.Root == nil {
		return false
	}
	fm := matcherPool.Get().(*FlatMatcher)
	fm.Load(t)
	res := fm.Matches(p)
	matcherPool.Put(fm)
	return res
}

var matcherPool = sync.Pool{New: func() any { return new(FlatMatcher) }}

// FlatMatcher matches many patterns against one document, flattening
// the document only once (Matches flattens per call). Callers that
// evaluate several patterns per document — the broker's member
// verdicts — Load the document and then test each pattern. The
// zero value is ready; a FlatMatcher is not safe for concurrent use
// and its arenas are reused across Load calls.
type FlatMatcher struct {
	m   matcher
	own xmltree.Flat
}

// Load flattens the document the subsequent Matches calls run against.
func (fm *FlatMatcher) Load(t *xmltree.Tree) {
	fm.own.Load(t, nil)
	fm.m.doc = &fm.own
}

// LoadFlat is Load for a document the caller has already flattened
// (with any table, or none: only labels and child ranges are read). The
// arena is shared, not copied — several matchers may read one — and
// must stay as it is until the last Matches against it.
func (fm *FlatMatcher) LoadFlat(doc *xmltree.Flat) { fm.m.doc = doc }

// Matches reports whether the loaded document satisfies p, with the
// exact Matches semantics.
func (fm *FlatMatcher) Matches(p *Pattern) bool {
	if p == nil || p.Root == nil {
		return false
	}
	m := &fm.m
	nonEmpty := m.doc != nil && m.doc.Len() > 0
	if len(p.Root.Children) == 0 || !nonEmpty {
		return nonEmpty
	}
	m.loadPattern(p)
	m.resetMemo(m.doc.Len())
	// The pattern root is arena node 0; its children are the root
	// constraints. rootConstraint is not memoized: it is evaluated at
	// most once per (descendant, root-child) pair and delegates to sat
	// immediately.
	for vi := m.pstart[0]; vi < m.pstart[0]+m.pcount[0]; vi++ {
		if !m.rootConstraint(0, vi) {
			return false
		}
	}
	return true
}

// matcher evaluates one (document, pattern) pair over flat BFS arenas:
// integer indices instead of pointers, and a flat slice memo instead of
// a map.
type matcher struct {
	doc *xmltree.Flat

	// Pattern arena (BFS, node 0 = "/." root): labels and child ranges.
	plabels        []string
	pstart, pcount []int32
	pnodes         []*Node
	np             int

	// memo caches sat(t, v) at index t*np+v: 0 unknown, 1 false, 2 true.
	memo []uint8
}

func (m *matcher) loadPattern(p *Pattern) {
	m.plabels = m.plabels[:0]
	m.pstart = m.pstart[:0]
	m.pcount = m.pcount[:0]
	nodes := m.pnodes[:0]
	nodes = append(nodes, p.Root)
	for i := 0; i < len(nodes); i++ {
		n := nodes[i]
		m.plabels = append(m.plabels, n.Label)
		m.pstart = append(m.pstart, int32(len(nodes)))
		m.pcount = append(m.pcount, int32(len(n.Children)))
		nodes = append(nodes, n.Children...)
	}
	for i := range nodes {
		nodes[i] = nil
	}
	m.pnodes = nodes[:0]
	m.np = len(m.plabels)
}

func (m *matcher) resetMemo(nt int) {
	n := nt * m.np
	if cap(m.memo) < n {
		m.memo = make([]uint8, n)
		return
	}
	m.memo = m.memo[:n]
	clear(m.memo)
}

// rootConstraint evaluates a child v of the pattern root against a
// candidate document root t, per the T |= p definition.
func (m *matcher) rootConstraint(ti, vi int32) bool {
	switch m.plabels[vi] {
	case Descendant:
		// tr has a descendant t' (possibly tr) such that the subtree
		// rooted at t' satisfies Subtree(v,p) re-rooted at "/.": the
		// operator's single child becomes a root constraint on t'.
		if m.pcount[vi] == 0 {
			panic("pattern: descendant operator without child")
		}
		return m.rootDesc(ti, m.pstart[vi])
	case Wildcard:
		return m.allKidsSat(ti, vi)
	default: // tag
		if m.doc.Label(ti) != m.plabels[vi] {
			return false
		}
		return m.allKidsSat(ti, vi)
	}
}

// rootDesc reports whether some descendant-or-self of document node ti
// satisfies root constraint vi.
func (m *matcher) rootDesc(ti, vi int32) bool {
	if m.rootConstraint(ti, vi) {
		return true
	}
	s, c := m.doc.ChildStart[ti], m.doc.ChildCount[ti]
	for k := s; k < s+c; k++ {
		if m.rootDesc(k, vi) {
			return true
		}
	}
	return false
}

// sat evaluates (T, t) |= Subtree(v, p): constraint v holds relative to
// context node t.
func (m *matcher) sat(ti, vi int32) bool {
	idx := int(ti)*m.np + int(vi)
	if v := m.memo[idx]; v != 0 {
		return v == 2
	}
	var res bool
	switch m.plabels[vi] {
	case Descendant:
		res = m.descSat(ti, vi)
	case Wildcard:
		s, c := m.doc.ChildStart[ti], m.doc.ChildCount[ti]
		for k := s; k < s+c; k++ {
			if m.allKidsSat(k, vi) {
				res = true
				break
			}
		}
	default: // tag
		s, c := m.doc.ChildStart[ti], m.doc.ChildCount[ti]
		for k := s; k < s+c; k++ {
			if m.doc.Label(k) == m.plabels[vi] && m.allKidsSat(k, vi) {
				res = true
				break
			}
		}
	}
	if res {
		m.memo[idx] = 2
	} else {
		m.memo[idx] = 1
	}
	return res
}

// descSat reports whether some descendant-or-self of ti satisfies every
// child constraint of descendant-operator node vi.
func (m *matcher) descSat(ti, vi int32) bool {
	if m.allKidsSat(ti, vi) {
		return true
	}
	s, c := m.doc.ChildStart[ti], m.doc.ChildCount[ti]
	for k := s; k < s+c; k++ {
		if m.descSat(k, vi) {
			return true
		}
	}
	return false
}

// allKidsSat reports whether document node ti satisfies every child
// constraint of pattern node vi.
func (m *matcher) allKidsSat(ti, vi int32) bool {
	s, c := m.pstart[vi], m.pcount[vi]
	for k := s; k < s+c; k++ {
		if !m.sat(ti, k) {
			return false
		}
	}
	return true
}

// MatchesSkeleton reports whether the skeleton of T satisfies p. The
// document synopsis observes skeleton trees, so this is the semantics the
// estimator approximates; it can differ from Matches on documents where
// same-tag siblings hold disjoint content (skeleton matching
// over-approximates: Matches(T,p) implies MatchesSkeleton(T,p)).
func MatchesSkeleton(t *xmltree.Tree, p *Pattern) bool {
	return Matches(xmltree.Skeleton(t), p)
}
