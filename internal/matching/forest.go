// Package matching is the multi-subscription XML filtering layer: Forest
// matches each incoming document against a large set of tree-pattern
// subscriptions in one traversal. The broker's publish path and the
// overlay's per-link forwarding decisions run on it.
package matching

import (
	"math/bits"
	"slices"
	"sort"
	"strconv"
	"sync"

	"treesim/internal/bitset"
	"treesim/internal/intern"
	"treesim/internal/pattern"
	"treesim/internal/xmltree"
)

// Forest is a shared single-pass multi-pattern matching engine: every
// registered pattern is merged into one hash-consed forest (a DAG with
// common-subtree sharing, in the spirit of the XFilter/YFilter/XTrie
// engines the paper cites), and one bottom-up post-order traversal of a
// document decides ALL patterns simultaneously, with all scratch pooled
// — the steady-state match path allocates nothing.
//
// Cost model: per document node, O(fired words), not O(universe). The
// satisfaction vectors are sparse frames (word arrays that remember
// which words are non-zero), so clearing, uniting and scanning them
// visits only words in which some forest node fired at or below that
// document node, and leaf constraints are raised by id. Registered
// patterns a document fires no bit of cost it nothing, verdict included.
//
// Semantics are exactly pattern.Matches (the reference oracle, enforced
// by differential fuzzing). Patterns that fail pattern.Validate — only
// constructible by hand, never by pattern.Parse — are routed through
// the oracle per document instead of being compiled, so Add never
// rejects.
//
// For each document node t (children first), the traversal maintains
// two bitsets over forest nodes:
//
//	NS(t): v is "node-satisfied" at t — t's label is admissible for v
//	       and every child constraint of v holds relative to t.
//	SAT(t): v "holds relative to context t" — the paper's sat(t,v):
//	       for tag/"*" nodes, some child of t is node-satisfied; for
//	       "//" nodes, some descendant-or-self of t satisfies the
//	       operator's child constraint.
//
// Both are computed from the children's vectors with unions; leaf
// constraints are raised by id from the document node's label, and
// nodes with child constraints are found through an inverse index keyed
// by their lowest kid AND their label: when a kid's bit fires, only the
// candidates labelled like the document node (and the "*" ones) are
// visited, each carrying its remaining kids inline, so a label mismatch
// costs nothing and a one-kid candidate is accepted without loading its
// node. A pattern matches iff all its root children's bits are set in
// the root's vectors ("//" root children re-root and use a separate
// node kind, kindRootDesc).
//
// Concurrency: Match may run concurrently with Match (scratch is
// pooled per call); Add and Remove require external exclusion against
// both each other and Match — the callers (broker routing lock,
// overlay forwarding-index lock) already hold exactly that.
type Forest struct {
	tbl *intern.Table

	nodes   []forestNode
	freeIDs []uint32
	index   map[string]uint32 // canonical key -> node id (hash-consing)

	// Match-path indexes, maintained by compile/release. All are dense
	// slices — symbols and node ids are dense, and the match loop
	// consults these once per fired bit per document node, so a map
	// lookup (hash + probe) there costs more than the whole word-scan
	// around it. The masks are dense, read-only on the match path, and
	// share the node-id universe (grown under Add's exclusivity, never
	// from Match, which runs concurrently with itself):
	//
	//	leafTag[sym]: the kindTag node with that label and no kids (one
	//	              at most: they hash-cons to one key) — node-satisfied
	//	              by label alone; noNode when absent. Indexed by
	//	              interned symbol; a caller's Flat may carry symbols
	//	              interned after the slice last grew, so readers
	//	              bounds-check.
	//	wildLeaf:     the childless kindWild node — satisfied anywhere.
	//	byFirstKid:   tag/wild nodes with kids, indexed by their lowest
	//	              kid id; consulted only when that kid's bit fires.
	//	              Each list is sorted by label symbol, the "*" run
	//	              last (kidCand), so a document node reads only the
	//	              run for its own label plus the "*" run.
	//	byDescKid / byRdKid: kindDesc / kindRootDesc nodes by kid.
	//	slashMask:    "//" nodes of both kinds by own id — the bits a
	//	              document node inherits from its children's SAT.
	//	byRootKid:    pattern handles by their first root child's id;
	//	              a verdict is examined only when that bit fires at
	//	              the document root.
	leafTag      []uint32
	wildLeaf     uint32
	byFirstKid   [][]kidCand
	firstKidMask *bitset.Set
	byDescKid    [][]uint32
	descKidMask  *bitset.Set
	byRdKid      [][]uint32
	rdKidMask    *bitset.Set
	slashMask    *bitset.Set
	byRootKid    [][]uint32
	rootKidMask  *bitset.Set

	pats     []patEntry
	freePats []int
	// unindexed holds the handles byRootKid cannot: empty patterns
	// (nothing to fire) and oracle-path patterns. Decided per document.
	unindexed []uint32
	grownTo   int // universe size the masks were last grown to

	frames  sync.Pool // *frameStack
	msPool  sync.Pool // *MatchSet
	docPool sync.Pool // *xmltree.Flat
	keyBuf  []byte
}

// noNode marks an absent leafTag/wildLeaf entry.
const noNode = ^uint32(0)

// kidCand is one byFirstKid entry: a tag/"*" node whose lowest kid is
// the list's key, with everything eval needs to decide it inline — its
// label symbol (wildSym for "*") and its kids after the first (aliasing
// the node's own kid slice).
type kidCand struct {
	sym  uint32
	id   uint32
	rest []uint32
}

// wildSym is the label key of "*" candidates: above every interned
// symbol, so the "*" run sorts to the end of its list.
const wildSym = ^uint32(0)

// scanMax is the longest candidate list searched by linear scan rather
// than binary search: eight 32-byte entries are four cache lines read
// in order, which costs less than the three dependent, unpredictable
// probes a binary search of the same list makes.
const scanMax = 8

type nodeKind uint8

const (
	kindTag      nodeKind = iota // concrete tag: label match + child constraints
	kindWild                     // "*": any label + child constraints
	kindDesc                     // "//" as an inner constraint (sat semantics)
	kindRootDesc                 // "//" as a root child (re-rooting semantics)
)

// forestNode is one hash-consed pattern node. kids are forest ids of
// the child constraints, sorted ascending; desc kinds always have
// exactly one kid (pattern.Validate guarantees it for compiled
// patterns).
type forestNode struct {
	kind nodeKind
	sym  uint32 // interned tag for kindTag
	kids []uint32
	refs int32
	key  string
}

// patEntry is one registered pattern: its root children, or the oracle
// fallback for non-validating patterns. A root kid is its forest id
// shifted left once, the low bit saying whether it is a root "//"
// (decided by the document root's SAT) or not (by its NS).
type patEntry struct {
	live     bool
	isOracle bool
	rootKids []uint32
	oracle   *pattern.Pattern // may be nil even on the oracle path (nil pattern)
}

// holdsAt reports whether every root child's bit is set in the document
// root's vectors.
func (e *patEntry) holdsAt(root *frameSlot) bool {
	for _, k := range e.rootKids {
		bits := &root.ns
		if k&1 != 0 {
			bits = &root.sat
		}
		if !bits.has(k >> 1) {
			return false
		}
	}
	return true
}

// NewForest returns an empty forest with its own label table.
func NewForest() *Forest {
	return &Forest{
		tbl:          intern.NewTable(),
		index:        make(map[string]uint32),
		wildLeaf:     noNode,
		firstKidMask: bitset.New(0),
		descKidMask:  bitset.New(0),
		rdKidMask:    bitset.New(0),
		slashMask:    bitset.New(0),
		rootKidMask:  bitset.New(0),
		frames:       sync.Pool{New: func() any { return new(frameStack) }},
	}
}

// Add registers a pattern and returns its handle (dense, reused after
// Remove). The pattern is shared, not copied: it must not be mutated
// while registered.
func (f *Forest) Add(p *pattern.Pattern) int {
	var h int
	if n := len(f.freePats); n > 0 {
		h = f.freePats[n-1]
		f.freePats = f.freePats[:n-1]
	} else {
		f.pats = append(f.pats, patEntry{})
		h = len(f.pats) - 1
	}
	e := &f.pats[h]
	e.live = true
	if p == nil || p.Root == nil || p.Validate() != nil {
		e.isOracle = true
		e.oracle = p
		f.unindexed = append(f.unindexed, uint32(h))
		return h
	}
	e.rootKids = make([]uint32, len(p.Root.Children))
	for i, c := range p.Root.Children {
		e.rootKids[i] = f.compile(c, true) << 1
		if c.Label == pattern.Descendant {
			e.rootKids[i] |= 1
		}
	}
	if len(e.rootKids) == 0 {
		f.unindexed = append(f.unindexed, uint32(h))
	} else {
		addKidIndex(f.byRootKid, f.rootKidMask, e.rootKids[0]>>1, uint32(h))
	}
	return h
}

// Remove unregisters a handle, releasing its forest nodes. Removing a
// dead handle is a no-op.
func (f *Forest) Remove(h int) {
	if h < 0 || h >= len(f.pats) || !f.pats[h].live {
		return
	}
	e := &f.pats[h]
	if len(e.rootKids) == 0 {
		f.unindexed = removeU32(f.unindexed, uint32(h))
	} else {
		dropKidIndex(f.byRootKid, f.rootKidMask, e.rootKids[0]>>1, uint32(h))
	}
	for _, k := range e.rootKids {
		f.release(k >> 1)
	}
	*e = patEntry{}
	f.freePats = append(f.freePats, h)
}

// Live returns the number of registered patterns.
func (f *Forest) Live() int { return len(f.pats) - len(f.freePats) }

// NodeCount returns the number of live forest nodes — with sharing,
// typically well below the summed pattern sizes.
func (f *Forest) NodeCount() int { return len(f.nodes) - len(f.freeIDs) }

// compile hash-conses one pattern subtree into the forest, returning
// its node id with an incremented reference count. root selects the
// re-rooting semantics for "//" children of the pattern root.
func (f *Forest) compile(v *pattern.Node, root bool) uint32 {
	kind, sym := kindTag, uint32(0)
	switch v.Label {
	case pattern.Descendant:
		kind = kindDesc
		if root {
			kind = kindRootDesc
		}
	case pattern.Wildcard:
		kind = kindWild
	default:
		sym = f.tbl.ID(v.Label)
	}
	kids := make([]uint32, len(v.Children))
	for i, c := range v.Children {
		// Below the root every "//" uses sat semantics, including the
		// child of a root "//" (it becomes a plain root constraint).
		kids[i] = f.compile(c, false)
	}
	// Canonical key: kind, sym, sorted kid ids. Hash-consed children
	// make structurally equal subtrees share one id, so sorting the id
	// list canonicalizes the unordered child set.
	insertionSortU32(kids)
	b := f.keyBuf[:0]
	b = strconv.AppendUint(b, uint64(kind), 10)
	b = append(b, '.')
	b = strconv.AppendUint(b, uint64(sym), 10)
	for _, k := range kids {
		b = append(b, ',')
		b = strconv.AppendUint(b, uint64(k), 10)
	}
	f.keyBuf = b
	key := string(b)
	if id, ok := f.index[key]; ok {
		// Sharing an existing node: the fresh kid references are
		// already counted in it, so give them back.
		for _, k := range kids {
			f.release(k)
		}
		f.nodes[id].refs++
		return id
	}
	var id uint32
	if n := len(f.freeIDs); n > 0 {
		id = f.freeIDs[n-1]
		f.freeIDs = f.freeIDs[:n-1]
	} else {
		f.nodes = append(f.nodes, forestNode{})
		id = uint32(len(f.nodes) - 1)
	}
	f.nodes[id] = forestNode{kind: kind, sym: sym, kids: kids, refs: 1, key: key}
	f.index[key] = id
	f.growUniverse()
	f.register(id)
	return id
}

// growUniverse extends every mask to the current node-id universe.
// Only called under Add's exclusivity: Match runs concurrently with
// Match and must never observe a mask mid-grow. Freed-id reuse keeps
// the universe stable, so the common churn case returns immediately.
func (f *Forest) growUniverse() {
	n := len(f.nodes)
	if n == f.grownTo {
		return
	}
	f.grownTo = n
	f.firstKidMask.Grow(n)
	f.descKidMask.Grow(n)
	f.rdKidMask.Grow(n)
	f.slashMask.Grow(n)
	f.rootKidMask.Grow(n)
	for len(f.byFirstKid) < n {
		f.byFirstKid = append(f.byFirstKid, nil)
		f.byDescKid = append(f.byDescKid, nil)
		f.byRdKid = append(f.byRdKid, nil)
		f.byRootKid = append(f.byRootKid, nil)
	}
}

// register enters a fresh node into the match-path indexes.
func (f *Forest) register(id uint32) {
	n := &f.nodes[id]
	switch n.kind {
	case kindTag, kindWild:
		if len(n.kids) == 0 {
			if n.kind == kindWild {
				f.wildLeaf = id
				return
			}
			for len(f.leafTag) <= int(n.sym) {
				f.leafTag = append(f.leafTag, noNode)
			}
			f.leafTag[n.sym] = id
			return
		}
		f.addFirstKid(n, id)
	case kindDesc:
		f.slashMask.Add(int(id))
		addKidIndex(f.byDescKid, f.descKidMask, n.kids[0], id)
	case kindRootDesc:
		f.slashMask.Add(int(id))
		addKidIndex(f.byRdKid, f.rdKidMask, n.kids[0], id)
	}
}

// unregister removes a dying node from the match-path indexes.
func (f *Forest) unregister(id uint32) {
	n := &f.nodes[id]
	switch n.kind {
	case kindTag, kindWild:
		if len(n.kids) == 0 {
			if n.kind == kindWild {
				f.wildLeaf = noNode
			} else {
				f.leafTag[n.sym] = noNode
			}
			return
		}
		f.dropFirstKid(n.kids[0], id)
	case kindDesc:
		f.slashMask.Remove(int(id))
		dropKidIndex(f.byDescKid, f.descKidMask, n.kids[0], id)
	case kindRootDesc:
		f.slashMask.Remove(int(id))
		dropKidIndex(f.byRdKid, f.rdKidMask, n.kids[0], id)
	}
}

// addKidIndex/dropKidIndex maintain a dense inverse-kid index (entries
// — node ids, or pattern handles in byRootKid — indexed by kid node id;
// growUniverse has already sized the slice; the mask mirrors which
// entries are non-empty).
func addKidIndex(m [][]uint32, mask *bitset.Set, kid, id uint32) {
	m[kid] = append(m[kid], id)
	mask.Add(int(kid))
}

func dropKidIndex(m [][]uint32, mask *bitset.Set, kid, id uint32) {
	l := removeU32(m[kid], id)
	m[kid] = l
	if len(l) == 0 {
		mask.Remove(int(kid))
	}
}

// addFirstKid enters tag/"*" node n (id) into its lowest kid's
// candidate list, keeping the list sorted by label symbol.
func (f *Forest) addFirstKid(n *forestNode, id uint32) {
	c := kidCand{sym: n.sym, id: id, rest: n.kids[1:]}
	if n.kind == kindWild {
		c.sym = wildSym
	}
	kid := n.kids[0]
	l := f.byFirstKid[kid]
	at := sort.Search(len(l), func(i int) bool { return l[i].sym > c.sym })
	f.byFirstKid[kid] = slices.Insert(l, at, c)
	f.firstKidMask.Add(int(kid))
}

// dropFirstKid removes node id from kid's candidate list, preserving
// the order of the rest.
func (f *Forest) dropFirstKid(kid, id uint32) {
	l := f.byFirstKid[kid]
	i := slices.IndexFunc(l, func(c kidCand) bool { return c.id == id })
	l = slices.Delete(l, i, i+1)
	f.byFirstKid[kid] = l
	if len(l) == 0 {
		f.firstKidMask.Remove(int(kid))
	}
}

// release drops one reference to a node, freeing it (and its subtree
// references) when the count reaches zero.
func (f *Forest) release(id uint32) {
	n := &f.nodes[id]
	n.refs--
	if n.refs > 0 {
		return
	}
	delete(f.index, n.key)
	f.unregister(id)
	kids := n.kids
	*n = forestNode{}
	for _, k := range kids {
		f.release(k)
	}
	f.freeIDs = append(f.freeIDs, id)
}

// MatchSet is the result of one Forest.Match: a bit per pattern
// handle. Release returns it to the forest's pool; do not use it
// afterwards.
type MatchSet struct {
	f    *Forest
	bits *bitset.Set
}

// Has reports whether the pattern with the given handle matched.
func (m *MatchSet) Has(h int) bool { return h < m.bits.Len() && m.bits.Contains(h) }

// Count returns the number of matched patterns.
func (m *MatchSet) Count() int { return m.bits.Count() }

// Release recycles the set. The caller must not use m afterwards.
func (m *MatchSet) Release() { m.f.msPool.Put(m) }

// frame is one sparse satisfaction vector over the forest's node-id
// universe: a word array plus the list of its non-zero words. Bits are
// only added between resets, so "non-zero" and "listed in dirty"
// coincide, and reset, union and the masked scan visit dirty words
// only. touched counts the words those three visited — the kernel's
// unit of work, read by tests.
type frame struct {
	words   []uint64
	dirty   []int32
	touched int
}

// grow extends the frame to a universe of n ids, keeping its contents
// (a pooled frame may carry the previous match's bits until its next
// reset). dirty gets capacity for every word so add never allocates.
func (s *frame) grow(n int) {
	w := (n + 63) >> 6
	if w <= len(s.words) {
		return
	}
	s.words = append(s.words, make([]uint64, w-len(s.words))...)
	s.dirty = append(make([]int32, 0, w), s.dirty...)
}

func (s *frame) reset() {
	for _, wi := range s.dirty {
		s.words[wi] = 0
	}
	s.touched += len(s.dirty)
	s.dirty = s.dirty[:0]
}

func (s *frame) add(id uint32) {
	wi := id >> 6
	if s.words[wi] == 0 {
		s.dirty = append(s.dirty, int32(wi))
	}
	s.words[wi] |= 1 << (id & 63)
}

func (s *frame) has(id uint32) bool { return s.words[id>>6]&(1<<(id&63)) != 0 }

func (s *frame) unionWith(t *frame) {
	for _, wi := range t.dirty {
		if s.words[wi] == 0 {
			s.dirty = append(s.dirty, wi)
		}
		s.words[wi] |= t.words[wi]
	}
	s.touched += len(t.dirty)
}

// and iterates the members of s ∩ mask. The loop body may add to s
// (words it dirties are visited in turn) but must not add members that
// are themselves in mask — callers add "//" ids, which the kid masks
// never contain.
func (s *frame) and(mask *bitset.Set) func(yield func(uint32) bool) {
	return func(yield func(uint32) bool) {
		for i := 0; i < len(s.dirty); i++ {
			wi := s.dirty[i]
			for w := s.words[wi] & mask.Word(int(wi)); w != 0; w &= w - 1 {
				if !yield(uint32(wi)<<6 | uint32(bits.TrailingZeros64(w))) {
					return
				}
			}
		}
		s.touched += len(s.dirty)
	}
}

// frameStack is the pooled per-Match scratch: one slot per document
// depth, each holding the child accumulators (ns, sat) plus the
// node-satisfaction scratch vector for that depth.
type frameStack struct {
	slots []frameSlot
	// examined counts the first-kid candidates eval ran the remaining-
	// kids check on — like frame.touched, a unit of work read by tests.
	examined int
}

type frameSlot struct {
	ns, sat, nsOut frame
}

// fit sizes the stack for a document of the given depth over a
// universe of n forest ids.
func (fr *frameStack) fit(depth, n int) {
	for len(fr.slots) < depth+2 {
		fr.slots = append(fr.slots, frameSlot{})
	}
	for i := range fr.slots {
		s := &fr.slots[i]
		s.ns.grow(n)
		s.sat.grow(n)
		s.nsOut.grow(n)
	}
}

// Table returns the forest's label table, for loading a Flat to pass to
// MatchFlat.
func (f *Forest) Table() *intern.Table { return f.tbl }

// Match evaluates the document against every registered pattern in one
// post-order traversal and returns the set of matching handles.
func (f *Forest) Match(t *xmltree.Tree) *MatchSet {
	if t == nil || t.Root == nil {
		return f.MatchFlat(t, nil)
	}
	doc, _ := f.docPool.Get().(*xmltree.Flat)
	if doc == nil {
		doc = &xmltree.Flat{}
	}
	doc.Load(t, f.tbl)
	ms := f.MatchFlat(t, doc)
	f.docPool.Put(doc)
	return ms
}

// MatchFlat is Match over a document already loaded into a Flat arena
// with the forest's Table (the caller keeps the arena, e.g. to evaluate
// other patterns on it). t is the original tree, consulted only by the
// oracle fallback for non-compiled patterns. A nil or empty doc matches
// nothing.
func (f *Forest) MatchFlat(t *xmltree.Tree, doc *xmltree.Flat) *MatchSet {
	fr := f.frames.Get().(*frameStack)
	ms := f.matchFlat(t, doc, fr)
	f.frames.Put(fr)
	return ms
}

// matchFlat is MatchFlat on the caller's frame stack, which may hold
// any earlier match's leftovers: every frame is reset before it is
// read, and grow keeps stale dirty lists valid.
func (f *Forest) matchFlat(t *xmltree.Tree, doc *xmltree.Flat, fr *frameStack) *MatchSet {
	ms, _ := f.msPool.Get().(*MatchSet)
	if ms == nil {
		ms = &MatchSet{f: f, bits: bitset.New(0)}
	}
	ms.bits.Grow(len(f.pats))
	ms.bits.Reset()
	if doc == nil || doc.Len() == 0 {
		// The empty document matches nothing, including the empty
		// pattern (oracle semantics).
		return ms
	}

	fr.fit(doc.MaxDepth, len(f.nodes))
	root := &fr.slots[0]
	root.ns.reset()
	root.sat.reset()
	f.eval(doc, fr, 0, 0)

	// Verdicts, found like every other constraint: through the root
	// kids that fired at the document root.
	for _, h := range f.unindexed {
		if e := &f.pats[h]; !e.isOracle || oracleMatches(t, e.oracle) {
			ms.bits.Add(int(h))
		}
	}
	for _, v := range [...]*frame{&root.ns, &root.sat} {
		for k := range v.and(f.rootKidMask) {
			for _, h := range f.byRootKid[k] {
				if f.pats[h].holdsAt(root) {
					ms.bits.Add(int(h))
				}
			}
		}
	}
	return ms
}

// eval computes NS and SAT for document node i (at depth d) and ORs
// them into the parent's accumulators at fr.slots[d].
func (f *Forest) eval(doc *xmltree.Flat, fr *frameStack, i int32, d int) {
	up := &fr.slots[d]

	// NS(i), leaf constraints first: raised by id from the node's label.
	N := &up.nsOut
	N.reset()
	if f.wildLeaf != noNode {
		N.add(f.wildLeaf)
	}
	sym := doc.Syms[i]
	if sym != intern.NoSym && int(sym) < len(f.leafTag) {
		// The bounds check matters: the table may hold symbols no leaf
		// of this forest carries (interned for inner nodes).
		if id := f.leafTag[sym]; id != noNode {
			N.add(id)
		}
	}

	// A childless document node satisfies nothing else: every other
	// constraint needs some child's vector.
	if s, c := doc.ChildStart[i], doc.ChildCount[i]; c > 0 {
		child := &fr.slots[d+1]
		child.ns.reset()
		child.sat.reset()
		for k := s; k < s+c; k++ {
			f.eval(doc, fr, k, d+1)
		}

		// SAT(i), built in place over the children's NS union: a
		// tag/"*" node holds at context i iff some child is
		// node-satisfied. Then "//" nodes: v holds iff its child
		// constraint is satisfiable at some descendant-or-self — the
		// kid's bit here (self, via the inverse kid index) or v's own
		// bit at some child (descendants, via the children's SAT union;
		// root "//" bits ride along, they are nobody's kid). Only fired
		// bits are visited, and bits added mid-iteration are "//" ids,
		// which never occur in the kid masks.
		S := &child.ns
		for k := range S.and(f.descKidMask) {
			for _, v := range f.byDescKid[k] {
				S.add(v)
			}
		}
		for v := range child.sat.and(f.slashMask) {
			S.add(v)
		}

		// Constraints with kids are examined only when their lowest kid
		// fired, and of those only the ones this node's label admits. A
		// long list is first cut down to its run for sym and its "*"
		// run; the label test below then only filters short lists.
		for k := range S.and(f.firstKidMask) {
			cands := f.byFirstKid[k]
			var wild []kidCand
			if len(cands) > scanMax {
				cands, wild = labelRuns(cands, sym)
			}
			for {
				for j := range cands {
					c := &cands[j]
					if c.sym != sym && c.sym != wildSym {
						continue
					}
					fr.examined++
					if allIn(c.rest, S) {
						N.add(c.id)
					}
				}
				if len(wild) == 0 {
					break
				}
				cands, wild = wild, nil
			}
		}
		up.sat.unionWith(S)
	}

	// Root "//" re-roots at some descendant-or-self: node-satisfaction
	// of its kid here (or, above, the bit already raised below).
	for k := range N.and(f.rdKidMask) {
		for _, v := range f.byRdKid[k] {
			up.sat.add(v)
		}
	}
	up.ns.unionWith(N)
}

// oracleMatches evaluates an oracle-path (non-validating) pattern,
// mapping an oracle panic to no-match: pattern.Matches mirrors the
// paper's semantics and panics on shapes like a childless "//"
// operator, but a broker must not crash its publish path because a
// caller hand-built a malformed subscription.
func oracleMatches(t *xmltree.Tree, p *pattern.Pattern) (res bool) {
	defer func() {
		if recover() != nil {
			res = false
		}
	}()
	return pattern.Matches(t, p)
}

// labelRuns cuts a candidate list (sorted by symbol, "*" last) down to
// the run labelled sym and the "*" run. A document label no pattern
// uses is NoSym, below every candidate's symbol: an empty run.
func labelRuns(cands []kidCand, sym uint32) (tagged, wild []kidCand) {
	n := len(cands)
	for n > 0 && cands[n-1].sym == wildSym {
		n--
	}
	lo, hi := 0, n
	for lo < hi {
		if m := int(uint(lo+hi) >> 1); cands[m].sym < sym {
			lo = m + 1
		} else {
			hi = m
		}
	}
	for hi < n && cands[hi].sym == sym {
		hi++
	}
	return cands[lo:hi], cands[n:]
}

// allIn reports whether every listed child constraint is in S.
func allIn(kids []uint32, S *frame) bool {
	for _, k := range kids {
		if !S.has(k) {
			return false
		}
	}
	return true
}

func insertionSortU32(a []uint32) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

func removeU32(a []uint32, x uint32) []uint32 {
	for i, v := range a {
		if v == x {
			a[i] = a[len(a)-1]
			return a[:len(a)-1]
		}
	}
	return a
}
