package matching

import (
	"encoding/binary"
	"math/bits"
	"slices"
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
// by their label AND their lowest kid: a document node visits only the
// fired kids with a candidate of its own label or "*", and reads only
// those candidates, each carrying its remaining kids inline. A pattern
// matches iff all its root children's bits are set in the root's
// vectors ("//" root children re-root and use a separate node kind,
// kindRootDesc).
//
// Id order: Replace, the batch install, renumbers the live nodes
// densely in (kind, label) order, so the bits one document label fires
// share frame words. Add and Remove between installs take and free ids
// where they find them; the next batch install restores the order.
//
// Concurrency: Match may run concurrently with Match (scratch is
// pooled per call); Add, Remove and Replace require external exclusion
// against each other and Match — the callers (broker routing lock,
// overlay forwarding-index lock) already hold exactly that.
type Forest struct {
	tbl *intern.Table

	nodes   []forestNode
	freeIDs []uint32
	index   map[string]uint32 // canonical key -> node id (hash-consing)
	// ordered: no node was created or freed since ids were last
	// renumbered, so they still run densely in (kind, label) order.
	ordered bool

	// Match-path indexes, maintained by compile/release. All are dense
	// slices — symbols and node ids are dense, and the match loop
	// consults these once per fired bit per document node, so a map
	// lookup (hash + probe) there costs more than the whole word-scan
	// around it. The masks are dense, read-only on the match path, and
	// share the node-id universe (grown under Add's exclusivity, never
	// from Match, which runs concurrently with itself; grown by quarters):
	//
	//	leafTag[sym]: the kindTag node with that label and no kids (one
	//	              at most: they hash-cons to one key) — node-satisfied
	//	              by label alone; noNode when absent. Indexed by
	//	              interned symbol; a caller's Flat may carry symbols
	//	              interned after the slice last grew, so readers
	//	              bounds-check.
	//	wildLeaf:     the childless kindWild node — satisfied anywhere.
	//	tagKids[sym]: tag nodes with that label and kids, by lowest kid
	//	              (kidIndex); nil for labels no such node carries.
	//	wildKids:     the same for "*" nodes with kids. A document node
	//	              reads only these two: its own label's and "*"'s.
	//	descKids / rdKids: kindDesc / kindRootDesc nodes by kid.
	//	slashMask:    "//" nodes of both kinds by own id — the bits a
	//	              document node inherits from its children's SAT.
	//	byRootKid:    pattern handles by their first root child's id;
	//	              a verdict is examined only when that bit fires at
	//	              the document root.
	leafTag     []uint32
	wildLeaf    uint32
	tagKids     []*kidIndex
	wildKids    *kidIndex
	descKids    *kidIndex
	rdKids      *kidIndex
	slashMask   *bitset.Set
	byRootKid   [][]uint32
	rootKidMask *bitset.Set

	pats     []patEntry
	freePats []int
	// unindexed holds the handles byRootKid cannot: empty patterns
	// (nothing to fire) and oracle-path patterns. Decided per document.
	unindexed []uint32
	grownTo   int // universe size the masks are grown to, ≥ len(nodes)

	frames  sync.Pool // *frameStack
	msPool  sync.Pool // *MatchSet
	docPool sync.Pool // *xmltree.Flat
	keyBuf  []byte
}

// noNode marks an absent leafTag/wildLeaf entry.
const noNode = ^uint32(0)

// kidIndex holds one label's nodes with kids (or "*"'s, or one "//"
// kind's) by lowest kid. kids marks the lowest kids; their runs lie in
// cands in kid order, run r being cands[off[r]:off[r+1]], and base[w]
// counts the marks below word w, so a marked kid's run is a popcount
// away, in memory the label's candidates share.
type kidIndex struct {
	kids  *bitset.Set
	base  []uint32
	off   []uint32
	cands []kidCand
}

// kidCand is one candidate: a node id with its kids after the first
// (aliasing the node's own kid slice), so eval decides it inline.
type kidCand struct {
	id   uint32
	rest []uint32
}

func newKidIndex(n int) *kidIndex {
	x := &kidIndex{kids: bitset.New(0), off: []uint32{0}}
	x.grow(n)
	return x
}

// grow extends the index to a universe of n ids.
func (x *kidIndex) grow(n int) {
	x.kids.Grow(n)
	for len(x.base) < (n+63)>>6 {
		x.base = append(x.base, uint32(len(x.off)-1))
	}
}

// rank is the number of marked kids below kid.
func (x *kidIndex) rank(kid uint32) int {
	w := kid >> 6
	return int(x.base[w]) + bits.OnesCount64(x.kids.Word(int(w))&(1<<(kid&63)-1))
}

// run returns the candidates of a marked kid.
func (x *kidIndex) run(kid uint32) []kidCand {
	r := x.rank(kid)
	return x.cands[x.off[r]:x.off[r+1]]
}

// add enters c under kid in O(candidates + words).
func (x *kidIndex) add(kid uint32, c kidCand) {
	r := x.rank(kid)
	if !x.kids.Contains(int(kid)) {
		x.kids.Add(int(kid))
		x.off = slices.Insert(x.off, r, x.off[r])
		x.rebase()
	}
	x.cands = slices.Insert(x.cands, int(x.off[r+1]), c)
	for i := r + 1; i < len(x.off); i++ {
		x.off[i]++
	}
}

// drop removes node id from kid's run, unmarking kid if it empties.
func (x *kidIndex) drop(kid, id uint32) {
	r := x.rank(kid)
	lo, hi := int(x.off[r]), int(x.off[r+1])
	j := lo + slices.IndexFunc(x.cands[lo:hi], func(c kidCand) bool { return c.id == id })
	x.cands = slices.Delete(x.cands, j, j+1)
	for i := r + 1; i < len(x.off); i++ {
		x.off[i]--
	}
	if hi-lo == 1 {
		x.kids.Remove(int(kid))
		x.off = slices.Delete(x.off, r, r+1)
		x.rebase()
	}
}

// push appends c under kid, at or past every marked kid, leaving base
// to rebase: renumber's bulk build.
func (x *kidIndex) push(kid uint32, c kidCand) {
	if !x.kids.Contains(int(kid)) {
		x.kids.Add(int(kid))
		x.off = append(x.off, x.off[len(x.off)-1])
	}
	x.cands = append(x.cands, c)
	x.off[len(x.off)-1]++
}

// rebase recounts base from the marks.
func (x *kidIndex) rebase() {
	below := uint32(0)
	for w := range x.base {
		x.base[w] = below
		below += uint32(bits.OnesCount64(x.kids.Word(w)))
	}
}

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
func NewForest() *Forest { return NewForestOver(intern.NewTable()) }

// NewForestOver is NewForest interning its labels into tbl, which other
// forests may share: a document resolved against it serves them all.
func NewForestOver(tbl *intern.Table) *Forest {
	return &Forest{
		tbl:         tbl,
		index:       make(map[string]uint32),
		ordered:     true,
		wildLeaf:    noNode,
		wildKids:    newKidIndex(0),
		descKids:    newKidIndex(0),
		rdKids:      newKidIndex(0),
		slashMask:   bitset.New(0),
		rootKidMask: bitset.New(0),
		frames:      sync.Pool{New: func() any { return new(frameStack) }},
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

// Replace is the batch install: it adds add (returning its handles in
// order), then removes drop, so a pattern in both keeps its nodes, then
// renumbers the live nodes densely in (kind, label) order in O(nodes)
// if any node was created or freed since the last time.
func (f *Forest) Replace(drop []int, add []*pattern.Pattern) []int {
	hs := make([]int, len(add))
	for i, p := range add {
		hs[i] = f.Add(p)
	}
	for _, h := range drop {
		f.Remove(h)
	}
	f.renumber()
	return hs
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
	insertionSortU32(kids)
	key := f.key(kind, sym, kids)
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
	f.ordered = false
	f.growUniverse()
	f.register(id)
	return id
}

// key is a node's canonical hash-consing key: kind, sym and sorted kid
// ids, four bytes each. Hash-consed children make structurally equal
// subtrees share one id, so sorting the id list canonicalizes the
// unordered child set.
func (f *Forest) key(kind nodeKind, sym uint32, kids []uint32) string {
	b := append(f.keyBuf[:0], byte(kind))
	b = binary.LittleEndian.AppendUint32(b, sym)
	for _, k := range kids {
		b = binary.LittleEndian.AppendUint32(b, k)
	}
	f.keyBuf = b
	return string(b)
}

// growUniverse extends every mask and index to cover the node-id
// universe, by a quarter more when it runs out. Only called under Add's
// exclusivity: Match runs concurrently with Match and must never
// observe a mask mid-grow.
func (f *Forest) growUniverse() {
	if len(f.nodes) <= f.grownTo {
		return
	}
	n := max(len(f.nodes), f.grownTo+f.grownTo/4, 64)
	f.grownTo = n
	f.slashMask.Grow(n)
	f.rootKidMask.Grow(n)
	for _, x := range f.kidIndexes() {
		x.grow(n)
	}
	f.byRootKid = append(f.byRootKid, make([][]uint32, n-len(f.byRootKid))...)
}

// kidIndexes lists the kid indexes made so far.
func (f *Forest) kidIndexes() []*kidIndex {
	xs := []*kidIndex{f.wildKids, f.descKids, f.rdKids}
	for _, x := range f.tagKids {
		if x != nil {
			xs = append(xs, x)
		}
	}
	return xs
}

// kidIndex returns the kid index of node n, made on first use.
func (f *Forest) kidIndex(n *forestNode) *kidIndex {
	switch n.kind {
	case kindWild:
		return f.wildKids
	case kindDesc:
		return f.descKids
	case kindRootDesc:
		return f.rdKids
	}
	if int(n.sym) >= len(f.tagKids) {
		f.tagKids = append(f.tagKids, make([]*kidIndex, int(n.sym)+1-len(f.tagKids))...)
	}
	if f.tagKids[n.sym] == nil {
		f.tagKids[n.sym] = newKidIndex(f.grownTo)
	}
	return f.tagKids[n.sym]
}

// renumber gives the live nodes dense ids in (kind, label) order, ties
// in their old order, and rebuilds the hash-consing keys, every
// match-path index and the patterns' root kids from them.
func (f *Forest) renumber() {
	if f.ordered {
		return
	}
	f.ordered = true
	// Sort keys: (kind, label) slot, then id — tag labels first, then
	// the other kinds, each above every symbol.
	var order []uint64
	syms := uint64(f.tbl.Len()) // once: another forest may share the table
	for id := range f.nodes {
		if n := &f.nodes[id]; n.refs > 0 {
			slot := uint64(n.sym)
			if n.kind != kindTag {
				slot = syms + uint64(n.kind)
			}
			order = append(order, slot<<32|uint64(id))
		}
	}
	slices.Sort(order)
	to := make([]uint32, len(f.nodes))
	for i, k := range order {
		to[uint32(k)] = uint32(i)
	}
	nodes := make([]forestNode, len(order))
	clear(f.index)
	for i, k := range order {
		n := f.nodes[uint32(k)]
		for j, kid := range n.kids {
			n.kids[j] = to[kid]
		}
		insertionSortU32(n.kids)
		n.key = f.key(n.kind, n.sym, n.kids)
		f.index[n.key] = uint32(i)
		nodes[i] = n
	}
	f.nodes, f.freeIDs = nodes, f.freeIDs[:0]

	for i := range f.leafTag {
		f.leafTag[i] = noNode
	}
	f.wildLeaf = noNode
	for i := range f.byRootKid {
		f.byRootKid[i] = f.byRootKid[i][:0]
	}
	f.slashMask.Reset()
	f.rootKidMask.Reset()
	for _, x := range f.kidIndexes() {
		x.kids.Reset()
		x.off, x.cands = x.off[:1], x.cands[:0]
	}
	// Nodes with kids go into their kid indexes by lowest kid, each past
	// every kid already marked there.
	order = order[:0]
	for id := range f.nodes {
		if n := &f.nodes[id]; len(n.kids) > 0 {
			order = append(order, uint64(n.kids[0])<<32|uint64(id))
		} else {
			f.register(uint32(id))
		}
	}
	slices.Sort(order)
	for _, k := range order {
		n := &f.nodes[uint32(k)]
		f.kidIndex(n).push(n.kids[0], kidCand{id: uint32(k), rest: n.kids[1:]})
		if n.kind >= kindDesc {
			f.slashMask.Add(int(uint32(k)))
		}
	}
	for _, x := range f.kidIndexes() {
		x.rebase()
	}
	for h := range f.pats {
		e := &f.pats[h]
		for j, k := range e.rootKids {
			e.rootKids[j] = to[k>>1]<<1 | k&1
		}
		if len(e.rootKids) > 0 {
			addKidIndex(f.byRootKid, f.rootKidMask, e.rootKids[0]>>1, uint32(h))
		}
	}
}

// register enters a fresh node into the match-path indexes.
func (f *Forest) register(id uint32) {
	n := &f.nodes[id]
	switch {
	case len(n.kids) > 0:
		f.kidIndex(n).add(n.kids[0], kidCand{id: id, rest: n.kids[1:]})
		if n.kind >= kindDesc {
			f.slashMask.Add(int(id))
		}
	case n.kind == kindWild:
		f.wildLeaf = id
	default:
		for len(f.leafTag) <= int(n.sym) {
			f.leafTag = append(f.leafTag, noNode)
		}
		f.leafTag[n.sym] = id
	}
}

// unregister removes a dying node from the match-path indexes.
func (f *Forest) unregister(id uint32) {
	n := &f.nodes[id]
	switch {
	case len(n.kids) > 0:
		f.kidIndex(n).drop(n.kids[0], id)
		f.slashMask.Remove(int(id))
	case n.kind == kindWild:
		f.wildLeaf = noNode
	default:
		f.leafTag[n.sym] = noNode
	}
}

// addKidIndex/dropKidIndex maintain byRootKid, pattern handles indexed
// by root kid id (growUniverse has already sized the slice; the mask
// mirrors which entries are non-empty).
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
	f.ordered = false
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
	// kids check on, lists the first-kid runs it read — like
	// frame.touched, units of work read by tests.
	examined, lists int
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
// other patterns on it). t is the document as a tree, or nil for an
// arena filled by LoadPacked: only the oracle fallback for non-compiled
// patterns reads it, and when it must, it unpacks the arena's bytes. A
// nil or empty doc matches nothing.
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
		e := &f.pats[h]
		if e.isOracle && t == nil {
			t, _ = xmltree.Unpack(doc.Packed())
		}
		if !e.isOracle || oracleMatches(t, e.oracle) {
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
	sym := doc.Sym(i)
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
		for k := range S.and(f.descKids.kids) {
			for _, c := range f.descKids.run(k) {
				S.add(c.id)
			}
		}
		for v := range child.sat.and(f.slashMask) {
			S.add(v)
		}

		// Constraints with kids are examined only when their lowest kid
		// fired, in the two indexes this node's label admits: its own
		// and "*"'s.
		idx := [2]*kidIndex{f.wildKids}
		if int(sym) < len(f.tagKids) {
			idx[1] = f.tagKids[sym]
		}
		for _, x := range idx {
			if x == nil {
				continue
			}
			for k := range S.and(x.kids) {
				fr.lists++
				for _, c := range x.run(k) {
					fr.examined++
					if allIn(c.rest, S) {
						N.add(c.id)
					}
				}
			}
		}
		up.sat.unionWith(S)
	}

	// Root "//" re-roots at some descendant-or-self: node-satisfaction
	// of its kid here (or, above, the bit already raised below).
	for k := range N.and(f.rdKids.kids) {
		for _, c := range f.rdKids.run(k) {
			up.sat.add(c.id)
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
