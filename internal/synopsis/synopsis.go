// Package synopsis implements the paper's XML document synopsis HS
// (Section 3): a concise, incrementally maintained summary of the path
// distribution of an XML document stream. The synopsis starts as a tree
// whose nodes correspond to distinct root-to-node label paths of the
// observed document skeletons, each carrying a matching set S(t) of the
// documents containing that path; pruning operations (merging, folding,
// deletion — Section 3.3) compress it, in general into a DAG with nested
// labels.
package synopsis

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"treesim/internal/matchset"
	"treesim/internal/sampling"
	"treesim/internal/xmltree"
)

// Options configures a synopsis.
type Options struct {
	// Kind selects the matching-set representation (Counters, Sets,
	// Hashes).
	Kind matchset.Kind
	// HashCapacity is the per-node distinct-sample capacity h (Hashes
	// only). The paper sweeps 50 ≤ h ≤ 10000.
	HashCapacity int
	// SetCapacity is the document-level reservoir size k (Sets only).
	SetCapacity int
	// Seed drives the hash function and the reservoir; fixed seed means
	// fully deterministic behaviour.
	Seed int64
	// ExactRootCard makes P(p) use the exact number of observed
	// documents as denominator instead of the estimated |S(rs)| of
	// Algorithm 2. The paper uses the estimate; the exact count is
	// provided for ablations.
	ExactRootCard bool
	// NoReservoir disables document-level sampling in Sets mode: every
	// document is stored and the caller controls eviction explicitly
	// via RemoveDocument. This powers sliding-window estimation, an
	// extension beyond the paper.
	NoReservoir bool
}

func (o Options) withDefaults() Options {
	if o.Kind == matchset.KindHashes && o.HashCapacity == 0 {
		o.HashCapacity = 1000
	}
	if o.Kind == matchset.KindSets && o.SetCapacity == 0 {
		o.SetCapacity = 1000
	}
	return o
}

// Node is a synopsis node. After pruning the structure is a DAG: a node
// may have several parents (merge) and a nested label (fold).
type Node struct {
	id       int
	slot     int
	label    *LabelTree
	children []*Node
	parents  []*Node
	store    matchset.Store
	dead     bool
}

// ID returns a stable identifier, unique within the synopsis for its
// whole lifetime (never reused).
func (n *Node) ID() int { return n.id }

// Slot returns a dense identifier, unique among live nodes and recycled
// when nodes die, so Slot() < SlotBound() always holds and SlotBound
// tracks the peak number of live nodes rather than the total ever
// created. The selectivity estimator indexes its flat memo table by
// slot.
func (n *Node) Slot() int { return n.slot }

// Label returns the node's (possibly nested) label.
func (n *Node) Label() *LabelTree { return n.label }

// Children returns the node's children. Callers must not modify the
// returned slice.
func (n *Node) Children() []*Node { return n.children }

// Parents returns the node's parents. Callers must not modify the
// returned slice.
func (n *Node) Parents() []*Node { return n.parents }

// IsLeaf reports whether the node has no children.
func (n *Node) IsLeaf() bool { return len(n.children) == 0 }

// Synopsis is the document synopsis HS.
//
// Concurrency: methods that mutate the synopsis (Insert, RemoveDocument,
// Compress, the pruning operations) require exclusive access, but any
// number of read-only queries (Full, RootCard, Stats, selectivity
// evaluation) may run concurrently with each other — the query-time
// materialization caches synchronize internally. core.Estimator maps
// this contract onto a sync.RWMutex.
type Synopsis struct {
	opts      Options
	factory   *matchset.Factory
	hasher    *sampling.Hasher
	reservoir *sampling.Reservoir // Sets mode only
	root      *Node
	nextID    int
	slotBound int   // one past the highest slot ever in use
	freeSlots []int // slots of dead nodes, available for reuse
	docs      int   // total documents observed (|H|)
	liveDocs  int   // documents currently represented (NoReservoir mode)
	nextDocID uint64

	version int64
	cache   atomic.Pointer[fullCache]

	// skel is where InsertPacked, its only user, builds and releases
	// each skeleton. Nothing stored points into one: insertChild copies
	// labels, never nodes.
	skel xmltree.SkeletonScratch
}

// fullCache memoizes Full(v) per node for one synopsis version. A new
// cache replaces it after every mutation; concurrent readers of the same
// version share one cache and synchronize on its mutex (lookups take the
// read lock; a missing entry is computed outside the lock — duplicated
// work between racing readers is harmless because values are immutable).
type fullCache struct {
	version int64
	mu      sync.RWMutex
	vals    map[int]matchset.Value
}

func (c *fullCache) get(id int) (matchset.Value, bool) {
	c.mu.RLock()
	v, ok := c.vals[id]
	c.mu.RUnlock()
	return v, ok
}

func (c *fullCache) put(id int, v matchset.Value) {
	c.mu.Lock()
	c.vals[id] = v
	c.mu.Unlock()
}

// New returns an empty synopsis.
func New(opts Options) *Synopsis {
	opts = opts.withDefaults()
	s := &Synopsis{opts: opts, hasher: sampling.NewHasher(uint64(opts.Seed))}
	s.initFactory()
	if opts.Kind == matchset.KindSets && !opts.NoReservoir {
		s.reservoir = sampling.NewReservoir(opts.Seed, opts.SetCapacity)
	}
	s.root = s.newNode(NewLabel(rootTag))
	return s
}

// initFactory builds the matching-set factory for s.opts, s.hasher and
// (Counters) s's own stream length.
func (s *Synopsis) initFactory() {
	switch s.opts.Kind {
	case matchset.KindCounters:
		s.factory = matchset.NewFactory(matchset.KindCounters, 0, nil, func() float64 { return float64(s.docs) })
	case matchset.KindSets:
		s.factory = matchset.NewFactory(matchset.KindSets, 0, nil, nil)
	case matchset.KindHashes:
		s.factory = matchset.NewFactory(matchset.KindHashes, s.opts.HashCapacity, s.hasher, nil)
	default:
		panic(fmt.Sprintf("synopsis: unknown matchset kind %d", int(s.opts.Kind)))
	}
}

// Freeze returns an immutable copy of the synopsis as of now: the DAG
// structure is copied (same node ids and slots), labels and the
// per-node Store.Value() snapshots are shared — both are never modified
// in place — and the copy keeps s's version, so its Full cache, once
// filled, stays valid for good. Every query (Full, RootCard, Stats,
// selectivity evaluation) answers on the copy exactly as it did on s at
// the call, however s changes afterwards; the copy itself must never be
// mutated (its stores panic). Freeze is a read-only query on s.
func (s *Synopsis) Freeze() *Synopsis {
	f := &Synopsis{
		opts: s.opts, hasher: s.hasher, nextID: s.nextID, slotBound: s.slotBound,
		docs: s.docs, liveDocs: s.liveDocs, nextDocID: s.nextDocID, version: s.version,
	}
	f.initFactory()
	if s.reservoir != nil {
		// RootCard reads the sample size off the reservoir; without one it
		// falls back to liveDocs, which on a frozen copy has no other use.
		f.liveDocs = s.reservoir.Size()
	}
	nodes := s.Nodes()
	bySlot := make([]*Node, s.slotBound)
	for _, n := range nodes {
		bySlot[n.slot] = &Node{id: n.id, slot: n.slot, label: n.label, store: f.factory.Freeze(n.store)}
	}
	relink := func(src []*Node) []*Node {
		if len(src) == 0 {
			return nil
		}
		out := make([]*Node, len(src))
		for i, x := range src {
			out[i] = bySlot[x.slot]
		}
		return out
	}
	for _, n := range nodes {
		c := bySlot[n.slot]
		c.children, c.parents = relink(n.children), relink(n.parents)
	}
	f.root = bySlot[s.root.slot]
	return f
}

// rootTag is the special root label "/." of the synopsis (and of tree
// patterns).
const rootTag = "/."

// Options returns the synopsis configuration.
func (s *Synopsis) Options() Options { return s.opts }

// Kind returns the matching-set representation in use.
func (s *Synopsis) Kind() matchset.Kind { return s.opts.Kind }

// Root returns the synopsis root node (label "/.").
func (s *Synopsis) Root() *Node { return s.root }

// DocsObserved returns the number of documents inserted so far (|H|).
func (s *Synopsis) DocsObserved() int { return s.docs }

// EmptyValue returns the empty matching-set value of the synopsis's
// representation; the selectivity estimator uses it as ∅.
func (s *Synopsis) EmptyValue() matchset.Value { return s.factory.EmptyValue() }

// Version is bumped by every mutation; values obtained from Full are
// valid only while the version is unchanged.
func (s *Synopsis) Version() int64 { return s.version }

// SlotBound returns an exclusive upper bound on live-node slots. It
// grows to the peak live-node count and never beyond it (dead nodes'
// slots are recycled), so flat tables sized by it stay proportional to
// the synopsis, not to its history.
func (s *Synopsis) SlotBound() int { return s.slotBound }

func (s *Synopsis) newNode(label *LabelTree) *Node {
	n := &Node{id: s.nextID, slot: s.takeSlot(), label: label, store: s.factory.NewStore()}
	s.nextID++
	return n
}

// takeSlot hands out a dense slot, preferring recycled ones.
func (s *Synopsis) takeSlot() int {
	if k := len(s.freeSlots); k > 0 {
		slot := s.freeSlots[k-1]
		s.freeSlots = s.freeSlots[:k-1]
		return slot
	}
	slot := s.slotBound
	s.slotBound++
	return slot
}

// releaseSlot returns a dead node's slot to the free list.
func (s *Synopsis) releaseSlot(n *Node) {
	s.freeSlots = append(s.freeSlots, n.slot)
}

// Insert observes one document: it is InsertPacked of t packed.
func (s *Synopsis) Insert(t *xmltree.Tree) uint64 { return s.InsertPacked(xmltree.Pack(t)) }

// InsertPacked observes one document, packed (xmltree.Pack's form):
// builds its skeleton from the bytes and records its paths and
// identifier in the synopsis. It returns the document identifier
// assigned to the document (identifiers increase from 0). Bytes that
// xmltree.Unpack refuses are observed as the empty document.
func (s *Synopsis) InsertPacked(b []byte) uint64 {
	id := s.nextDocID
	s.nextDocID++
	s.docs++
	s.version++

	sk := s.skel.BuildPacked(b)
	defer s.skel.Release()
	if sk == nil {
		return id
	}
	if s.opts.Kind == matchset.KindSets && s.reservoir != nil {
		accepted, evicted, hadEviction := s.reservoir.Offer(id)
		if hadEviction {
			s.removeDocEverywhere(evicted)
		}
		if !accepted {
			return id
		}
	}
	s.liveDocs++
	counters := s.opts.Kind == matchset.KindCounters
	if counters {
		s.root.store.Add(id)
	}
	s.insertChild(s.root, sk, id, counters)
	return id
}

// insertChild finds or creates the synopsis child of sn corresponding to
// the skeleton node c, then recurses over c's children. In Counters mode
// every visited node's count is incremented; otherwise the document ID
// is stored only at nodes where a skeleton path ends (skeleton leaves,
// or folded nodes that fully absorb the remaining subtree).
func (s *Synopsis) insertChild(sn *Node, c *xmltree.Node, id uint64, counters bool) {
	// 1. Existing real child with a matching root tag?
	var child *Node
	for _, k := range sn.children {
		if k.label.Tag == c.Label {
			child = k
			break
		}
	}
	if child == nil {
		// 2. Fully absorbed by a folded label of sn? Then the document
		// shares the folded structure: it simply joins sn's matching
		// set (which already is the union of the folded subtree's
		// sets).
		for _, nested := range sn.label.Nested {
			if absorbs(nested, c) {
				if counters {
					// Counter stores hold full counts; the fold target
					// was already incremented by the caller (it is sn).
					return
				}
				sn.store.Add(id)
				return
			}
		}
		child = s.newNode(NewLabel(strings.Clone(c.Label))) // c's label aliases the document
		child.parents = append(child.parents, sn)
		sn.children = append(sn.children, child)
	}
	if counters {
		child.store.Add(id)
	} else if len(c.Children) == 0 {
		child.store.Add(id)
	}
	for _, cc := range c.Children {
		s.insertChild(child, cc, id, counters)
	}
}

// absorbs reports whether the folded label subtree lt fully covers the
// skeleton subtree sk: same tag and every child of sk absorbed by some
// nested child of lt.
func absorbs(lt *LabelTree, sk *xmltree.Node) bool {
	if lt.Tag != sk.Label {
		return false
	}
	for _, c := range sk.Children {
		ok := false
		for _, nl := range lt.Nested {
			if absorbs(nl, c) {
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

// RemoveDocument expires a document from the synopsis: its identifier
// is deleted from every store and nodes left without matching
// information are pruned. Only sample-based representations support
// removal (counters cannot forget). This powers sliding-window
// estimation; with the reservoir active, eviction happens automatically
// instead.
func (s *Synopsis) RemoveDocument(id uint64) error {
	if s.opts.Kind == matchset.KindCounters {
		return fmt.Errorf("synopsis: counters do not support document removal")
	}
	s.removeDocEverywhere(id)
	if s.liveDocs > 0 {
		s.liveDocs--
	}
	return nil
}

// removeDocEverywhere deletes an evicted document identifier from all
// stores and prunes nodes whose matching information vanished (Sets
// mode: "new arrivals may cause several nodes in the synopsis to be
// deleted").
func (s *Synopsis) removeDocEverywhere(id uint64) {
	s.version++
	for _, n := range s.Nodes() {
		n.store.Remove(id)
	}
	// Prune empty leaves bottom-up.
	for {
		removed := false
		for _, n := range s.Nodes() {
			if n != s.root && n.IsLeaf() && n.store.Entries() == 0 {
				s.detach(n)
				removed = true
			}
		}
		if !removed {
			return
		}
	}
}

// detach removes n from the DAG entirely.
func (s *Synopsis) detach(n *Node) {
	for _, p := range n.parents {
		p.children = removeNode(p.children, n)
	}
	for _, c := range n.children {
		c.parents = removeNode(c.parents, n)
	}
	n.parents, n.children = nil, nil
	n.dead = true
	s.releaseSlot(n)
	s.version++
}

func removeNode(list []*Node, n *Node) []*Node {
	out := list[:0]
	for _, x := range list {
		if x != n {
			out = append(out, x)
		}
	}
	return out
}

// Nodes returns every live node (root included) in a deterministic
// order (by id).
func (s *Synopsis) Nodes() []*Node {
	seen := make(map[int]bool)
	var out []*Node
	var rec func(n *Node)
	rec = func(n *Node) {
		if seen[n.id] {
			return
		}
		seen[n.id] = true
		out = append(out, n)
		for _, c := range n.children {
			rec(c)
		}
	}
	rec(s.root)
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// Full returns the full matching set of a node: its stored sample
// unioned with the full sets of all its descendants (paper, Section
// 3.2: "a hash sample of the full matching set at a node t … can be
// computed by recursively unioning the hash samples across all
// descendants of t"). In Counters mode the stored count already is the
// full count. Results are cached until the next mutation.
func (s *Synopsis) Full(n *Node) matchset.Value {
	if s.opts.Kind == matchset.KindCounters {
		return n.store.Value()
	}
	c := s.cache.Load()
	for c == nil || c.version != s.version {
		fresh := &fullCache{version: s.version, vals: make(map[int]matchset.Value)}
		if s.cache.CompareAndSwap(c, fresh) {
			c = fresh
			break
		}
		c = s.cache.Load()
	}
	return s.fullRec(c, n)
}

func (s *Synopsis) fullRec(c *fullCache, n *Node) matchset.Value {
	if v, ok := c.get(n.id); ok {
		return v
	}
	v := n.store.Value()
	for _, ch := range n.children {
		v = v.Union(s.fullRec(c, ch))
	}
	c.put(n.id, v)
	return v
}

// RootCard returns the denominator |S(rs)| of Algorithm 2: the
// (estimated) number of documents covered by the synopsis. With
// ExactRootCard, or in Counters mode, this is exact.
func (s *Synopsis) RootCard() float64 {
	switch {
	case s.opts.Kind == matchset.KindCounters:
		return float64(s.docs)
	case s.opts.Kind == matchset.KindSets:
		if s.reservoir == nil {
			// NoReservoir mode: every live (non-removed) document is
			// represented exactly.
			return float64(s.liveDocs)
		}
		// The sample covers reservoir-many documents; selectivities are
		// fractions within the uniform sample.
		return float64(s.reservoir.Size())
	case s.opts.ExactRootCard:
		return float64(s.docs)
	default:
		return s.Full(s.root).Card()
	}
}

// Stats describes the synopsis size in the paper's accounting units.
type Stats struct {
	// Nodes is the number of live nodes (including the root).
	Nodes int
	// Edges is the number of parent→child edges.
	Edges int
	// Labels is the total number of label-tree nodes over all nodes.
	Labels int
	// Entries is the total number of matching-set entries over all
	// stores.
	Entries int
}

// Size is the paper's |HS|: nodes + edges + labels + entries, each of
// which fits a 32-bit integer.
func (st Stats) Size() int { return st.Nodes + st.Edges + st.Labels + st.Entries }

// Stats computes the current size statistics.
func (s *Synopsis) Stats() Stats {
	var st Stats
	for _, n := range s.Nodes() {
		st.Nodes++
		st.Edges += len(n.children)
		st.Labels += n.label.Size()
		st.Entries += n.store.Entries()
	}
	return st
}

// Size returns Stats().Size().
func (s *Synopsis) Size() int { return s.Stats().Size() }

// Validate checks structural invariants: parent/child links are
// symmetric, there are no cycles, no dead nodes are reachable, and the
// root has no parents. It returns the first violation found.
func (s *Synopsis) Validate() error {
	if len(s.root.parents) != 0 {
		return fmt.Errorf("synopsis: root has parents")
	}
	state := make(map[int]int) // 0 unvisited, 1 in-stack, 2 done
	var rec func(n *Node) error
	rec = func(n *Node) error {
		if n.dead {
			return fmt.Errorf("synopsis: dead node %d reachable", n.id)
		}
		switch state[n.id] {
		case 1:
			return fmt.Errorf("synopsis: cycle through node %d", n.id)
		case 2:
			return nil
		}
		state[n.id] = 1
		for _, c := range n.children {
			if !containsNode(c.parents, n) {
				return fmt.Errorf("synopsis: node %d missing parent backlink to %d", c.id, n.id)
			}
			if err := rec(c); err != nil {
				return err
			}
		}
		state[n.id] = 2
		return nil
	}
	if err := rec(s.root); err != nil {
		return err
	}
	for _, n := range s.Nodes() {
		for _, p := range n.parents {
			if !containsNode(p.children, n) {
				return fmt.Errorf("synopsis: node %d has parent %d without child link", n.id, p.id)
			}
		}
	}
	return nil
}

func containsNode(list []*Node, n *Node) bool {
	for _, x := range list {
		if x == n {
			return true
		}
	}
	return false
}

// String renders the synopsis structure with estimated cardinalities,
// for debugging and the compression example. Shared (merged) nodes are
// printed once and referenced by id afterwards.
func (s *Synopsis) String() string {
	var b strings.Builder
	printed := make(map[int]bool)
	var rec func(n *Node, depth int)
	rec = func(n *Node, depth int) {
		b.WriteString(strings.Repeat("  ", depth))
		fmt.Fprintf(&b, "%s #%d |S|≈%.1f", n.label, n.id, s.Full(n).Card())
		if printed[n.id] {
			b.WriteString(" (shared, see above)\n")
			return
		}
		printed[n.id] = true
		b.WriteByte('\n')
		for _, c := range n.children {
			rec(c, depth+1)
		}
	}
	rec(s.root, 0)
	return b.String()
}
