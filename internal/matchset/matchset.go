// Package matchset implements the three matching-set representations of
// the paper (Section 3.2) behind a common interface:
//
//   - Counters: a per-node document count. Selectivity evaluation runs
//     under independence assumptions — union becomes max, intersection
//     becomes product (the baseline of Chan et al., VLDB'02).
//   - Sets: plain document-identifier sets, bounded globally by
//     document-level reservoir sampling (Vitter).
//   - Hashes: per-node bounded distinct samples (Gibbons) supporting
//     principled union/intersection/cardinality estimation (Ganguly et
//     al.).
//
// A Store is the mutable per-synopsis-node representation; a Value is an
// immutable query-time snapshot with set algebra, consumed by the SEL
// selectivity algorithm. A Value never changes after Store.Value
// returned it — a mutated store hands out a fresh snapshot — which is
// what lets a frozen synopsis (Factory.Freeze) share snapshots with the
// live one; it merely stops describing the store once that mutates (the
// synopsis tracks a version stamp for exactly this reason).
package matchset

import (
	"fmt"
	"math"
	"slices"

	"treesim/internal/sampling"
)

// Kind selects a matching-set representation.
type Kind int

const (
	// KindCounters stores one counter per node.
	KindCounters Kind = iota
	// KindSets stores exact ID sets over a reservoir-sampled document
	// stream.
	KindSets
	// KindHashes stores bounded distinct samples per node.
	KindHashes
)

func (k Kind) String() string {
	switch k {
	case KindCounters:
		return "Counters"
	case KindSets:
		return "Sets"
	case KindHashes:
		return "Hashes"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Value is an immutable query-time matching set. Implementations must
// never mutate their receivers or arguments; Union and Intersect return
// fresh (or safely aliased) values. Mixing Values of different kinds
// panics — it always indicates a bug.
type Value interface {
	// Kind identifies the representation.
	Kind() Kind
	// Union returns the union (counters: max).
	Union(Value) Value
	// Intersect returns the intersection (counters: product).
	Intersect(Value) Value
	// Card estimates the cardinality of the underlying document set.
	Card() float64
	// IsZero reports whether the value is known to be empty. Zero values
	// short-circuit unions and intersections in SEL.
	IsZero() bool
}

// cardIntersecter is implemented by values that can compute the
// cardinality of an intersection without materializing the result, and
// bound it without computing it. Every built-in representation
// implements it; the interface exists so hand-rolled test Values that
// only satisfy Value keep working.
type cardIntersecter interface {
	intersectCard(Value) float64
	intersectCardBound(Value) float64
}

// IntersectCard returns a.Intersect(b).Card() without allocating the
// intersection value. Similarity computations intersect once per
// subscription pair and use only the cardinality, so the materialized
// set (and its allocation) is pure waste on that path.
func IntersectCard(a, b Value) float64 {
	if ci, ok := a.(cardIntersecter); ok {
		return ci.intersectCard(b)
	}
	return a.Intersect(b).Card()
}

// IntersectCardBound returns an upper bound on IntersectCard(a, b) in
// O(1): the shorter sample scaled as the intersection would be (Sets:
// the smaller set; Hashes: the smaller sample at the larger level),
// because the intersection keeps a subset of either operand. Counters
// and values outside this package bound nothing (+Inf). A similarity
// loop reads it to skip intersections that cannot reach a threshold.
func IntersectCardBound(a, b Value) float64 {
	if ci, ok := a.(cardIntersecter); ok {
		return ci.intersectCardBound(b)
	}
	return math.Inf(1)
}

// Store is the mutable matching-set state attached to a synopsis node.
type Store interface {
	// Kind identifies the representation.
	Kind() Kind
	// Add records that the document with the given identifier matched.
	Add(id uint64)
	// Remove forgets a document (reservoir eviction). Counters do not
	// support removal and panic.
	Remove(id uint64)
	// Value snapshots the store as an immutable query value.
	Value() Value
	// Entries returns the number of stored entries for the paper's
	// synopsis size accounting (counters count as one entry).
	Entries() int
	// SetTo replaces the stored contents with the given value, applying
	// the store's capacity bound. Used by the pruning operations.
	SetTo(v Value)
	// Dump snapshots the store for serialization; Factory.Restore
	// rebuilds an equivalent store from it.
	Dump() Dump
}

// Dump is a serializable snapshot of a Store. Exactly the fields
// relevant to the store's kind are populated.
type Dump struct {
	// Kind identifies the representation.
	Kind Kind
	// Counter is the count (Counters only).
	Counter float64
	// Level is the distinct-sampling level (Hashes only).
	Level int
	// IDs are the retained document identifiers (Sets and Hashes).
	IDs []uint64
}

// Factory builds stores and empty values for one representation with
// shared configuration (hash function, capacities, stream length).
type Factory struct {
	kind Kind
	// capacity bounds per-node samples (Hashes). Sets are bounded
	// globally by the reservoir, Counters need no bound.
	capacity int
	hasher   *sampling.Hasher
	// totalDocs reports the current stream length |H|; counter values
	// need it to normalize intersections (product in probability space).
	totalDocs func() float64
	// emptyCount is the factory's shared empty counter value (needs the
	// totalDocs closure, so it cannot be a package singleton).
	emptyCount *countValue
}

// NewFactory returns a factory for the given kind.
//
//   - KindCounters requires totalDocs.
//   - KindSets requires nothing extra (capacity ignored).
//   - KindHashes requires hasher and capacity ≥ 1.
func NewFactory(kind Kind, capacity int, hasher *sampling.Hasher, totalDocs func() float64) *Factory {
	switch kind {
	case KindCounters:
		if totalDocs == nil {
			panic("matchset: counters require a totalDocs source")
		}
	case KindHashes:
		if hasher == nil || capacity < 1 {
			panic("matchset: hashes require a hasher and capacity >= 1")
		}
	case KindSets:
		// nothing
	default:
		panic(fmt.Sprintf("matchset: unknown kind %d", int(kind)))
	}
	f := &Factory{kind: kind, capacity: capacity, hasher: hasher, totalDocs: totalDocs}
	if kind == KindCounters {
		f.emptyCount = &countValue{c: 0, n: totalDocs}
	}
	return f
}

// Kind returns the representation this factory builds.
func (f *Factory) Kind() Kind { return f.kind }

// NewStore returns an empty store.
func (f *Factory) NewStore() Store {
	switch f.kind {
	case KindCounters:
		return &counterStore{f: f}
	case KindSets:
		return &setStore{ids: make(map[uint64]struct{})}
	default:
		return &hashStore{f: f, s: sampling.NewDistinctSample(f.hasher, f.capacity)}
	}
}

// Restore rebuilds a store from a Dump produced by a store of the same
// kind. It panics on kind mismatch.
func (f *Factory) Restore(d Dump) Store {
	if d.Kind != f.kind {
		panic(fmt.Sprintf("matchset: restore kind %s into factory of kind %s", d.Kind, f.kind))
	}
	switch f.kind {
	case KindCounters:
		return &counterStore{f: f, c: d.Counter}
	case KindSets:
		s := &setStore{ids: make(map[uint64]struct{}, len(d.IDs))}
		for _, x := range d.IDs {
			s.ids[x] = struct{}{}
		}
		return s
	default:
		// A dump written by an older version lists ids in map order:
		// sorted first, every Add below is an append.
		hs := &hashStore{f: f, s: sampling.NewDistinctSample(f.hasher, f.capacity)}
		for _, x := range sortIDs(slices.Clone(d.IDs)) {
			hs.s.Add(x)
		}
		hs.s.ForceLevel(d.Level)
		return hs
	}
}

// Freeze returns a read-only store fixed at s's current contents: its
// Value is s's immutable snapshot (shared, not copied) forever, and
// mutating it panics. Counter values are re-bound to f's stream length,
// so a frozen synopsis keeps normalizing by its own |H| while the
// synopsis it was copied from streams on.
func (f *Factory) Freeze(s Store) Store {
	v := s.Value()
	if f.kind == KindCounters {
		v = &countValue{c: v.Card(), n: f.totalDocs}
	}
	return frozenStore{v: v, entries: s.Entries()}
}

// frozenStore is the Store of a frozen synopsis node (Factory.Freeze).
type frozenStore struct {
	v       Value
	entries int
}

func (s frozenStore) Kind() Kind    { return s.v.Kind() }
func (s frozenStore) Value() Value  { return s.v }
func (s frozenStore) Entries() int  { return s.entries }
func (s frozenStore) Add(uint64)    { panic("matchset: store is frozen") }
func (s frozenStore) Remove(uint64) { panic("matchset: store is frozen") }
func (s frozenStore) SetTo(Value)   { panic("matchset: store is frozen") }

func (s frozenStore) Dump() Dump {
	switch v := s.v.(type) {
	case *setValue:
		return Dump{Kind: KindSets, IDs: slices.Clone(v.ids)}
	case *hashValue:
		return Dump{Kind: KindHashes, Level: v.level, IDs: slices.Clone(v.ids)}
	}
	return Dump{Kind: KindCounters, Counter: s.v.Card()}
}

// EmptyValue returns the empty query value of this representation. The
// result is a shared singleton (per factory for Counters, package-wide
// otherwise); callers treat it as immutable like every other Value.
func (f *Factory) EmptyValue() Value {
	switch f.kind {
	case KindCounters:
		return f.emptyCount
	case KindSets:
		return emptySetValue
	default:
		return emptyHashValue
	}
}

func kindMismatch(a, b Value) string {
	return fmt.Sprintf("matchset: mixed value kinds %s and %s", a.Kind(), b.Kind())
}
