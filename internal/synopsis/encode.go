package synopsis

import (
	"encoding/gob"
	"fmt"
	"io"
	"sort"

	"treesim/internal/matchset"
	"treesim/internal/sampling"
)

// Serialization of the synopsis: a versioned gob stream of the DAG
// structure, labels, matching sets, and stream position. Loading
// reconstructs a synopsis whose queries are identical to the saved
// one's; the random source used for future stream sampling (Sets mode)
// is freshly seeded, so continued streaming is statistically — not
// bitwise — equivalent.
// Version 2 streams the header (encSynopsis, Nodes empty) and then one
// message per node, a Hashes sample as its packed bytes
// (matchset.PackedDump); version 1, read and never written, put the
// nodes in the header with each sample as its ids.

// encodeVersion is bumped on incompatible format changes.
const encodeVersion = 2

type encLabel struct {
	Tag    string
	Nested []encLabel
}

type encNode struct {
	ID       int
	Label    encLabel
	Children []int
	Store    matchset.Dump
}

type encSynopsis struct {
	FormatVersion int
	Kind          int
	HashCapacity  int
	SetCapacity   int
	Seed          int64
	ExactRootCard bool
	NoReservoir   bool
	Docs          int
	LiveDocs      int
	NextDocID     uint64
	RootID        int
	Nodes         []encNode // version 1: the nodes
	NodeCount     int       // version 2: the node messages that follow
	ReservoirIDs  []uint64  // Sets mode: current document sample
}

func encodeLabel(l *LabelTree) encLabel {
	out := encLabel{Tag: l.Tag}
	for _, c := range l.Nested {
		out.Nested = append(out.Nested, encodeLabel(c))
	}
	return out
}

func decodeLabel(e encLabel) *LabelTree {
	out := &LabelTree{Tag: e.Tag}
	for _, c := range e.Nested {
		out.Nested = append(out.Nested, decodeLabel(c))
	}
	return out
}

// Encode writes the synopsis to w as a stream of small messages.
func (s *Synopsis) Encode(w io.Writer) error {
	nodes := s.Nodes()
	enc := encSynopsis{
		FormatVersion: encodeVersion,
		Kind:          int(s.opts.Kind),
		HashCapacity:  s.opts.HashCapacity,
		SetCapacity:   s.opts.SetCapacity,
		Seed:          s.opts.Seed,
		ExactRootCard: s.opts.ExactRootCard,
		NoReservoir:   s.opts.NoReservoir,
		Docs:          s.docs,
		LiveDocs:      s.liveDocs,
		NextDocID:     s.nextDocID,
		RootID:        s.root.id,
		NodeCount:     len(nodes),
	}
	if s.reservoir != nil {
		enc.ReservoirIDs = append(enc.ReservoirIDs, s.reservoir.IDs()...)
		sort.Slice(enc.ReservoirIDs, func(i, j int) bool { return enc.ReservoirIDs[i] < enc.ReservoirIDs[j] })
	}
	ge := gob.NewEncoder(w)
	if err := ge.Encode(&enc); err != nil {
		return fmt.Errorf("synopsis: encode: %w", err)
	}
	for _, n := range nodes {
		en := encNode{ID: n.id, Label: encodeLabel(n.label), Store: matchset.PackedDump(n.store)}
		for _, c := range n.children {
			en.Children = append(en.Children, c.id)
		}
		// Deterministic output for identical synopses: child ids come
		// from insertion-ordered slices and must be ordered here.
		sort.Ints(en.Children)
		if err := ge.Encode(&en); err != nil {
			return fmt.Errorf("synopsis: encode: %w", err)
		}
	}
	return nil
}

// Decode reads a synopsis written by Encode, version 1 or 2. A stream
// that does not decode to a valid synopsis is an error.
func Decode(r io.Reader) (*Synopsis, error) {
	var enc encSynopsis
	gd := gob.NewDecoder(r)
	if err := gd.Decode(&enc); err != nil {
		return nil, fmt.Errorf("synopsis: decode: %w", err)
	}
	switch {
	case enc.FormatVersion == 2:
		for range enc.NodeCount {
			var en encNode
			if err := gd.Decode(&en); err != nil {
				return nil, fmt.Errorf("synopsis: decode: %w", err)
			}
			enc.Nodes = append(enc.Nodes, en)
		}
	case enc.FormatVersion != 1:
		return nil, fmt.Errorf("synopsis: decode: unsupported format version %d (want 1 or %d)", enc.FormatVersion, encodeVersion)
	}
	if kind := matchset.Kind(enc.Kind); kind != matchset.KindCounters && kind != matchset.KindSets && kind != matchset.KindHashes || enc.HashCapacity < 0 || enc.SetCapacity < 0 {
		return nil, fmt.Errorf("synopsis: decode: kind %d with capacities %d and %d", enc.Kind, enc.HashCapacity, enc.SetCapacity)
	}
	s := New(Options{
		Kind:          matchset.Kind(enc.Kind),
		HashCapacity:  enc.HashCapacity,
		SetCapacity:   enc.SetCapacity,
		Seed:          enc.Seed,
		ExactRootCard: enc.ExactRootCard,
		NoReservoir:   enc.NoReservoir,
	})
	s.docs = enc.Docs
	s.liveDocs = enc.LiveDocs
	s.nextDocID = enc.NextDocID

	nodes := make(map[int]*Node, len(enc.Nodes))
	maxID := 0
	for i, en := range enc.Nodes {
		d := en.Store
		if d.Kind != s.opts.Kind {
			return nil, fmt.Errorf("synopsis: decode node %d: %s dump into %s", en.ID, d.Kind, s.opts.Kind)
		}
		if _, err := sampling.Unpack(d.N, d.Base, d.Gaps); d.IDs == nil && err != nil {
			return nil, fmt.Errorf("synopsis: decode node %d: %w", en.ID, err)
		}
		n := &Node{id: en.ID, slot: i, label: decodeLabel(en.Label), store: s.factory.Restore(d)}
		nodes[en.ID] = n
		if en.ID > maxID {
			maxID = en.ID
		}
	}
	s.slotBound = len(enc.Nodes)
	s.freeSlots = nil
	root, ok := nodes[enc.RootID]
	if !ok {
		return nil, fmt.Errorf("synopsis: decode: missing root node %d", enc.RootID)
	}
	if root.label.Tag != rootTag {
		return nil, fmt.Errorf("synopsis: decode: root labeled %q, want %q", root.label.Tag, rootTag)
	}
	for _, en := range enc.Nodes {
		n := nodes[en.ID]
		for _, cid := range en.Children {
			c, ok := nodes[cid]
			if !ok {
				return nil, fmt.Errorf("synopsis: decode: node %d references missing child %d", en.ID, cid)
			}
			n.children = append(n.children, c)
			c.parents = append(c.parents, n)
		}
	}
	s.root = root
	s.nextID = maxID + 1
	if s.reservoir != nil {
		if len(enc.ReservoirIDs) > s.opts.SetCapacity {
			return nil, fmt.Errorf("synopsis: decode: %d reservoir ids, capacity %d", len(enc.ReservoirIDs), s.opts.SetCapacity)
		}
		// Re-seed with a position-dependent seed so the continuation
		// does not replay the original acceptance sequence.
		s.reservoir = sampling.RestoreReservoir(
			enc.Seed+int64(enc.Docs), s.opts.SetCapacity, enc.ReservoirIDs, enc.Docs)
	}
	s.version++
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("synopsis: decode: %w", err)
	}
	return s, nil
}
