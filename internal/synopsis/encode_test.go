package synopsis

import (
	"bytes"
	"strings"
	"testing"

	"treesim/internal/matchset"
	"treesim/internal/xmltree"
)

func roundTrip(t *testing.T, s *Synopsis) *Synopsis {
	t.Helper()
	var buf bytes.Buffer
	if err := s.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	out, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	for _, kind := range []matchset.Kind{matchset.KindCounters, matchset.KindSets, matchset.KindHashes} {
		t.Run(kind.String(), func(t *testing.T) {
			s := New(Options{Kind: kind, SetCapacity: 100, HashCapacity: 100, Seed: 9})
			buildCorpus(t, s, corpus6)
			out := roundTrip(t, s)
			if out.DocsObserved() != s.DocsObserved() {
				t.Errorf("docs: %d vs %d", out.DocsObserved(), s.DocsObserved())
			}
			if out.Stats() != s.Stats() {
				t.Errorf("stats: %+v vs %+v", out.Stats(), s.Stats())
			}
			if err := out.Validate(); err != nil {
				t.Fatal(err)
			}
			// Full matching-set cardinalities coincide node by node.
			a, b := s.Nodes(), out.Nodes()
			if len(a) != len(b) {
				t.Fatalf("node counts differ: %d vs %d", len(a), len(b))
			}
			for i := range a {
				if a[i].ID() != b[i].ID() || !a[i].Label().Equal(b[i].Label()) {
					t.Fatalf("node %d differs: %s vs %s", i, a[i].Label(), b[i].Label())
				}
				if ca, cb := s.Full(a[i]).Card(), out.Full(b[i]).Card(); ca != cb {
					t.Errorf("node %d full card: %v vs %v", a[i].ID(), ca, cb)
				}
			}
			if s.RootCard() != out.RootCard() {
				t.Errorf("root card: %v vs %v", s.RootCard(), out.RootCard())
			}
		})
	}
}

func TestEncodeDecodePrunedDAG(t *testing.T) {
	s := New(Options{Kind: matchset.KindHashes, HashCapacity: 100, Seed: 3})
	buildCorpus(t, s, corpus6)
	// Create folded labels and a merged (multi-parent) node.
	f := findPath(t, s, "a", "c", "f")
	if err := s.FoldLeaf(f); err != nil {
		t.Fatal(err)
	}
	eb := findPath(t, s, "a", "b", "e")
	ed := findPath(t, s, "a", "d", "e")
	if err := s.MergeNodes(eb, ed); err != nil {
		t.Fatal(err)
	}
	out := roundTrip(t, s)
	if out.Stats() != s.Stats() {
		t.Errorf("stats after prune: %+v vs %+v", out.Stats(), s.Stats())
	}
	// The folded label must survive.
	c := findPath(t, out, "a", "c")
	if c.Label().String() != "c[f]" {
		t.Errorf("folded label = %q", c.Label())
	}
	// The merged node must still be shared.
	if findPath(t, out, "a", "b", "e") != findPath(t, out, "a", "d", "e") {
		t.Error("merged node not shared after round trip")
	}
}

func TestDecodeContinuesStreaming(t *testing.T) {
	s := New(Options{Kind: matchset.KindSets, SetCapacity: 4, Seed: 7})
	buildCorpus(t, s, corpus6)
	out := roundTrip(t, s)
	// Continue the stream on the restored synopsis: document ids must
	// not collide and the reservoir must keep functioning.
	for i := 0; i < 50; i++ {
		tr, _ := xmltree.ParseCompact("a(b)")
		id := out.Insert(tr)
		if id < 6 {
			t.Fatalf("document id %d collides with the saved stream", id)
		}
	}
	if err := out.Validate(); err != nil {
		t.Fatal(err)
	}
	if out.DocsObserved() != 56 {
		t.Errorf("docs = %d, want 56", out.DocsObserved())
	}
	if got := out.RootCard(); got != 4 {
		t.Errorf("root card = %v, want reservoir capacity 4", got)
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := Decode(strings.NewReader("not a gob stream")); err == nil {
		t.Error("garbage input should fail")
	}
	if _, err := Decode(strings.NewReader("")); err == nil {
		t.Error("empty input should fail")
	}
}

func TestEncodeDeterministic(t *testing.T) {
	mk := func() *bytes.Buffer {
		s := New(Options{Kind: matchset.KindHashes, HashCapacity: 50, Seed: 5})
		buildCorpus(t, s, corpus6)
		var buf bytes.Buffer
		if err := s.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		return &buf
	}
	if !bytes.Equal(mk().Bytes(), mk().Bytes()) {
		t.Error("identical synopses encode differently")
	}
}

// TestFreezeIsAnImmutableCopy checks Freeze at the synopsis level, on a
// pruned DAG: the copy serializes byte for byte like the original (same
// ids, links, labels and store dumps), answers RootCard alike, keeps
// doing so after the original streams on and is pruned again — and
// refuses to be mutated.
func TestFreezeIsAnImmutableCopy(t *testing.T) {
	encode := func(s *Synopsis) string {
		var buf bytes.Buffer
		if err := s.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	for _, kind := range []matchset.Kind{matchset.KindCounters, matchset.KindSets, matchset.KindHashes} {
		t.Run(kind.String(), func(t *testing.T) {
			// NoReservoir: a frozen Sets copy carries no reservoir to encode.
			s := New(Options{Kind: kind, NoReservoir: true, HashCapacity: 100, Seed: 9})
			buildCorpus(t, s, corpus6)
			s.Compress(CompressOptions{TargetRatio: 0.8})
			f := s.Freeze()
			if err := f.Validate(); err != nil {
				t.Fatal(err)
			}
			want, card := encode(s), s.RootCard()
			if got := encode(f); got != want {
				t.Fatal("frozen copy encodes differently from the synopsis it was taken of")
			}
			buildCorpus(t, s, corpus6)
			s.Compress(CompressOptions{TargetRatio: 0.5})
			if encode(s) == want {
				t.Fatal("the original did not change: nothing tested")
			}
			if got := encode(f); got != want || f.RootCard() != card || f.Version() == s.Version() {
				t.Error("frozen copy moved with the original")
			}
			defer func() {
				if recover() == nil {
					t.Error("Insert into a frozen copy did not panic")
				}
			}()
			tr, _ := xmltree.ParseCompact(corpus6[0])
			f.Insert(tr)
		})
	}
}

// TestFreezeSetsReservoirRootCard covers the one field Freeze rewrites:
// with a reservoir, RootCard is the sample size, which the copy keeps
// while the original's reservoir fills further.
func TestFreezeSetsReservoirRootCard(t *testing.T) {
	s := newSets(3, 8)
	buildCorpus(t, s, corpus6[:3])
	f := s.Freeze()
	buildCorpus(t, s, corpus6)
	if f.RootCard() != 3 || s.RootCard() != 8 {
		t.Errorf("RootCard frozen/live = %v/%v, want 3/8", f.RootCard(), s.RootCard())
	}
}
