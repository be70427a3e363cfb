package synopsis

import (
	"bytes"
	"runtime"
	"strings"
	"testing"
	"time"

	"treesim/internal/dtd"
	"treesim/internal/matchset"
	"treesim/internal/xmlgen"
	"treesim/internal/xmltree"
)

// insertTree is Insert as it was before documents arrived packed: the
// skeleton coalesced from the tree (xmltree.Skeleton), then inserted.
func (s *Synopsis) insertTree(t *xmltree.Tree) {
	id := s.nextDocID
	s.nextDocID++
	s.docs++
	s.version++
	if t == nil || t.Root == nil {
		return
	}
	if s.opts.Kind == matchset.KindSets && s.reservoir != nil {
		accepted, evicted, hadEviction := s.reservoir.Offer(id)
		if hadEviction {
			s.removeDocEverywhere(evicted)
		}
		if !accepted {
			return
		}
	}
	s.liveDocs++
	counters := s.opts.Kind == matchset.KindCounters
	if counters {
		s.root.store.Add(id)
	}
	s.insertChild(s.root, xmltree.Skeleton(t).Root, id, counters)
}

// TestInsertPackedEncodesAsTrees: a synopsis fed a stream as the parser
// packs it encodes byte for byte as one fed the same documents as trees,
// on NITF and xCBL, for every representation, with text promoted and
// not.
func TestInsertPackedEncodesAsTrees(t *testing.T) {
	for name, d := range map[string]*dtd.DTD{"nitf": dtd.NITFLike(), "xcbl": dtd.XCBLLike()} {
		var texts []string
		for _, tr := range xmlgen.New(d, xmlgen.Options{Seed: 31, EmitText: true}).GenerateN(300) {
			s, err := xmltree.XMLString(tr, false)
			if err != nil {
				t.Fatal(err)
			}
			texts = append(texts, s)
		}
		for _, textAsNodes := range []bool{false, true} {
			opts := xmltree.ParseOptions{TextAsNodes: textAsNodes}
			for _, kind := range []matchset.Kind{matchset.KindHashes, matchset.KindSets, matchset.KindCounters} {
				o := Options{Kind: kind, HashCapacity: 64, SetCapacity: 100, Seed: 5}
				packed, trees := New(o), New(o)
				for _, x := range texts {
					b, err := xmltree.ParsePacked(strings.NewReader(x), opts)
					if err != nil {
						t.Fatal(err)
					}
					tr, err := xmltree.ParseString(x, opts)
					if err != nil {
						t.Fatal(err)
					}
					packed.InsertPacked(b)
					trees.insertTree(tr)
				}
				var got, want bytes.Buffer
				if err := packed.Encode(&got); err != nil {
					t.Fatal(err)
				}
				if err := trees.Encode(&want); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got.Bytes(), want.Bytes()) {
					t.Errorf("%s, text as nodes %v, %v: the packed stream encodes to %d bytes, the tree stream to %d, and they differ",
						name, textAsNodes, kind, got.Len(), want.Len())
				}
			}
		}
	}
}

// TestInsertPackedDoesNotPinDocument: the skeleton scratch a synopsis
// keeps between documents aliases the bytes it was built from, and
// InsertPacked releases it, so the last document ingested can be
// collected as soon as its publisher lets go of it.
func TestInsertPackedDoesNotPinDocument(t *testing.T) {
	tr := xmlgen.New(dtd.NITFLike(), xmlgen.Options{Seed: 3}).GenerateN(1)[0]
	s := New(Options{Kind: matchset.KindHashes, HashCapacity: 64, Seed: 5})
	freed := make(chan struct{})
	func() {
		b := xmltree.Pack(tr)
		runtime.SetFinalizer(&b[0], func(*byte) { close(freed) })
		s.InsertPacked(b)
	}()
	for range 20 {
		runtime.GC()
		select {
		case <-freed:
			runtime.KeepAlive(s)
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("the synopsis still holds the last document's bytes")
}
