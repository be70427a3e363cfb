package xmltree_test

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"treesim/internal/dtd"
	"treesim/internal/xmlgen"
	"treesim/internal/xmltree"
)

// roundTrip fails t unless Unpack(Pack(tr)) is tr again, node for node
// with child order kept — stronger than equality of the canonical forms,
// and what keeps the serialization byte-identical.
func roundTrip(t *testing.T, tr *xmltree.Tree) {
	t.Helper()
	packed := xmltree.Pack(tr)
	got, err := xmltree.Unpack(packed)
	if err != nil {
		t.Fatalf("Unpack(Pack(t)) failed: %v", err)
	}
	if !got.Root.Equal(tr.Root) {
		t.Fatalf("Unpack(Pack(t)) differs from t (%d nodes, %d bytes packed)", tr.Size(), len(packed))
	}
	want, _ := xmltree.XMLString(tr, false)
	if have, _ := xmltree.XMLString(got, false); have != want {
		t.Fatal("serialization of the unpacked tree differs")
	}
	if again := xmltree.Pack(got); !bytes.Equal(again, packed) {
		t.Fatal("Pack is not deterministic across a round trip")
	}
}

// chain returns a tree that is one path of the given depth.
func chain(depth int) *xmltree.Tree {
	tr := xmltree.New("n0")
	n := tr.Root
	for i := 1; i < depth; i++ {
		n = n.AddChild(fmt.Sprintf("n%d", i%7))
	}
	return tr
}

func TestPackRoundTrip(t *testing.T) {
	for name, d := range map[string]*dtd.DTD{"nitf": dtd.NITFLike(), "xcbl": dtd.XCBLLike()} {
		t.Run(name, func(t *testing.T) {
			for _, tr := range xmlgen.New(d, xmlgen.Options{Seed: 21, EmitText: true}).GenerateN(200) {
				roundTrip(t, tr)
			}
		})
	}
	wide := xmltree.New("root")
	for i := 0; i < 300; i++ { // > 255 distinct labels: indices need two bytes
		wide.Root.AddChild(fmt.Sprintf("label%d", i)).AddChild("leaf")
	}
	long := xmltree.New(strings.Repeat("x", 65)) // past the label cache's limit
	long.Root.AddChild(strings.Repeat("y", 300)).AddChild("")
	for name, tr := range map[string]*xmltree.Tree{
		"single node":            xmltree.New("a"),
		"many labels":            wide,
		"long labels":            long,
		"deep chain at MaxDepth": chain(xmltree.MaxDepth),
	} {
		t.Run(name, func(t *testing.T) { roundTrip(t, tr) })
	}
}

func TestPackEmpty(t *testing.T) {
	if b := xmltree.Pack(nil); b != nil {
		t.Errorf("Pack(nil) = %v, want nil", b)
	}
	if b := xmltree.Pack(&xmltree.Tree{}); b != nil {
		t.Errorf("Pack(empty tree) = %v, want nil", b)
	}
	if tr, err := xmltree.Unpack(nil); tr != nil || err != nil {
		t.Errorf("Unpack(nil) = %v, %v; want the empty document", tr, err)
	}
}

// TestUnpackRejects: every strict prefix of a packed document, trailing
// bytes, and counts that the bytes cannot back are errors — never a
// panic, and never an allocation sized by a forged count.
func TestUnpackRejects(t *testing.T) {
	tr, err := xmltree.ParseCompact("a(b(c,d),e,b(c))")
	if err != nil {
		t.Fatal(err)
	}
	good := xmltree.Pack(tr)
	for n := 1; n < len(good); n++ {
		if got, err := xmltree.Unpack(good[:n]); err == nil {
			t.Errorf("Unpack of the %d-byte prefix succeeded: %s", n, got)
		}
	}
	huge := []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f} // uvarint 2^49-1
	for name, b := range map[string][]byte{
		"trailing byte":         append(bytes.Clone(good), 0),
		"zero nodes":            {0, 0},
		"forged node count":     append(bytes.Clone(huge), 1, 1, 'a', 0, 0),
		"forged label count":    append(append([]byte{1}, huge...), 1, 'a', 0, 0),
		"forged label length":   append(append([]byte{1, 1}, huge...), 'a', 0, 0),
		"label index too large": {1, 1, 1, 'a', 1, 0},
		"more children claimed": {2, 1, 1, 'a', 0, 2, 0, 0},
		"second root":           {2, 1, 1, 'a', 0, 0, 0, 0},
		"overlong uvarint":      bytes.Repeat([]byte{0x80}, 11),
	} {
		t.Run(name, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			got, err := xmltree.Unpack(b)
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Errorf("Unpack succeeded: %s", got)
			}
			if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<16 {
				t.Errorf("Unpack of %d bytes allocated %d", len(b), grew)
			}
		})
	}
}

// TestUnpackDepthBound: a tree of MaxDepth levels unpacks, one level
// more is refused, and a 140 000-deep chain costs what its bytes back
// (the slabs, sized before the depth is known) and nothing per level.
func TestUnpackDepthBound(t *testing.T) {
	if _, err := xmltree.Unpack(xmltree.Pack(chain(xmltree.MaxDepth))); err != nil {
		t.Errorf("a tree %d deep: %v", xmltree.MaxDepth, err)
	}
	for _, depth := range []int{xmltree.MaxDepth + 1, 140000} {
		b := xmltree.Pack(chain(depth))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got, err := xmltree.Unpack(b)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("a tree %d deep unpacked (%d nodes)", depth, got.Size())
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 32*uint64(len(b)) {
			t.Errorf("Unpack of %d bytes, %d deep, allocated %d", len(b), depth, grew)
		}
	}
}

// FuzzPackRoundTrip reads its input twice: as an XML document, whose tree
// must survive Pack and Unpack; and as packed bytes, which Unpack must
// reject or turn into a tree that itself round-trips.
func FuzzPackRoundTrip(f *testing.F) {
	f.Add([]byte(`<a x="1"><b>t</b><c><b/></c></a>`))
	f.Add(xmltree.Pack(chain(40)))
	f.Add(xmltree.Pack(xmlgen.New(dtd.XCBLLike(), xmlgen.Options{Seed: 2}).Generate()))
	f.Add([]byte{2, 1, 1, 'a', 0, 1, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		opts := xmltree.ParseOptions{TextAsNodes: true, AttributesAsNodes: true}
		if tr, err := xmltree.ParseString(string(data), opts); err == nil {
			roundTrip(t, tr)
		}
		if tr, err := xmltree.Unpack(data); err == nil && tr != nil {
			roundTrip(t, tr)
		}
	})
}

// flatNode rebuilds the subtree at node i of a loaded Flat.
func flatNode(f *xmltree.Flat, i int32) *xmltree.Node {
	n := &xmltree.Node{Label: f.Label(i)}
	for k := f.ChildStart[i]; k < f.ChildStart[i]+f.ChildCount[i]; k++ {
		n.Children = append(n.Children, flatNode(f, k))
	}
	return n
}

// FuzzLoadPacked holds the two other readers of packed bytes to Unpack:
// for any bytes, Flat.LoadPacked errs exactly when Unpack does, with the
// same error, and on success holds the unpacked tree's labels, child
// lists (in order) and depth; SkeletonScratch.BuildPacked builds Skeleton
// of that tree, or nothing when Unpack errs.
func FuzzLoadPacked(f *testing.F) {
	good := xmltree.Pack(xmlgen.New(dtd.XCBLLike(), xmlgen.Options{Seed: 2}).Generate())
	for _, seed := range [][]byte{
		[]byte(`<a x="1"><b>t</b><c><b/></c></a>`),
		xmltree.Pack(chain(40)),
		good,
		{2, 1, 1, 'a', 0, 1, 0, 0},
		xmltree.Pack(chain(xmltree.MaxDepth)),
		xmltree.Pack(chain(xmltree.MaxDepth + 1)),
		good[:len(good)/2],
		good[:len(good)-1],
		nil,
	} {
		f.Add(seed)
	}
	var flat xmltree.Flat
	var skel xmltree.SkeletonScratch
	f.Fuzz(func(t *testing.T, b []byte) {
		want, err := xmltree.Unpack(b)
		n, lerr := flat.LoadPacked(b, nil)
		if (err == nil) != (lerr == nil) || errors.Is(err, xmltree.ErrTooDeep) != errors.Is(lerr, xmltree.ErrTooDeep) {
			t.Fatalf("LoadPacked err = %v, Unpack err = %v", lerr, err)
		}
		sk := skel.BuildPacked(b)
		if err != nil || want == nil {
			if n != 0 || flat.Len() != 0 || flat.MaxDepth != -1 || sk != nil {
				t.Fatalf("no document, yet LoadPacked holds %d nodes at depth %d, BuildPacked %v", flat.Len(), flat.MaxDepth, sk)
			}
			return
		}
		if n != want.Size() || flat.MaxDepth != want.Depth()-1 || !flatNode(&flat, 0).Equal(want.Root) {
			t.Fatalf("LoadPacked: %d nodes at depth %d, want %d at %d, or its tree differs", n, flat.MaxDepth, want.Size(), want.Depth()-1)
		}
		if !sk.Equal(xmltree.Skeleton(want).Root) {
			t.Fatalf("BuildPacked = %s, Skeleton = %s", &xmltree.Tree{Root: sk}, xmltree.Skeleton(want))
		}
	})
}

// TestPackedSkeletonIsSkeleton: over NITF and xCBL streams, with text
// promoted and not, the skeleton built from a document's packed bytes
// is Skeleton of its tree, child order included.
func TestPackedSkeletonIsSkeleton(t *testing.T) {
	var s xmltree.SkeletonScratch
	for name, d := range map[string]*dtd.DTD{"nitf": dtd.NITFLike(), "xcbl": dtd.XCBLLike()} {
		for _, tr := range xmlgen.New(d, xmlgen.Options{Seed: 33, EmitText: true}).GenerateN(200) {
			x, err := xmltree.XMLString(tr, false)
			if err != nil {
				t.Fatal(err)
			}
			for _, opts := range []xmltree.ParseOptions{{}, {TextAsNodes: true}} {
				b, err := xmltree.ParsePacked(strings.NewReader(x), opts)
				if err != nil {
					t.Fatal(err)
				}
				doc, err := xmltree.ParseString(x, opts)
				if err != nil {
					t.Fatal(err)
				}
				if got, want := s.BuildPacked(b), xmltree.Skeleton(doc); !got.Equal(want.Root) {
					t.Fatalf("%s, %+v: BuildPacked = %s, Skeleton = %s", name, opts, &xmltree.Tree{Root: got}, want)
				}
			}
		}
	}
}
