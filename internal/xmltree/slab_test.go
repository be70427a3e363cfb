package xmltree

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
	"unsafe"
)

// allNodes lists the tree's nodes in preorder.
func allNodes(t *Tree) []*Node {
	var out []*Node
	t.Root.Walk(func(n *Node) bool { out = append(out, n); return true })
	return out
}

// TestParsedTreeAppendTouchesNoSibling: child lists are cut from one
// slab with cap == len, so growing any node's list must reallocate that
// list and leave every other node's children exactly as they were.
func TestParsedTreeAppendTouchesNoSibling(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for round := 0; round < 20; round++ {
		want := randomTree(rng, 5, 4)
		src, err := XMLString(want, false)
		if err != nil {
			t.Fatal(err)
		}
		count := want.Size()
		for i := 0; i < count; i++ {
			for _, grow := range []func(n *Node){
				func(n *Node) { n.AddChild("added") },
				func(n *Node) { n.Children = append(n.Children, &Node{Label: "added"}) },
			} {
				got, err := ParseString(src, ParseOptions{})
				if err != nil {
					t.Fatal(err)
				}
				nodes, wantNodes := allNodes(got), allNodes(want)
				grow(nodes[i])
				for j, n := range nodes {
					if j == i {
						n.Children = n.Children[:len(n.Children)-1]
					}
					if len(n.Children) != len(wantNodes[j].Children) {
						t.Fatalf("%s: growing node %d changed node %d's child count", src, i, j)
					}
					for k, c := range n.Children {
						if c.Label != wantNodes[j].Children[k].Label {
							t.Fatalf("%s: growing node %d overwrote child %d of node %d with %q", src, i, k, j, c.Label)
						}
					}
				}
			}
		}
	}
}

// TestParsedTreeBehavesLikeBuiltTree: everything downstream of Parse
// must see a slab tree exactly as it sees one built node by node.
func TestParsedTreeBehavesLikeBuiltTree(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for round := 0; round < 50; round++ {
		built := randomTree(rng, 6, 4)
		src, err := XMLString(built, false)
		if err != nil {
			t.Fatal(err)
		}
		built = mustParse(t, built.String()) // via ParseCompact
		parsed, err := ParseString(src, ParseOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !parsed.Root.Equal(built.Root) {
			t.Fatalf("parsed %s, built %s", parsed, built)
		}
		if a, b := parsed.Clone(), built.Clone(); !a.Root.Equal(b.Root) {
			t.Fatalf("Clone: parsed %s, built %s", a, b)
		}
		if a, b := Skeleton(parsed), Skeleton(built); !a.Root.Equal(b.Root) {
			t.Fatalf("Skeleton: parsed %s, built %s", a, b)
		}
		var fa, fb Flat
		fa.Load(parsed, nil)
		fb.Load(built, nil)
		if flatString(&fa) != flatString(&fb) {
			t.Fatalf("Flat.Load differs for %s", src)
		}
		// Canonicalize sorts child lists in place, inside the slab.
		if a, b := parsed.Canonicalize(), built.Canonicalize(); !a.Root.Equal(b.Root) {
			t.Fatalf("Canonicalize: parsed %s, built %s", a, b)
		}
	}
}

// flatString lists f's labels, child ranges and depth.
func flatString(f *Flat) string {
	var labels []string
	for i := range f.Len() {
		labels = append(labels, f.Label(int32(i)))
	}
	return fmt.Sprint(labels, f.ChildStart, f.ChildCount, f.MaxDepth)
}

// TestParsedLabelsDoNotAliasInput: Parse's read buffer is pooled, so a
// label that pointed into it (or into the caller's bytes) would change
// under the next document.
func TestParsedLabelsDoNotAliasInput(t *testing.T) {
	long := strings.Repeat("long-text-over-the-cache-limit-", 4)
	src := []byte(`<doc:root id="r&amp;1" ` + "long='" + long + "'" + `><item>plain</item><item>a &lt; b&#x21;</item><x>` + long + `</x></doc:root>`)
	const want = "root(@id(r&1),@long(" + "LONG" + "),item(plain),item(a < b!),x(LONG))"
	opts := ParseOptions{TextAsNodes: true, AttributesAsNodes: true}
	tr, err := Parse(bytes.NewReader(src), opts)
	if err != nil {
		t.Fatal(err)
	}
	show := func() string { return strings.ReplaceAll(tr.String(), long, "LONG") }
	if got := show(); got != want {
		t.Fatalf("parsed %s, want %s", got, want)
	}
	for i := range src {
		src[i] = 'Z'
	}
	// The same scratch, body buffer included, takes the next documents.
	for i := 0; i < 4; i++ {
		if _, err := Parse(strings.NewReader("<q>"+strings.Repeat("Q", len(src))+"</q>"), opts); err != nil {
			t.Fatal(err)
		}
	}
	if got := show(); got != want {
		t.Fatalf("after overwriting the input: %s, want %s", got, want)
	}
}

// genDoc returns an XML document of n elements over a small vocabulary.
func genDoc(n int) string {
	var b strings.Builder
	b.WriteString("<root>")
	for i := 1; i < n; i += 4 {
		fmt.Fprintf(&b, "<sec%d><p/><q%d/><p/></sec%d>", i%7, i%5, i%7)
	}
	b.WriteString("</root>")
	return b.String()
}

// TestParseAllocatesPerDocument: two slabs and the Tree, whatever the
// node count, once the label cache has seen the vocabulary; nothing for a
// skeleton and one []byte for Pack once their scratch is warm.
func TestParseAllocatesPerDocument(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	for _, n := range []int{100, 1000} {
		doc := genDoc(n)
		tr, err := ParseString(doc, ParseOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if size := tr.Size(); size < n || size > n+4 {
			t.Fatalf("genDoc(%d) has %d nodes", n, size)
		}
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := ParseString(doc, ParseOptions{}); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 8 {
			t.Errorf("ParseString of a %d-node document: %.1f allocations, want at most 8", n, allocs)
		}

		var s SkeletonScratch
		want, packed := Skeleton(tr), Pack(tr)
		if !s.BuildPacked(packed).Equal(want.Root) {
			t.Fatalf("scratch skeleton differs from Skeleton")
		}
		if allocs := testing.AllocsPerRun(100, func() { s.BuildPacked(packed) }); allocs != 0 {
			t.Errorf("warm SkeletonScratch.BuildPacked of a %d-node document: %.1f allocations, want 0", n, allocs)
		}
		if got := s.BuildPacked(packed); !got.Equal(want.Root) {
			t.Fatalf("reused scratch built %s, want %s", &Tree{Root: got}, want)
		}
		var f Flat
		if allocs := testing.AllocsPerRun(100, func() { f.LoadPacked(packed, nil) }); allocs != 0 {
			t.Errorf("warm Flat.LoadPacked of a %d-node document: %.1f allocations, want 0", n, allocs)
		}

		// Retention costs a publish exactly the packed bytes.
		if allocs := testing.AllocsPerRun(100, func() { Pack(tr) }); allocs != 1 {
			t.Errorf("warm Pack of a %d-node document: %.1f allocations, want 1", n, allocs)
		}
	}
}

// TestSkeletonScratchAcrossDocuments reuses one scratch over documents
// of changing shape and size, including one past skeletonKeep and one
// whose nodes outgrow the child scan.
func TestSkeletonScratchAcrossDocuments(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var s SkeletonScratch
	for round := 0; round < 200; round++ {
		doc := randomTree(rng, 1+rng.Intn(6), 1+rng.Intn(5))
		switch round {
		case 100:
			doc = New("wide")
			for i := 0; i < 2*skeletonKeep; i++ {
				doc.Root.AddChild(fmt.Sprintf("c%d", i)).AddChild("leaf")
			}
		case 101:
			doc = New("wide")
			for i := 0; i < 4*skeletonScan; i++ {
				c := doc.Root.AddChild(fmt.Sprintf("c%d", i%(2*skeletonScan)))
				c.AddChild(fmt.Sprintf("d%d", i%3))
			}
		}
		want := Skeleton(doc)
		if got := s.BuildPacked(Pack(doc)); !got.Equal(want.Root) {
			t.Fatalf("round %d: scratch built %s, want %s", round, &Tree{Root: got}, want)
		}
		s.Release()
		if s.pinsDocument() {
			t.Fatalf("round %d: scratch still points into the document", round)
		}
	}
	if s.BuildPacked(nil) != nil || s.BuildPacked(Pack(&Tree{})) != nil {
		t.Fatal("empty document must build a nil skeleton")
	}
}

// pinsDocument reports whether s holds anything that could alias the
// bytes of a document it was built from.
func (s *SkeletonScratch) pinsDocument() bool {
	for _, c := range s.chunks {
		for i := range c {
			if c[i].Label != "" {
				return true
			}
		}
	}
	return slices.ContainsFunc(s.dict[:cap(s.dict)], func(l string) bool { return l != "" }) ||
		len(s.wide) != 0 || s.rd.b != nil
}

// labelCacheLoad counts the cache's entries and their bytes.
func labelCacheLoad() (entries, size int) {
	for i := range labelCache {
		for j := range labelCache[i] {
			if p := labelCache[i][j].Load(); p != nil {
				entries++
				size += len(*p)
			}
		}
	}
	return entries, size
}

// TestLabelCacheBoundedAndConcurrent: a stream of distinct promoted
// text values must not grow the cache past its constant cap, nor evict
// so eagerly that a small vocabulary stops being shared; and parsing
// from several goroutines at once is race-free (run with -race).
func TestLabelCacheBoundedAndConcurrent(t *testing.T) {
	const workers, perWorker = 8, 12500 // 100 000 documents
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				doc := fmt.Sprintf("<entry id='%d'><title>value %d of worker %d</title><body/></entry>", i, i, w)
				tr, err := ParseString(doc, ParseOptions{TextAsNodes: true, AttributesAsNodes: true})
				if err != nil {
					t.Error(err)
					return
				}
				if want := fmt.Sprintf("entry(@id(%d),title(value %d of worker %d),body)", i, i, w); tr.String() != want {
					t.Errorf("parsed %s, want %s", tr, want)
					return
				}
			}
		}()
	}
	wg.Wait()
	entries, size := labelCacheLoad()
	if entries > labelCacheSets*labelCacheWays || size > labelCacheSets*labelCacheWays*labelCacheMaxLen {
		t.Fatalf("label cache holds %d labels, %d bytes: over its cap", entries, size)
	}
	a, _ := ParseString("<entry><title/></entry>", ParseOptions{})
	b, _ := ParseString("<entry><title/></entry>", ParseOptions{})
	if unsafe.StringData(a.Root.Label) != unsafe.StringData(b.Root.Label) {
		t.Error("the same tag in two documents is two strings: the cache shares nothing")
	}
}
