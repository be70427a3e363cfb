package xmltree

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func mustParse(t *testing.T, s string) *Tree {
	t.Helper()
	tr, err := ParseCompact(s)
	if err != nil {
		t.Fatalf("ParseCompact(%q): %v", s, err)
	}
	return tr
}

func TestParseCompactRoundTrip(t *testing.T) {
	cases := []string{
		"a",
		"a(b)",
		"a(b,c)",
		"a(b(c,d),e(f))",
		"media(book(author(first(William),last(Shakespeare)),title(Hamlet)),CD(composer(first(Wolfgang),last(Mozart)),title(Requiem),interpreter(ensemble(Berliner-Phil.))))",
	}
	for _, s := range cases {
		tr := mustParse(t, s)
		if got := tr.String(); got != s {
			t.Errorf("round trip: got %q want %q", got, s)
		}
	}
}

func TestParseCompactErrors(t *testing.T) {
	bad := []string{"", "(", "a(", "a(b", "a(b,)", "a)b", "a(b))", "a b", ",", "a(,b)"}
	for _, s := range bad {
		if _, err := ParseCompact(s); err == nil {
			t.Errorf("ParseCompact(%q): expected error", s)
		}
	}
}

func TestSizeDepth(t *testing.T) {
	tr := mustParse(t, "a(b(c,d),e)")
	if got := tr.Size(); got != 5 {
		t.Errorf("Size = %d, want 5", got)
	}
	if got := tr.Depth(); got != 3 {
		t.Errorf("Depth = %d, want 3", got)
	}
	if got := tr.TagPairs(); got != 5 {
		t.Errorf("TagPairs = %d, want 5", got)
	}
	var empty *Tree
	if empty.Size() != 0 || empty.Depth() != 0 {
		t.Errorf("nil tree should have size/depth 0")
	}
}

func TestCloneIndependence(t *testing.T) {
	tr := mustParse(t, "a(b(c),d)")
	cp := tr.Clone()
	if !tr.Root.Equal(cp.Root) {
		t.Fatalf("clone differs from original")
	}
	cp.Root.Children[0].Label = "zzz"
	if tr.Root.Children[0].Label == "zzz" {
		t.Errorf("mutating clone affected original")
	}
}

func TestCanonicalize(t *testing.T) {
	a := mustParse(t, "a(c,b(e,d))")
	b := mustParse(t, "a(b(d,e),c)")
	a.Canonicalize()
	b.Canonicalize()
	if !a.Root.Equal(b.Root) {
		t.Errorf("canonical forms differ: %s vs %s", a, b)
	}
}

func TestLabelPaths(t *testing.T) {
	tr := mustParse(t, "a(b(c),b(d),e)")
	got := tr.LabelPaths()
	want := []string{"/a", "/a/b", "/a/b/c", "/a/b/d", "/a/e"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("LabelPaths = %v, want %v", got, want)
	}
}

func TestSkeletonCoalesces(t *testing.T) {
	// Two "b" children with different grandchildren coalesce into one
	// "b" holding both.
	tr := mustParse(t, "a(b(c),b(d),e)")
	sk := Skeleton(tr)
	want := mustParse(t, "a(b(c,d),e)")
	sk.Canonicalize()
	want.Canonicalize()
	if !sk.Root.Equal(want.Root) {
		t.Errorf("Skeleton = %s, want %s", sk, want)
	}
	if !IsSkeleton(sk) {
		t.Errorf("Skeleton output is not a skeleton")
	}
}

func TestSkeletonRecursiveCoalesce(t *testing.T) {
	// Coalescing must continue below merged nodes: the two e-children
	// arising from distinct b-parents must merge too.
	tr := mustParse(t, "a(b(e(k)),b(e(m)))")
	sk := Skeleton(tr)
	want := mustParse(t, "a(b(e(k,m)))")
	sk.Canonicalize()
	want.Canonicalize()
	if !sk.Root.Equal(want.Root) {
		t.Errorf("Skeleton = %s, want %s", sk, want)
	}
}

func TestSkeletonPaperT1(t *testing.T) {
	// T1 from Figure 2: a(b(e(k),g(k,m),e(m))) has skeleton
	// a(b(e(k,m),g(k,m))).
	t1 := mustParse(t, "a(b(e(k),g(k,m),e(m)))")
	sk := Skeleton(t1)
	want := mustParse(t, "a(b(e(k,m),g(k,m)))")
	sk.Canonicalize()
	want.Canonicalize()
	if !sk.Root.Equal(want.Root) {
		t.Errorf("Skeleton(T1) = %s, want %s", sk, want)
	}
}

func TestSkeletonPreservesLabelPaths(t *testing.T) {
	f := func(seed int64) bool {
		tr := randomTree(rand.New(rand.NewSource(seed)), 4, 3)
		sk := Skeleton(tr)
		return reflect.DeepEqual(tr.LabelPaths(), sk.LabelPaths()) && IsSkeleton(sk)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSkeletonIdempotent(t *testing.T) {
	f := func(seed int64) bool {
		tr := randomTree(rand.New(rand.NewSource(seed)), 4, 3)
		s1 := Skeleton(tr)
		s2 := Skeleton(s1)
		s1.Canonicalize()
		s2.Canonicalize()
		return s1.Root.Equal(s2.Root)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// randomTree builds a small random tree over a tiny alphabet so that
// same-tag siblings are common and skeletonization is exercised.
func randomTree(rng *rand.Rand, maxDepth, maxFanout int) *Tree {
	labels := []string{"a", "b", "c", "d"}
	var build func(depth int) *Node
	build = func(depth int) *Node {
		n := &Node{Label: labels[rng.Intn(len(labels))]}
		if depth < maxDepth {
			for i := 0; i < rng.Intn(maxFanout+1); i++ {
				n.Children = append(n.Children, build(depth+1))
			}
		}
		return n
	}
	return &Tree{Root: build(1)}
}

func TestParseXMLBasic(t *testing.T) {
	tr, err := ParseString(`<a><b><c/></b><b><d/></b></a>`, ParseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := mustParse(t, "a(b(c),b(d))")
	if !tr.Root.Equal(want.Root) {
		t.Errorf("parsed %s, want %s", tr, want)
	}
}

func TestParseXMLTextAsNodes(t *testing.T) {
	tr, err := ParseString(`<cd><composer>Mozart</composer></cd>`, ParseOptions{TextAsNodes: true})
	if err != nil {
		t.Fatal(err)
	}
	want := mustParse(t, "cd(composer(Mozart))")
	if !tr.Root.Equal(want.Root) {
		t.Errorf("parsed %s, want %s", tr, want)
	}
	// Without the option, text disappears.
	tr2, err := ParseString(`<cd><composer>Mozart</composer></cd>`, ParseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := tr2.String(); got != "cd(composer)" {
		t.Errorf("parsed %q, want cd(composer)", got)
	}
}

func TestParseXMLAttributes(t *testing.T) {
	tr, err := ParseString(`<a x="1"><b/></a>`, ParseOptions{AttributesAsNodes: true, TextAsNodes: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.String(); got != "a(@x(1),b)" {
		t.Errorf("parsed %q, want a(@x(1),b)", got)
	}
}

func TestParseXMLErrors(t *testing.T) {
	for _, s := range []string{"", "<a>", "<a></b>", "<a/><b/>", "text only"} {
		if _, err := ParseString(s, ParseOptions{}); err == nil {
			t.Errorf("ParseString(%q): expected error", s)
		}
	}
}

func TestXMLRoundTrip(t *testing.T) {
	tr := mustParse(t, "a(b(c,d),e)")
	s, err := XMLString(tr, false)
	if err != nil {
		t.Fatal(err)
	}
	if s != "<a><b><c/><d/></b><e/></a>" {
		t.Errorf("XMLString = %q", s)
	}
	back, err := ParseString(s, ParseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !back.Root.Equal(tr.Root) {
		t.Errorf("XML round trip: got %s want %s", back, tr)
	}
	// Indented output parses back to the same tree too.
	si, err := XMLString(tr, true)
	if err != nil {
		t.Fatal(err)
	}
	back2, err := ParseString(si, ParseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !back2.Root.Equal(tr.Root) {
		t.Errorf("indented XML round trip: got %s want %s", back2, tr)
	}
	if !strings.Contains(si, "\n") {
		t.Errorf("indented output has no newlines: %q", si)
	}
}

type failWriter struct{ after int }

func (w *failWriter) Write(p []byte) (int, error) {
	w.after -= len(p)
	if w.after < 0 {
		return 0, fmt.Errorf("synthetic write failure")
	}
	return len(p), nil
}

func TestWriteXMLPropagatesErrors(t *testing.T) {
	tr := mustParse(t, "a(b(c,d),e)")
	if err := WriteXML(&failWriter{after: 5}, tr, false); err == nil {
		t.Error("expected write error")
	}
	if err := WriteXML(&failWriter{after: 5}, tr, true); err == nil {
		t.Error("expected write error (indented)")
	}
	if err := WriteXML(&failWriter{after: 1 << 20}, nil, false); err == nil {
		t.Error("expected error for nil tree")
	}
	if _, err := XMLString(&Tree{}, false); err == nil {
		t.Error("expected error for empty tree")
	}
}

func TestWalkPruning(t *testing.T) {
	tr := mustParse(t, "a(b(c),d)")
	var visited []string
	tr.Root.Walk(func(n *Node) bool {
		visited = append(visited, n.Label)
		return n.Label != "b" // do not descend into b
	})
	if !reflect.DeepEqual(visited, []string{"a", "b", "d"}) {
		t.Errorf("Walk visited %v", visited)
	}
}

// IsSkeleton reports whether no node of the tree has two children with
// the same tag, i.e. whether the tree is its own skeleton.
func IsSkeleton(t *Tree) bool {
	if t == nil || t.Root == nil {
		return true
	}
	ok := true
	t.Root.Walk(func(n *Node) bool {
		seen := make(map[string]struct{}, len(n.Children))
		for _, c := range n.Children {
			if _, dup := seen[c.Label]; dup {
				ok = false
				return false
			}
			seen[c.Label] = struct{}{}
		}
		return ok
	})
	return ok
}
