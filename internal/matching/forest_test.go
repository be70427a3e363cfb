package matching

import (
	"math/rand"
	"sync"
	"testing"

	"treesim/internal/pattern"
	"treesim/internal/xmltree"
)

func forestOf(exprs ...string) (*Forest, []int) {
	f := NewForest()
	hs := make([]int, len(exprs))
	for i, s := range exprs {
		hs[i] = f.Add(pattern.MustParse(s))
	}
	return f, hs
}

func TestForestTableCases(t *testing.T) {
	cases := []struct {
		doc   string
		exprs []string
		want  []bool
	}{
		{
			doc:   "a(b,c)",
			exprs: []string{"/a/b", "//c", "/a[b][c]", "/x", "/*", "/.", "/a/b/c", "//*"},
			want:  []bool{true, true, true, false, true, true, false, true},
		},
		{
			// Root "//" binds the root itself; inner "//" needs a child.
			doc:   "a",
			exprs: []string{"//a", "/.[//a]", "/a[//a]", "/*[//a]"},
			want:  []bool{true, true, false, false},
		},
		{
			// Deep descendant chains and wildcards under "//".
			doc:   "r(x(y(z)),w)",
			exprs: []string{"//y/z", "//x//z", "/r/*/y", "/r[//z][w]", "//*", "//w/*"},
			want:  []bool{true, true, true, true, true, false},
		},
		{
			// Document labels colliding with operators: "*"-labeled and
			// "//"-labeled document nodes are matched by wildcards (no
			// label test) but by no tag.
			doc:   "a(*,//)",
			exprs: []string{"/a/*", "/a[//b]", "/./a"},
			want:  []bool{true, false, true},
		},
	}
	for _, tc := range cases {
		doc, err := xmltree.ParseCompact(tc.doc)
		if err != nil {
			t.Fatal(err)
		}
		f, hs := forestOf(tc.exprs...)
		ms := f.Match(doc)
		for i, h := range hs {
			p := pattern.MustParse(tc.exprs[i])
			if oracle := pattern.Matches(doc, p); oracle != tc.want[i] {
				t.Fatalf("test bug: oracle(%s, %s) = %v, want %v", tc.doc, tc.exprs[i], oracle, tc.want[i])
			}
			if got := ms.Has(h); got != tc.want[i] {
				t.Errorf("doc %s pattern %s: forest = %v, want %v", tc.doc, tc.exprs[i], got, tc.want[i])
			}
		}
		ms.Release()
	}
}

func TestForestEmptyAndNil(t *testing.T) {
	f := NewForest()
	empty := f.Add(pattern.New())
	tagged := f.Add(pattern.MustParse("/a"))
	nilPat := f.Add(nil)

	doc := xmltree.New("a")
	ms := f.Match(doc)
	if !ms.Has(empty) || !ms.Has(tagged) || ms.Has(nilPat) {
		t.Errorf("non-empty doc: empty=%v tagged=%v nil=%v", ms.Has(empty), ms.Has(tagged), ms.Has(nilPat))
	}
	ms.Release()

	for _, d := range []*xmltree.Tree{nil, {}} {
		ms := f.Match(d)
		if ms.Count() != 0 {
			t.Errorf("empty doc matched %d patterns, want 0", ms.Count())
		}
		ms.Release()
	}
}

func TestForestOracleFallback(t *testing.T) {
	// A hand-built pattern violating Validate ("//" with two children)
	// must still match correctly via the oracle path.
	p := pattern.New()
	d := p.Root.AddChild(pattern.Descendant)
	d.AddChild("a")
	d.AddChild("b")
	if p.Validate() == nil {
		t.Fatal("test bug: pattern unexpectedly valid")
	}
	f := NewForest()
	h := f.Add(p)
	hit, _ := xmltree.ParseCompact("r(x(a,b))")
	miss, _ := xmltree.ParseCompact("r(x(a),y(b))")
	for _, tc := range []struct {
		doc  *xmltree.Tree
		want bool
	}{{hit, true}, {miss, pattern.Matches(miss, p)}} {
		// As a tree, and as packed bytes with no tree: the oracle then
		// unpacks the arena's bytes.
		var doc xmltree.Flat
		if _, err := doc.LoadPacked(xmltree.Pack(tc.doc), f.Table()); err != nil {
			t.Fatal(err)
		}
		for _, ms := range []*MatchSet{f.Match(tc.doc), f.MatchFlat(nil, &doc)} {
			if got := ms.Has(h); got != tc.want {
				t.Errorf("doc %s: got %v, want %v", tc.doc, got, tc.want)
			}
			ms.Release()
		}
	}
	f.Remove(h)
	if f.Live() != 0 {
		t.Errorf("Live = %d after removing oracle entry", f.Live())
	}

	// A childless "//" operator makes pattern.Matches panic; through
	// the forest it must degrade to a non-matching subscription, not
	// crash the match path.
	crash := pattern.New()
	crash.Root.AddChild(pattern.Descendant)
	hc := f.Add(crash)
	ms := f.Match(hit)
	if ms.Has(hc) {
		t.Error("childless descendant oracle entry matched")
	}
	ms.Release()
}

func TestForestSharingAndChurn(t *testing.T) {
	f := NewForest()
	h1 := f.Add(pattern.MustParse("/a/b/c"))
	n1 := f.NodeCount()
	h2 := f.Add(pattern.MustParse("/a/b/c")) // identical: full sharing
	if f.NodeCount() != n1 {
		t.Errorf("identical pattern grew forest: %d -> %d", n1, f.NodeCount())
	}
	h3 := f.Add(pattern.MustParse("/x/b/c")) // shares the b/c suffix
	n3 := f.NodeCount()
	if n3 != n1+1 {
		t.Errorf("suffix sharing: NodeCount = %d, want %d (one new node)", n3, n1+1)
	}

	doc, _ := xmltree.ParseCompact("a(b(c))")
	ms := f.Match(doc)
	if !ms.Has(h1) || !ms.Has(h2) || ms.Has(h3) {
		t.Errorf("shared-node match wrong: %v %v %v", ms.Has(h1), ms.Has(h2), ms.Has(h3))
	}
	ms.Release()

	// Removing one copy must not affect the survivor.
	f.Remove(h2)
	if f.NodeCount() != n3 {
		t.Errorf("removing a shared copy freed nodes: %d, want %d", f.NodeCount(), n3)
	}
	ms = f.Match(doc)
	if !ms.Has(h1) || ms.Has(h2) {
		t.Errorf("after Remove(h2): h1=%v h2=%v", ms.Has(h1), ms.Has(h2))
	}
	ms.Release()

	f.Remove(h1)
	f.Remove(h3)
	if f.NodeCount() != 0 || f.Live() != 0 {
		t.Errorf("after removing all: nodes=%d live=%d", f.NodeCount(), f.Live())
	}
	for sym, id := range f.leafTag {
		if id != noNode {
			t.Errorf("leafTag[%d] retains dead node %d", sym, id)
		}
	}
	if f.wildLeaf != noNode {
		t.Errorf("wildLeaf retains dead node %d", f.wildLeaf)
	}

	// Handle and node-id reuse after full churn.
	h4 := f.Add(pattern.MustParse("/z"))
	ms = f.Match(xmltree.New("z"))
	if !ms.Has(h4) {
		t.Error("post-churn add does not match")
	}
	ms.Release()
	f.Remove(f.Add(pattern.MustParse("/dead")))
	if f.Live() != 1 {
		t.Errorf("Live = %d, want 1", f.Live())
	}
}

// TestForestAgainstOracleRandom cross-checks the forest against
// pattern.Matches over random documents and a mixed pattern set, with
// churn in the middle.
func TestForestAgainstOracleRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	labels := []string{"a", "b", "c", "d"}
	var randDoc func(depth int) *xmltree.Node
	randDoc = func(depth int) *xmltree.Node {
		n := &xmltree.Node{Label: labels[rng.Intn(len(labels))]}
		if depth < 4 {
			for i := 0; i < rng.Intn(3); i++ {
				n.Children = append(n.Children, randDoc(depth+1))
			}
		}
		return n
	}
	exprs := []string{
		"/a", "/a/b", "//c", "//b[c]", "/a[b][c]", "/*/d", "//a//d",
		"/b/*", "//d[a][b]", "/.", "/.[//c][//d]", "//*", "/a//*",
		"/*[a/b]", "//b/*/d", "/a[//d]/b",
	}
	pats := make([]*pattern.Pattern, len(exprs))
	f := NewForest()
	hs := make([]int, len(exprs))
	for i, s := range exprs {
		pats[i] = pattern.MustParse(s)
		hs[i] = f.Add(pats[i])
	}
	check := func(trials int) {
		for trial := 0; trial < trials; trial++ {
			doc := &xmltree.Tree{Root: randDoc(1)}
			ms := f.Match(doc)
			for i := range pats {
				if hs[i] < 0 {
					continue // removed
				}
				want := pattern.Matches(doc, pats[i])
				if got := ms.Has(hs[i]); got != want {
					t.Fatalf("doc %s pattern %s: forest = %v, oracle = %v", doc, exprs[i], got, want)
				}
			}
			ms.Release()
		}
	}
	check(200)
	// Churn: drop every other pattern, re-check, re-add.
	for i := 0; i < len(hs); i += 2 {
		f.Remove(hs[i])
		hs[i] = -1
	}
	check(100)
	for i := 0; i < len(hs); i += 2 {
		hs[i] = f.Add(pats[i])
	}
	check(100)
}

// TestForestConcurrentMatch exercises concurrent Match calls (pooled
// scratch) under -race.
func TestForestConcurrentMatch(t *testing.T) {
	f, hs := forestOf("/a/b", "//c", "/.", "//*", "/a[b][c]")
	docs := []*xmltree.Tree{}
	for _, s := range []string{"a(b,c)", "a(b(c))", "x", "c"} {
		d, _ := xmltree.ParseCompact(s)
		docs = append(docs, d)
	}
	want := make([][]bool, len(docs))
	for di, d := range docs {
		ms := f.Match(d)
		row := make([]bool, len(hs))
		for i, h := range hs {
			row[i] = ms.Has(h)
		}
		want[di] = row
		ms.Release()
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				di := (g + i) % len(docs)
				ms := f.Match(docs[di])
				for j, h := range hs {
					if ms.Has(h) != want[di][j] {
						t.Errorf("concurrent mismatch doc %d pattern %d", di, j)
						ms.Release()
						return
					}
				}
				ms.Release()
			}
		}(g)
	}
	wg.Wait()
}
