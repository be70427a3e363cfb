package selectivity

import (
	"math"
	"math/rand"
	"testing"

	"treesim/internal/matchset"
	"treesim/internal/pattern"
	"treesim/internal/synopsis"
	"treesim/internal/xmltree"
)

// corpus6 reproduces the paper's Section 3.2 example regime: b and d
// are mutually exclusive, f and o always co-occur under c.
var corpus6 = []string{
	"a(b(e))",
	"a(b(f))",
	"a(b,c(f,o))",
	"a(d,c(f,o))",
	"a(d(e))",
	"a(d(q))",
}

func parseDocs(t *testing.T, specs []string) []*xmltree.Tree {
	t.Helper()
	out := make([]*xmltree.Tree, len(specs))
	for i, s := range specs {
		tr, err := xmltree.ParseCompact(s)
		if err != nil {
			t.Fatalf("parse %q: %v", s, err)
		}
		out[i] = tr
	}
	return out
}

func build(t *testing.T, kind matchset.Kind, docs []*xmltree.Tree) *Estimator {
	t.Helper()
	opts := synopsis.Options{Kind: kind, Seed: 42, SetCapacity: 1 << 20, HashCapacity: 1 << 20}
	s := synopsis.New(opts)
	for _, d := range docs {
		s.Insert(d)
	}
	return New(s)
}

// exactSkeletonP returns the fraction of documents whose skeleton
// matches p — the semantics the synopsis observes.
func exactSkeletonP(docs []*xmltree.Tree, p *pattern.Pattern) float64 {
	n := 0
	for _, d := range docs {
		if pattern.MatchesSkeleton(d, p) {
			n++
		}
	}
	return float64(n) / float64(len(docs))
}

func TestSetsModeIsExact(t *testing.T) {
	docs := parseDocs(t, corpus6)
	est := build(t, matchset.KindSets, docs)
	queries := []string{
		"/a", "/x", "/a/b", "/a/c", "/a/d",
		"/a/b/e", "/a/c/f", "/a/c/o", "/a/d/q",
		"//f", "//e", "//q", "//c/f",
		"/a//f", "/*/c/o", "/a/*/f",
		"/a[b][d]",     // the mutually-exclusive branch example: 0
		"/a[c/f][c/o]", // co-occurring branches: 1/3
		"/.[//b][//d]", // root conjunction, disjoint: 0
		"/.[//f][//o]", // root conjunction, co-occurring: 1/3
		"//c[f][o]", "/a//b/e", "/.",
	}
	for _, q := range queries {
		p := pattern.MustParse(q)
		want := exactSkeletonP(docs, p)
		if got := est.P(p); math.Abs(got-want) > 1e-12 {
			t.Errorf("P(%s) = %v, want %v", q, got, want)
		}
	}
}

func TestHashesModeExactUnderCapacity(t *testing.T) {
	docs := parseDocs(t, corpus6)
	est := build(t, matchset.KindHashes, docs)
	for _, q := range []string{"/a/b", "/a[c/f][c/o]", "//e", "/a[b][d]"} {
		p := pattern.MustParse(q)
		want := exactSkeletonP(docs, p)
		if got := est.P(p); math.Abs(got-want) > 1e-12 {
			t.Errorf("P(%s) = %v, want %v", q, got, want)
		}
	}
}

func TestCountersIndependenceBaseline(t *testing.T) {
	// The paper's Section 3.2 numbers: counters estimate P(a[b][d]) as
	// 1/4 (correct: 0) and P(a[c/f][c/o]) as 1/9 (correct: 1/3).
	docs := parseDocs(t, corpus6)
	est := build(t, matchset.KindCounters, docs)
	if got := est.P(pattern.MustParse("/a[b][d]")); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("counters P(a[b][d]) = %v, want 0.25", got)
	}
	if got := est.P(pattern.MustParse("/a[c/f][c/o]")); math.Abs(got-1.0/9) > 1e-12 {
		t.Errorf("counters P(a[c/f][c/o]) = %v, want 1/9", got)
	}
	// Single paths remain exact with counters.
	if got := est.P(pattern.MustParse("/a/b")); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("counters P(/a/b) = %v, want 0.5", got)
	}
}

func TestEmptyAndImpossiblePatterns(t *testing.T) {
	docs := parseDocs(t, corpus6)
	est := build(t, matchset.KindSets, docs)
	if got := est.P(pattern.New()); got != 1 {
		t.Errorf("P(empty pattern) = %v, want 1", got)
	}
	if got := est.P(pattern.MustParse("//nosuchtag")); got != 0 {
		t.Errorf("P(//nosuchtag) = %v, want 0", got)
	}
	// Empty synopsis.
	s := synopsis.New(synopsis.Options{Kind: matchset.KindSets})
	if got := New(s).P(pattern.MustParse("/a")); got != 0 {
		t.Errorf("P over empty synopsis = %v, want 0", got)
	}
}

func TestDescendantZeroLength(t *testing.T) {
	docs := parseDocs(t, []string{"a(b(c))", "a(x(b(c)))", "a(b)"})
	est := build(t, matchset.KindSets, docs)
	// /a//b[c]: b at depth 1 (zero-length //) or deeper.
	if got := est.P(pattern.MustParse("/a//b[c]")); math.Abs(got-2.0/3) > 1e-12 {
		t.Errorf("P(/a//b[c]) = %v, want 2/3", got)
	}
	// //a: the root itself is a descendant-or-self.
	if got := est.P(pattern.MustParse("//a")); got != 1 {
		t.Errorf("P(//a) = %v, want 1", got)
	}
	// //b: depth 1 and 2.
	if got := est.P(pattern.MustParse("//b")); got != 1 {
		t.Errorf("P(//b) = %v, want 1", got)
	}
}

func TestFoldedLabelEvaluation(t *testing.T) {
	docs := parseDocs(t, corpus6)
	opts := synopsis.Options{Kind: matchset.KindSets, Seed: 1, SetCapacity: 1 << 20}
	s := synopsis.New(opts)
	for _, d := range docs {
		s.Insert(d)
	}
	// Fold f and o into c: label c[f][o], store = {2,3}.
	var cNode *synopsis.Node
	for _, n := range s.Nodes() {
		if n.Label().Tag == "c" {
			cNode = n
		}
	}
	for _, tag := range []string{"f", "o"} {
		for _, n := range s.Nodes() {
			if n.Label().Tag == tag && len(n.Parents()) == 1 && n.Parents()[0] == cNode {
				if err := s.FoldLeaf(n); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	est := New(s)
	cases := map[string]float64{
		"/a/c/f":      2.0 / 6, // via nested label
		"/a/c/o":      2.0 / 6,
		"/a/c[f][o]":  2.0 / 6,
		"//o":         2.0 / 6, // descendant into folded structure
		"/a/c/f/deep": 0,       // cannot extend beyond the fold
		"/a/c/*":      2.0 / 6, // wildcard embeds in nested label
		"//c[f]":      2.0 / 6,
	}
	for q, want := range cases {
		if got := est.P(pattern.MustParse(q)); math.Abs(got-want) > 1e-12 {
			t.Errorf("P(%s) over folded synopsis = %v, want %v", q, got, want)
		}
	}
	// Note: //f over the folded synopsis must still find f via c's label.
	if got := est.P(pattern.MustParse("//f")); math.Abs(got-2.0/6) > 1e-9 {
		// Doc 1 ("a(b(f))") still has a real f node under b; docs 2,3
		// have f folded under c. Expect 3/6.
		t.Logf("//f = %v (real f under b plus folded f under c)", got)
	}
	if got := est.P(pattern.MustParse("//f")); math.Abs(got-3.0/6) > 1e-12 {
		t.Errorf("P(//f) = %v, want 1/2", got)
	}
}

func TestMergedSynopsisDAGEvaluation(t *testing.T) {
	// Lossless merge: identical matching sets.
	docs := parseDocs(t, []string{"r(x(k),y(k))", "r(x(k),y(k))", "r(x,y)"})
	opts := synopsis.Options{Kind: matchset.KindSets, Seed: 1, SetCapacity: 1 << 20}
	s := synopsis.New(opts)
	for _, d := range docs {
		s.Insert(d)
	}
	var ks []*synopsis.Node
	for _, n := range s.Nodes() {
		if n.Label().Tag == "k" {
			ks = append(ks, n)
		}
	}
	if len(ks) != 2 {
		t.Fatalf("expected 2 k nodes, got %d", len(ks))
	}
	if err := s.MergeNodes(ks[0], ks[1]); err != nil {
		t.Fatal(err)
	}
	est := New(s)
	cases := map[string]float64{
		"/r/x/k":     2.0 / 3,
		"/r/y/k":     2.0 / 3,
		"//k":        2.0 / 3,
		"/r[x/k][y]": 2.0 / 3,
		"/r[x][y]":   1,
	}
	for q, want := range cases {
		if got := est.P(pattern.MustParse(q)); math.Abs(got-want) > 1e-12 {
			t.Errorf("P(%s) over merged synopsis = %v, want %v", q, got, want)
		}
	}
}

func TestPAndPOr(t *testing.T) {
	docs := parseDocs(t, corpus6)
	est := build(t, matchset.KindSets, docs)
	p := pattern.MustParse("//f")
	q := pattern.MustParse("//o")
	// f in docs 1,2,3; o in docs 2,3.
	if got := est.PAnd(p, q); math.Abs(got-2.0/6) > 1e-12 {
		t.Errorf("PAnd = %v, want 1/3", got)
	}
	// P(p ∨ q) by inclusion–exclusion: f or o in docs 1,2,3.
	if got := est.P(p) + est.P(q) - est.PAnd(p, q); math.Abs(got-3.0/6) > 1e-12 {
		t.Errorf("P(p) + P(q) - PAnd = %v, want 1/2", got)
	}
	// Conjunction is bounded by each conjunct (exact sets).
	if est.PAnd(p, q) > math.Min(est.P(p), est.P(q))+1e-12 {
		t.Error("PAnd exceeds min of marginals")
	}
}

func TestEstimatorAgainstExactSemantics(t *testing.T) {
	// Property: with unbounded Sets, the estimator equals exact
	// skeleton-semantics evaluation for random corpora and patterns.
	rng := rand.New(rand.NewSource(2024))
	for trial := 0; trial < 30; trial++ {
		var docs []*xmltree.Tree
		for i := 0; i < 25; i++ {
			docs = append(docs, randomDoc(rng))
		}
		est := build(t, matchset.KindSets, docs)
		for i := 0; i < 40; i++ {
			p := randomPattern(rng)
			want := exactSkeletonP(docs, p)
			got := est.P(p)
			if math.Abs(got-want) > 1e-12 {
				t.Fatalf("trial %d: P(%s) = %v, want %v\ndocs: %v", trial, p, got, want, docStrings(docs))
			}
		}
	}
}

func docStrings(docs []*xmltree.Tree) []string {
	out := make([]string, len(docs))
	for i, d := range docs {
		out[i] = d.String()
	}
	return out
}

func randomDoc(rng *rand.Rand) *xmltree.Tree {
	labels := []string{"a", "b", "c", "d", "e"}
	var buildNode func(depth int) *xmltree.Node
	buildNode = func(depth int) *xmltree.Node {
		n := &xmltree.Node{Label: labels[rng.Intn(len(labels))]}
		if depth < 4 {
			for i := 0; i < rng.Intn(3); i++ {
				n.Children = append(n.Children, buildNode(depth+1))
			}
		}
		return n
	}
	return &xmltree.Tree{Root: buildNode(1)}
}

func randomPattern(rng *rand.Rand) *pattern.Pattern {
	labels := []string{"a", "b", "c", "d", "e"}
	var buildNode func(depth int, allowDesc bool) *pattern.Node
	buildNode = func(depth int, allowDesc bool) *pattern.Node {
		r := rng.Float64()
		var n *pattern.Node
		switch {
		case allowDesc && r < 0.2:
			n = &pattern.Node{Label: pattern.Descendant}
			n.Children = []*pattern.Node{buildNode(depth+1, false)}
			return n
		case r < 0.35:
			n = &pattern.Node{Label: pattern.Wildcard}
		default:
			n = &pattern.Node{Label: labels[rng.Intn(len(labels))]}
		}
		if depth < 3 {
			for i := 0; i < rng.Intn(3); i++ {
				n.Children = append(n.Children, buildNode(depth+1, true))
			}
		}
		return n
	}
	p := pattern.New()
	for i := 0; i < 1+rng.Intn(2); i++ {
		p.Root.Children = append(p.Root.Children, buildNode(1, true))
	}
	if err := p.Validate(); err != nil {
		panic(err)
	}
	return p
}

func TestHashesSetsAgreeWhenUnbounded(t *testing.T) {
	// Differential property: with capacities exceeding the corpus, the
	// Hashes and Sets estimators must agree exactly on every query (no
	// subsampling ever happens, so both are exact).
	rng := rand.New(rand.NewSource(404))
	for trial := 0; trial < 10; trial++ {
		var docs []*xmltree.Tree
		for i := 0; i < 30; i++ {
			docs = append(docs, randomDoc(rng))
		}
		hashes := build(t, matchset.KindHashes, docs)
		sets := build(t, matchset.KindSets, docs)
		for i := 0; i < 30; i++ {
			p := randomPattern(rng)
			a, b := hashes.P(p), sets.P(p)
			if a != b {
				t.Fatalf("trial %d: hashes %v != sets %v for %s", trial, a, b, p)
			}
		}
	}
}

func TestExactRootCardOption(t *testing.T) {
	// With ExactRootCard the denominator is the true stream length;
	// for an unbounded synopsis both choices coincide.
	docs := parseDocs(t, corpus6)
	for _, exact := range []bool{false, true} {
		s := synopsis.New(synopsis.Options{
			Kind: matchset.KindHashes, HashCapacity: 1 << 20, Seed: 1, ExactRootCard: exact,
		})
		for _, d := range docs {
			s.Insert(d)
		}
		est := New(s)
		if got := est.P(pattern.MustParse("/a/b")); math.Abs(got-0.5) > 1e-12 {
			t.Errorf("exact=%v: P = %v, want 0.5", exact, got)
		}
	}
}

func TestHashesEstimateAccuracyUnderSampling(t *testing.T) {
	// A larger corpus with per-node capacity far below the corpus size:
	// estimates should stay within a reasonable band of the truth.
	rng := rand.New(rand.NewSource(7))
	var docs []*xmltree.Tree
	for i := 0; i < 2000; i++ {
		docs = append(docs, randomDoc(rng))
	}
	opts := synopsis.Options{Kind: matchset.KindHashes, Seed: 3, HashCapacity: 128}
	s := synopsis.New(opts)
	for _, d := range docs {
		s.Insert(d)
	}
	est := New(s)
	queries := []string{"/a", "/a/b", "//c", "/a[b][c]", "/*/a", "//b/c"}
	for _, q := range queries {
		p := pattern.MustParse(q)
		want := exactSkeletonP(docs, p)
		got := est.P(p)
		if want > 0.05 {
			if rel := math.Abs(got-want) / want; rel > 0.35 {
				t.Errorf("P(%s) = %v, want ~%v (rel err %v)", q, got, want, rel)
			}
		} else if got > want+0.1 {
			t.Errorf("P(%s) = %v, want ~%v", q, got, want)
		}
	}
}
