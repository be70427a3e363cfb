package core

import (
	"math"
	"strings"
	"sync"
	"testing"

	"treesim/internal/dtd"
	"treesim/internal/metrics"
	"treesim/internal/pattern"
	"treesim/internal/xmlgen"
	"treesim/internal/xmltree"
)

func feedCorpus(t *testing.T, e *Estimator) {
	t.Helper()
	for _, s := range []string{
		"a(b(e))", "a(b(f))", "a(b,c(f,o))", "a(d,c(f,o))", "a(d(e))", "a(d(q))",
	} {
		tr, err := xmltree.ParseCompact(s)
		if err != nil {
			t.Fatal(err)
		}
		e.ObserveTree(tr)
	}
}

func TestEndToEndSelectivity(t *testing.T) {
	e := NewEstimator(Config{Representation: Sets, SetCapacity: 1 << 20, Seed: 1})
	feedCorpus(t, e)
	if e.DocsObserved() != 6 {
		t.Fatalf("DocsObserved = %d", e.DocsObserved())
	}
	got, err := e.SelectivityXPath("/a/b")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-0.5) > 1e-12 {
		t.Errorf("P(/a/b) = %v, want 0.5", got)
	}
	if _, err := e.SelectivityXPath("///"); err == nil {
		t.Error("invalid XPath should error")
	}
}

func TestEndToEndSimilarity(t *testing.T) {
	e := NewEstimator(Config{Representation: Sets, SetCapacity: 1 << 20, Seed: 1})
	feedCorpus(t, e)
	// //f and //o: P(f)=1/2, P(o)=1/3, P(and)=1/3.
	got, err := e.SimilarityXPath(metrics.M3, "//f", "//o")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-2.0/3) > 1e-12 {
		t.Errorf("M3 = %v, want 2/3", got)
	}
	if _, err := e.SimilarityXPath(metrics.M1, "//f", "["); err == nil {
		t.Error("invalid second XPath should error")
	}
	if _, err := e.SimilarityXPath(metrics.M1, "[", "//f"); err == nil {
		t.Error("invalid first XPath should error")
	}
}

func TestObserveXML(t *testing.T) {
	e := NewEstimator(Config{Representation: Hashes, Seed: 2})
	id, err := e.ObserveXML(strings.NewReader("<a><b/></a>"))
	if err != nil || id != 0 {
		t.Fatalf("ObserveXML: id=%d err=%v", id, err)
	}
	if _, err := e.ObserveXML(strings.NewReader("<unclosed>")); err == nil {
		t.Error("bad XML should error")
	}
	p := pattern.MustParse("/a/b")
	if got := e.Selectivity(p); got != 1 {
		t.Errorf("P(/a/b) = %v, want 1", got)
	}
}

func TestCompressViaFacade(t *testing.T) {
	e := NewEstimator(Config{Representation: Hashes, HashCapacity: 100, Seed: 3})
	feedCorpus(t, e)
	before := e.Stats().Size()
	ratio := e.Compress(0.7)
	if ratio > 1 {
		t.Errorf("ratio %v > 1", ratio)
	}
	if e.Stats().Size() > before {
		t.Error("compression grew the synopsis")
	}
}

func TestSimilarityMatrix(t *testing.T) {
	e := NewEstimator(Config{Representation: Sets, SetCapacity: 1 << 20, Seed: 1})
	feedCorpus(t, e)
	subs := []*pattern.Pattern{
		pattern.MustParse("//f"),
		pattern.MustParse("//o"),
		pattern.MustParse("//zzz"),
	}
	m := e.SimilarityMatrix(metrics.M3, subs)
	if len(m) != 3 {
		t.Fatalf("matrix size %d", len(m))
	}
	if m[0][1] != m[1][0] {
		t.Error("M3 matrix should be symmetric")
	}
	if math.Abs(m[0][1]-2.0/3) > 1e-12 {
		t.Errorf("m[0][1] = %v, want 2/3", m[0][1])
	}
	if m[0][0] != 1 || m[1][1] != 1 {
		t.Error("diagonal should be 1 for non-empty patterns")
	}
	if m[2][2] != 0 {
		t.Errorf("diagonal of never-matching pattern = %v, want 0 (P=0)", m[2][2])
	}
	if m[0][2] != 0 {
		t.Errorf("similarity with unmatched pattern = %v, want 0", m[0][2])
	}
	// Asymmetric metric fills both triangles distinctly.
	m1 := e.SimilarityMatrix(metrics.M1, subs)
	// M1(f|o) = P(f∧o)/P(o) = 1; M1(o|f) = (1/3)/(1/2) = 2/3.
	if math.Abs(m1[0][1]-1) > 1e-12 || math.Abs(m1[1][0]-2.0/3) > 1e-12 {
		t.Errorf("M1 matrix = %v / %v, want 1 / 2/3", m1[0][1], m1[1][0])
	}
}

func TestSimilarityMatrixFactorizationParity(t *testing.T) {
	// The factorized matrix (one SEL per pattern + per-pair
	// intersections) must agree exactly with the pairwise merged-pattern
	// evaluation, for every representation.
	docs := []string{
		"a(b(e))", "a(b(f))", "a(b,c(f,o))", "a(d,c(f,o))", "a(d(e))", "a(d(q))",
		"a(b(e,f))", "a(c(o))",
	}
	subs := []*pattern.Pattern{
		pattern.MustParse("//f"),
		pattern.MustParse("//o"),
		pattern.MustParse("/a/b"),
		pattern.MustParse("/a[b][c]"),
		pattern.MustParse("//c[f][o]"),
		pattern.MustParse("//zzz"),
	}
	for _, kind := range []Representation{Counters, Sets, Hashes} {
		e := NewEstimator(Config{Representation: kind, SetCapacity: 1 << 20, HashCapacity: 1 << 20, Seed: 1})
		for _, s := range docs {
			tr, err := xmltree.ParseCompact(s)
			if err != nil {
				t.Fatal(err)
			}
			e.ObserveTree(tr)
		}
		for _, m := range metrics.All {
			fast := e.SimilarityMatrix(m, subs)
			for i := range subs {
				for j := range subs {
					if i == j && kind == Counters {
						// The matrix diagonal is exact (P(p∧p) = P(p));
						// pairwise counters instead estimate P(p)²
						// under independence. Both are documented.
						continue
					}
					slow := e.Similarity(m, subs[i], subs[j])
					if math.Abs(fast[i][j]-slow) > 1e-12 {
						t.Errorf("%v/%s [%d][%d]: fast %v != slow %v",
							kind, m, i, j, fast[i][j], slow)
					}
				}
			}
		}
	}
}

func TestSimilarityRowMatchesMatrix(t *testing.T) {
	// The incremental column (the broker's subscribe path) must agree
	// exactly with the corresponding column of the full matrix —
	// out[k] = m(subs[k], p) — for every representation and metric,
	// including the asymmetric M1.
	docs := []string{
		"a(b(e))", "a(b(f))", "a(b,c(f,o))", "a(d,c(f,o))", "a(d(e))", "a(d(q))",
		"a(b(e,f))", "a(c(o))",
	}
	subs := []*pattern.Pattern{
		pattern.MustParse("//f"),
		pattern.MustParse("//o"),
		pattern.MustParse("/a/b"),
		pattern.MustParse("/a[b][c]"),
		pattern.MustParse("//zzz"),
	}
	for _, kind := range []Representation{Counters, Sets, Hashes} {
		e := NewEstimator(Config{Representation: kind, SetCapacity: 1 << 20, HashCapacity: 1 << 20, Seed: 1})
		for _, s := range docs {
			tr, err := xmltree.ParseCompact(s)
			if err != nil {
				t.Fatal(err)
			}
			e.ObserveTree(tr)
		}
		for _, m := range metrics.All {
			full := e.SimilarityMatrix(m, subs)
			for i, p := range subs {
				others := append(append([]*pattern.Pattern{}, subs[:i]...), subs[i+1:]...)
				row := e.SimilarityRow(m, p, others)
				for k := range others {
					j := k
					if k >= i {
						j = k + 1
					}
					if math.Abs(row[k]-full[j][i]) > 1e-12 {
						t.Errorf("%v/%s row(%d)[%d] = %v, matrix[%d][%d] = %v",
							kind, m, i, k, row[k], j, i, full[j][i])
					}
				}
			}
		}
	}
	// Empty subscription set: a zero-length row, no panic.
	e := NewEstimator(Config{Representation: Sets, Seed: 1})
	if row := e.SimilarityRow(metrics.M3, subs[0], nil); len(row) != 0 {
		t.Errorf("empty row has length %d", len(row))
	}
}

func TestSimilarityRowMatchesMatrixWithDTD(t *testing.T) {
	// DTD mode exercises the row's three feasibility short-circuits:
	// infeasible new pattern, infeasible existing subscription, and a
	// feasible pair whose conjunction is infeasible. Each must agree
	// with the matrix column cell-for-cell, including under the
	// asymmetric M1.
	d := dtd.Media()
	e := NewEstimator(Config{Representation: Hashes, HashCapacity: 1 << 20, Seed: 2, DTD: d})
	for _, doc := range xmlgen.New(d, xmlgen.Options{Seed: 4}).GenerateN(100) {
		e.ObserveTree(doc)
	}
	subs := []*pattern.Pattern{
		pattern.MustParse("/media/CD"),
		pattern.MustParse("//composer/last"),
		pattern.MustParse("//composer/title"), // structurally infeasible
		pattern.MustParse("/media/book"),
		pattern.MustParse("/CD"), // wrong root: infeasible
	}
	for _, m := range metrics.All {
		full := e.SimilarityMatrix(m, subs)
		for i, p := range subs {
			others := append(append([]*pattern.Pattern{}, subs[:i]...), subs[i+1:]...)
			row := e.SimilarityRow(m, p, others)
			for k := range others {
				j := k
				if k >= i {
					j = k + 1
				}
				if math.Abs(row[k]-full[j][i]) > 1e-12 {
					t.Errorf("%s row(%d)[%d] = %v, matrix[%d][%d] = %v",
						m, i, k, row[k], j, i, full[j][i])
				}
			}
		}
	}
}

func TestConcurrentUse(t *testing.T) {
	e := NewEstimator(Config{Representation: Hashes, HashCapacity: 64, Seed: 5})
	var wg sync.WaitGroup
	p := pattern.MustParse("/a/b")
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if w%2 == 0 {
					tr, _ := xmltree.ParseCompact("a(b,c)")
					e.ObserveTree(tr)
				} else {
					_ = e.Selectivity(p)
				}
			}
		}(w)
	}
	wg.Wait()
	if e.DocsObserved() != 100 {
		t.Errorf("DocsObserved = %d, want 100", e.DocsObserved())
	}
	if got := e.Selectivity(p); got != 1 {
		t.Errorf("P(/a/b) = %v, want 1", got)
	}
}

func TestZeroConfigWorks(t *testing.T) {
	e := NewEstimator(Config{})
	if e.Config().Representation != Counters {
		t.Fatalf("zero-value representation = %v, want Counters", e.Config().Representation)
	}
	tr, _ := xmltree.ParseCompact("a(b)")
	e.ObserveTree(tr)
	if got := e.Selectivity(pattern.MustParse("/a/b")); got != 1 {
		t.Errorf("P = %v, want 1", got)
	}
}

// TestEvalCacheTracksSynopsisMutation guards the per-version SEL value
// cache: similarity answers must be recomputed — not served stale —
// after the synopsis ingests more documents, and cached rows must agree
// with the uncached pairwise Similarity path at every version.
func TestEvalCacheTracksSynopsisMutation(t *testing.T) {
	subs := []*pattern.Pattern{
		pattern.MustParse("/a/b"),
		pattern.MustParse("//c"),
		pattern.MustParse("/a[b][c]"),
	}
	p := pattern.MustParse("//b")
	for _, kind := range []Representation{Counters, Sets, Hashes} {
		e := NewEstimator(Config{Representation: kind, SetCapacity: 1 << 20, HashCapacity: 1 << 20, Seed: 1})
		check := func(stage string) {
			// Two row computations at one synopsis version: the second is
			// all cache hits and must match both the first and the
			// uncached pairwise path.
			r1 := e.SimilarityRow(metrics.M3, p, subs)
			r2 := e.SimilarityRow(metrics.M3, p, subs)
			for i, q := range subs {
				want := e.Similarity(metrics.M3, q, p)
				if math.Abs(r1[i]-want) > 1e-12 || r1[i] != r2[i] {
					t.Errorf("%v/%s: row[%d] = %v/%v, pairwise = %v", kind, stage, i, r1[i], r2[i], want)
				}
			}
		}
		for _, s := range []string{"a(b)", "a(b,c)", "a(c)"} {
			tr, err := xmltree.ParseCompact(s)
			if err != nil {
				t.Fatal(err)
			}
			e.ObserveTree(tr)
		}
		check("warm")
		before := e.SimilarityRow(metrics.M3, p, subs)
		// Mutate the synopsis: /a/b-only documents shift every estimate.
		for i := 0; i < 16; i++ {
			tr, _ := xmltree.ParseCompact("a(b(x))")
			e.ObserveTree(tr)
		}
		check("after-ingest")
		after := e.SimilarityRow(metrics.M3, p, subs)
		same := true
		for i := range before {
			if math.Abs(before[i]-after[i]) > 1e-12 {
				same = false
			}
		}
		if same {
			t.Errorf("%v: similarity row unchanged after skewed ingest — stale cache?", kind)
		}
	}
}

// TestSimilarityRowInto exercises the view's caller-buffer row: results
// in a reused buffer must equal the allocating path, with the buffer
// grown or truncated as needed.
func TestSimilarityRowInto(t *testing.T) {
	e := NewEstimator(Config{Representation: Sets, Seed: 1})
	for _, s := range []string{"a(b)", "a(b,c)", "a(c)"} {
		tr, _ := xmltree.ParseCompact(s)
		e.ObserveTree(tr)
	}
	subs := []*pattern.Pattern{pattern.MustParse("/a/b"), pattern.MustParse("//c")}
	p := pattern.MustParse("//b")
	want := e.SimilarityRow(metrics.M3, p, subs)
	buf := make([]float64, 0, 1) // too small: must be replaced
	got := e.View().SimilarityRowInto(buf, metrics.M3, p, subs)
	if len(got) != len(want) {
		t.Fatalf("row length %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Into[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	big := make([]float64, 16)
	got = e.View().SimilarityRowInto(big, metrics.M3, p, subs)
	if len(got) != len(subs) || &got[0] != &big[0] {
		t.Fatal("SimilarityRowInto did not reuse an adequate buffer")
	}
}
