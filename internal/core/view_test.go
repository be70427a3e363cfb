package core

import (
	"math"
	"testing"

	"treesim/internal/dtd"
	"treesim/internal/matchset"
	"treesim/internal/metrics"
	"treesim/internal/pattern"
	"treesim/internal/querygen"
	"treesim/internal/xmlgen"
)

// viewCases are the estimator configurations a View must serve: every
// representation (Sets with a reservoir small enough to evict, so the
// live stores are rewritten under the view's feet) and the DTD filter.
func viewCases() map[string]Config {
	return map[string]Config{
		"counters":   {Representation: Counters, Seed: 1},
		"sets":       {Representation: Sets, SetCapacity: 1 << 20, Seed: 1},
		"sets-evict": {Representation: Sets, SetCapacity: 40, Seed: 1},
		"hashes":     {Representation: Hashes, HashCapacity: 1 << 20, Seed: 1},
		"hashes-dtd": {Representation: Hashes, HashCapacity: 1 << 20, Seed: 1, DTD: dtd.Media()},
	}
}

// checkViewAgainstLive compares a view's row and matrix with the live
// estimator's uncached pairwise path (one merged-pattern SEL evaluation
// per pair on the live synopsis) — valid only while the estimator has
// not moved on since the view was taken.
func checkViewAgainstLive(t *testing.T, e *Estimator, v *View, p *pattern.Pattern, subs []*pattern.Pattern) {
	t.Helper()
	for _, m := range metrics.All {
		row := v.SimilarityRowInto(nil, m, p, subs)
		for i, q := range subs {
			if want := e.Similarity(m, q, p); math.Abs(row[i]-want) > 1e-12 {
				t.Errorf("%s row[%d] = %v, live pairwise = %v", m, i, row[i], want)
			}
		}
		mat := v.SimilarityMatrix(m, subs)
		for i := range subs {
			for j := range subs {
				if i == j {
					continue // exact on the matrix, P(p)² pairwise under Counters
				}
				if want := e.Similarity(m, subs[i], subs[j]); math.Abs(mat[i][j]-want) > 1e-12 {
					t.Errorf("%s matrix[%d][%d] = %v, live pairwise = %v", m, i, j, mat[i][j], want)
				}
			}
		}
	}
}

// TestViewIsFrozenAtSnapshot pins the View contract: at the instant it
// is taken it answers what the live estimator answers; it keeps
// answering exactly that, bit for bit, while the live estimator ingests
// ten times more documents (and evicts, and grows new synopsis nodes);
// and the estimator's own SimilarityRow/Matrix keep following the
// stream, because they take a new view once the synopsis has moved.
func TestViewIsFrozenAtSnapshot(t *testing.T) {
	d := dtd.Media()
	docs := xmlgen.New(d, xmlgen.Options{Seed: 4}).GenerateN(660)
	pats := querygen.New(d, querygen.Defaults(9)).GenerateDistinct(13)
	pats = append(pats, pattern.MustParse("//composer/title")) // infeasible under the DTD
	p, subs := pats[0], pats[1:]
	for name, cfg := range viewCases() {
		t.Run(name, func(t *testing.T) {
			e := NewEstimator(cfg)
			e.ObserveTrees(docs[:60])
			v := e.View()
			if v.Docs() != 60 {
				t.Fatalf("view covers %d documents, want 60", v.Docs())
			}
			if again := e.View(); again != v {
				t.Error("a second View of an unchanged estimator is a different frame")
			}
			checkViewAgainstLive(t, e, v, p, subs)
			row := v.SimilarityRowInto(nil, metrics.M1, p, subs)
			mat := v.SimilarityMatrix(metrics.M1, subs)
			evals := v.Evals()

			e.ObserveTrees(docs[60:])
			if v.Docs() != 60 || e.DocsObserved() != 660 {
				t.Fatalf("view/live cover %d/%d documents, want 60/660", v.Docs(), e.DocsObserved())
			}
			row2 := v.SimilarityRowInto(nil, metrics.M1, p, subs)
			mat2 := v.SimilarityMatrix(metrics.M1, subs)
			for i := range row {
				if row[i] != row2[i] {
					t.Errorf("row[%d] moved with the live stream: %v -> %v", i, row[i], row2[i])
				}
				for j := range mat[i] {
					if mat[i][j] != mat2[i][j] {
						t.Errorf("matrix[%d][%d] moved with the live stream: %v -> %v", i, j, mat[i][j], mat2[i][j])
					}
				}
			}
			if v.Evals() != evals {
				t.Errorf("repeating a row and a matrix on a warm view ran %d SEL evaluations", v.Evals()-evals)
			}
			// A fresh pattern on the old frame costs exactly one evaluation.
			v.SimilarityRowInto(nil, metrics.M1, pattern.MustParse("//title"), subs)
			if got := v.Evals() - evals; got != 1 {
				t.Errorf("a new pattern on a warm view ran %d SEL evaluations, want 1", got)
			}

			live := e.View()
			if live == v || live.Docs() != 660 {
				t.Fatalf("View after ingest: same frame %v, covers %d", live == v, live.Docs())
			}
			checkViewAgainstLive(t, e, live, p, subs)
			moved := false
			for i, x := range live.SimilarityRowInto(nil, metrics.M1, p, subs) {
				moved = moved || x != row[i]
			}
			if !moved {
				t.Error("600 more documents left every similarity unchanged: the comparison above proves nothing")
			}
		})
	}
}

// TestViewAfterCompress checks a view taken of a pruned synopsis — a
// DAG with merged nodes and folded labels — against the live estimator.
func TestViewAfterCompress(t *testing.T) {
	d := dtd.Media()
	docs := xmlgen.New(d, xmlgen.Options{Seed: 4}).GenerateN(200)
	pats := querygen.New(d, querygen.Defaults(9)).GenerateDistinct(13)
	for name, cfg := range viewCases() {
		t.Run(name, func(t *testing.T) {
			e := NewEstimator(cfg)
			e.ObserveTrees(docs)
			before := e.View()
			if ratio := e.Compress(0.5); ratio >= 1 {
				t.Skipf("nothing to prune (ratio %v)", ratio)
			}
			v := e.View()
			if v == before {
				t.Fatal("Compress did not invalidate the estimator's view")
			}
			if err := v.syn.Validate(); err != nil {
				t.Fatalf("frozen copy of the pruned synopsis: %v", err)
			}
			if got, want := v.syn.Stats(), e.Stats(); got != want {
				t.Errorf("frozen copy has stats %+v, live %+v", got, want)
			}
			checkViewAgainstLive(t, e, v, pats[0], pats[1:])
		})
	}
}

// TestEqualSamplesAreM3One ties the broker's community rule to the
// paper's metric: on every representation and the schema filter (with
// a pattern the schema rejects), two patterns whose SEL evaluations on
// a view carry the same sample are M3-similar 1 on that view's matrix,
// and a pattern whose evaluation carries none (Counters, an empty
// match, a rejected pattern) shares it with nothing.
func TestEqualSamplesAreM3One(t *testing.T) {
	d := dtd.Media()
	docs := xmlgen.New(d, xmlgen.Options{Seed: 4}).GenerateN(120)
	pats := querygen.New(d, querygen.Defaults(9)).GenerateDistinct(40)
	pats = append(pats, pattern.MustParse("//composer/title")) // infeasible under the DTD
	for name, cfg := range viewCases() {
		t.Run(name, func(t *testing.T) {
			e := NewEstimator(cfg)
			e.ObserveTrees(docs)
			v := e.View()
			sim := v.SimilarityMatrix(metrics.M3, pats)
			pairs := 0
			for i, p := range pats {
				pv := v.Eval(p)
				if _, ok := matchset.SampleKey(pv); !ok && matchset.SameSample(pv, pv) {
					t.Errorf("%s: no sample, yet the same sample as itself", p)
				}
				for j := i + 1; j < len(pats); j++ {
					if matchset.SameSample(pv, v.Eval(pats[j])) {
						pairs++
						if sim[i][j] != 1 {
							t.Errorf("%s and %s share a sample, M3 %v", p, pats[j], sim[i][j])
						}
					}
				}
			}
			if name != "counters" && pairs == 0 {
				t.Error("no two patterns share a sample: the test exercised nothing")
			}
			if name == "counters" && pairs != 0 {
				t.Errorf("%d pairs share a Counters sample", pairs)
			}
		})
	}
}
