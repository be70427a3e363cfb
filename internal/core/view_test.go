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
		row := v.SimilarityRowInto(nil, m, 0, p, subs)
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
			row := v.SimilarityRowInto(nil, metrics.M1, 0, p, subs)
			mat := v.SimilarityMatrix(metrics.M1, subs)
			evals := v.Evals()

			e.ObserveTrees(docs[60:])
			if v.Docs() != 60 || e.DocsObserved() != 660 {
				t.Fatalf("view/live cover %d/%d documents, want 60/660", v.Docs(), e.DocsObserved())
			}
			row2 := v.SimilarityRowInto(nil, metrics.M1, 0, p, subs)
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
			v.SimilarityRowInto(nil, metrics.M1, 0, pattern.MustParse("//title"), subs)
			if got := v.Evals() - evals; got != 1 {
				t.Errorf("a new pattern on a warm view ran %d SEL evaluations, want 1", got)
			}

			live := e.View()
			if live == v || live.Docs() != 660 {
				t.Fatalf("View after ingest: same frame %v, covers %d", live == v, live.Docs())
			}
			checkViewAgainstLive(t, e, live, p, subs)
			moved := false
			for i, x := range live.SimilarityRowInto(nil, metrics.M1, 0, p, subs) {
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

// TestSimilarityRowPrunesOnlyBelowThreshold is the differential for the
// intersection bound: on every representation and the schema filter
// (with a pattern the schema rejects), for every metric and thresholds
// that prune nothing (0), some (0.5, 1) and nearly everything (2), the
// thresholded row agrees with the exact row bit for bit on every entry
// either reads ≥ threshold, and both read every other entry below it.
func TestSimilarityRowPrunesOnlyBelowThreshold(t *testing.T) {
	d := dtd.Media()
	docs := xmlgen.New(d, xmlgen.Options{Seed: 4}).GenerateN(120)
	pats := querygen.New(d, querygen.Defaults(9)).GenerateDistinct(24)
	pats = append(pats, pattern.MustParse("//composer/title")) // infeasible under the DTD
	for name, cfg := range viewCases() {
		t.Run(name, func(t *testing.T) {
			e := NewEstimator(cfg)
			e.ObserveTrees(docs)
			v := e.View()
			for _, m := range metrics.All {
				for _, threshold := range []float64{0, 0.5, 1, 2} {
					before := v.Pruned()
					for k, p := range pats {
						subs := append(append([]*pattern.Pattern(nil), pats[:k]...), pats[k+1:]...)
						exact := v.SimilarityRowInto(nil, m, 0, p, subs)
						row := v.SimilarityRowInto(nil, m, threshold, p, subs)
						for i := range subs {
							if (exact[i] >= threshold || row[i] >= threshold) && exact[i] != row[i] {
								t.Errorf("%s threshold %v row(%d)[%d] = %v, exact %v", m, threshold, k, i, row[i], exact[i])
							}
						}
					}
					pruned := v.Pruned() - before
					if threshold == 0 && pruned != 0 {
						t.Errorf("%s: threshold 0 pruned %d pairs", m, pruned)
					}
					if name != "counters" && threshold == 2 && pruned == 0 {
						t.Errorf("%s: threshold 2 pruned nothing: the differential exercised no pruning", m)
					}
				}
			}
		})
	}
}

// TestCannotReachKeepsM3PastTheUnion: M3 = And / (P + Q − And) grows with And
// only while And < P + Q, so a bound at or past P + Q decides nothing —
// however small M3 reads at the bound itself (its union is ≤ 0 there).
func TestCannotReachKeepsM3PastTheUnion(t *testing.T) {
	ids := make([]uint64, 50)
	for i := range ids {
		ids[i] = uint64(i)
	}
	a, b := matchset.NewSetValue(ids...), matchset.NewSetValue(ids...)
	// The bound reads And ≤ 0.5 against P = Q = 0.1 (inconsistent
	// probabilities an estimator may still hand over): an And of 0.15
	// would give M3 = 3.
	if cannotReach(metrics.M3, 0.5, 0.1, 0.1, a, b, 100) {
		t.Error("M3 pruned with its bound past P + Q")
	}
	if !cannotReach(metrics.M1, 6, 0.1, 0.1, a, b, 100) || cannotReach(metrics.M1, 5, 0.1, 0.1, a, b, 100) {
		t.Error("M1 at the bound is 5: prune at threshold 6, not at 5")
	}
}
