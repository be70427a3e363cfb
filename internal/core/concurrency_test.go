package core

import (
	"math"
	"sync"
	"testing"

	"treesim/internal/dtd"
	"treesim/internal/matchset"
	"treesim/internal/metrics"
	"treesim/internal/pattern"
	"treesim/internal/querygen"
	"treesim/internal/xmlgen"
	"treesim/internal/xmltree"
)

// concurrencyWorkload builds a small bench-scale corpus and its positive
// patterns (each matches at least one document) once.
var (
	concOnce sync.Once
	concDocs []*xmltree.Tree
	concPos  []*pattern.Pattern
)

func concurrencyWorkload() ([]*xmltree.Tree, []*pattern.Pattern) {
	concOnce.Do(func() {
		d := dtd.NITFLike()
		concDocs = xmlgen.New(d, xmlgen.Calibrate(d, 100, 21)).GenerateN(120)
		concPos = querygen.New(d, querygen.Defaults(22)).ClassifyWorkload(concDocs, 24, 8).Positive
	})
	return concDocs, concPos
}

// TestConcurrentQueriesAndUpdates hammers the estimator with concurrent
// stream updates and every kind of query. Run under -race this is the
// regression test for the RWMutex read path: queries must be safe
// against each other and against writers.
func TestConcurrentQueriesAndUpdates(t *testing.T) {
	docs, pos := concurrencyWorkload()
	for _, kind := range []matchset.Kind{matchset.KindSets, matchset.KindHashes} {
		t.Run(kind.String(), func(t *testing.T) {
			est := NewEstimator(Config{Representation: kind, HashCapacity: 100, SetCapacity: 100, Seed: 3})
			for _, d := range docs[:40] {
				est.ObserveTree(d)
			}
			const rounds = 30
			var wg sync.WaitGroup
			// Writer: keeps streaming documents.
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < rounds; i++ {
					est.ObserveTree(docs[40+i%(len(docs)-40)])
				}
			}()
			// Selectivity readers.
			for g := 0; g < 3; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < rounds; i++ {
						p := pos[(g*rounds+i)%len(pos)]
						if v := est.Selectivity(p); math.IsNaN(v) || v < 0 || v > 1 {
							t.Errorf("selectivity out of range: %v", v)
							return
						}
					}
				}(g)
			}
			// Pairwise similarity reader.
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < rounds; i++ {
					p := pos[i%len(pos)]
					q := pos[(i+1)%len(pos)]
					if v := est.Similarity(metrics.M3, p, q); math.IsNaN(v) {
						t.Error("similarity NaN")
						return
					}
					_ = est.Joint(p, q)
				}
			}()
			// Matrix reader (itself internally parallel).
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 4; i++ {
					mat := est.SimilarityMatrix(metrics.M2, pos[:10])
					for r := range mat {
						for c := range mat[r] {
							if math.IsNaN(mat[r][c]) {
								t.Errorf("matrix NaN at %d,%d", r, c)
								return
							}
						}
					}
				}
			}()
			// Stats reader.
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < rounds; i++ {
					_ = est.Stats()
					_ = est.DocsObserved()
				}
			}()
			wg.Wait()
		})
	}
}

// TestSimilarityMatrixMatchesSerial verifies the parallel matrix equals
// the serial per-pair computation cell by cell on a quiescent estimator.
func TestSimilarityMatrixMatchesSerial(t *testing.T) {
	docs, pos := concurrencyWorkload()
	est := NewEstimator(Config{Representation: matchset.KindHashes, HashCapacity: 200, Seed: 5})
	for _, d := range docs {
		est.ObserveTree(d)
	}
	subs := pos[:12]
	mat := est.SimilarityMatrix(metrics.M3, subs)
	serial := serialMatrix(est, metrics.M3, subs)
	for i := range mat {
		for j := range mat[i] {
			if i == j {
				continue // diagonal intentionally uses exact p∧p ≡ p
			}
			if math.Abs(mat[i][j]-serial[i][j]) > 1e-12 {
				t.Errorf("matrix[%d][%d] = %v, serial = %v", i, j, mat[i][j], serial[i][j])
			}
		}
	}
	// And the matrix must be deterministic across runs.
	again := est.SimilarityMatrix(metrics.M3, subs)
	for i := range mat {
		for j := range mat[i] {
			if mat[i][j] != again[i][j] {
				t.Errorf("matrix[%d][%d] not deterministic: %v vs %v", i, j, mat[i][j], again[i][j])
			}
		}
	}
}

// serialMatrix is the pre-parallel reference: one merged-pattern SEL
// evaluation per pair through the public pairwise API.
func serialMatrix(est *Estimator, m metrics.Metric, subs []*pattern.Pattern) [][]float64 {
	n := len(subs)
	out := make([][]float64, n)
	for i := range out {
		out[i] = make([]float64, n)
		for j := 0; j < n; j++ {
			out[i][j] = est.Similarity(m, subs[i], subs[j])
		}
	}
	return out
}
