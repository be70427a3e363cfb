package core

import (
	"fmt"
	"math/rand"
	"testing"

	"treesim/internal/dtd"
	"treesim/internal/metrics"
	"treesim/internal/pattern"
	"treesim/internal/querygen"
	"treesim/internal/xmlgen"
)

// graphSteps is a churn sequence over pats: the empty list, one and two
// patterns, a reorder, additions, removals, the same pointer listed
// twice (and thrice), then random add/remove/reorder steps that keep
// duplicates coming.
func graphSteps(pats []*pattern.Pattern, rng *rand.Rand) [][]*pattern.Pattern {
	p := pats
	steps := [][]*pattern.Pattern{
		{},
		{p[0]},
		{p[0], p[1]},
		{p[1], p[0]},
		{p[1], p[0], p[2], p[len(p)-1], p[3]},
		{p[0], p[len(p)-1], p[3]},
		{p[0], p[0], p[len(p)-1], p[3], p[4], p[0]},
	}
	list := steps[len(steps)-1]
	for range 8 {
		next := append([]*pattern.Pattern(nil), list...)
		for range 1 + rng.Intn(3) { // removals
			if len(next) > 1 {
				k := rng.Intn(len(next))
				next = append(next[:k], next[k+1:]...)
			}
		}
		for range 1 + rng.Intn(4) { // additions, some already listed
			next = append(next, pats[rng.Intn(len(pats))])
		}
		rng.Shuffle(len(next), func(i, j int) { next[i], next[j] = next[j], next[i] })
		steps = append(steps, next)
		list = next
	}
	return steps
}

// TestSimilarityGraphMatchesMatrix is the differential for the graph a
// view keeps across builds: after every step of add/remove/reorder churn,
// on every representation and the schema filter, for each metric (M1 is
// asymmetric) at thresholds that admit every cell (0), some (0.5), the
// unit ones (1) and none (2), Edge(i, j) is SimilarityMatrix[i][j] ≥
// threshold on the same view, cell for cell and diagonal included; and
// the build evaluated exactly the pairs whose two patterns were not both
// in the previous step's list — a pattern listed twice is a pair of
// itself the previous list may not have had.
func TestSimilarityGraphMatchesMatrix(t *testing.T) {
	d := dtd.Media()
	docs := xmlgen.New(d, xmlgen.Options{Seed: 4}).GenerateN(120)
	pats := querygen.New(d, querygen.Defaults(9)).GenerateDistinct(12)
	pats = append(pats, pattern.MustParse("//composer/title")) // infeasible under the DTD
	for name, cfg := range viewCases() {
		t.Run(name, func(t *testing.T) {
			e := NewEstimator(cfg)
			e.ObserveTrees(docs)
			v := e.View()
			reused := 0
			for _, m := range metrics.All {
				for _, threshold := range []float64{0, 0.5, 1, 2} {
					var prev []*pattern.Pattern
					for s, subs := range graphSteps(pats, rand.New(rand.NewSource(int64(m)))) {
						at := fmt.Sprintf("%s threshold %v step %d (n=%d)", m, threshold, s, len(subs))
						g := v.SimilarityGraph(m, threshold, subs)
						checkGraph(t, at, v, m, threshold, subs, g)
						known := 0
						for i := range subs {
							for j := i + 1; j < len(subs); j++ {
								if subs[i] != subs[j] && listed(prev, subs[i]) && listed(prev, subs[j]) {
									known++
								}
							}
						}
						if g.Reused != known || g.Computed+g.Reused != len(subs)*(len(subs)-1)/2 {
							t.Errorf("%s: computed %d, reused %d; want %d reused", at, g.Computed, g.Reused, known)
						}
						reused += g.Reused
						prev = subs
					}
				}
			}
			if reused == 0 {
				t.Fatal("no build reused a pair: the differential exercised no reuse")
			}
		})
	}
}

// checkGraph compares g with the thresholded SimilarityMatrix of subs on v.
func checkGraph(t *testing.T, at string, v *View, m metrics.Metric, threshold float64, subs []*pattern.Pattern, g *Graph) {
	t.Helper()
	want := v.SimilarityMatrix(m, subs)
	if g.Len() != len(subs) {
		t.Fatalf("%s: graph of %d", at, g.Len())
	}
	for i := range subs {
		for j := range subs {
			if g.Edge(i, j) != (want[i][j] >= threshold) {
				t.Errorf("%s: Edge(%d, %d) = %v, matrix cell %v", at, i, j, g.Edge(i, j), want[i][j])
			}
		}
	}
}

func listed(subs []*pattern.Pattern, p *pattern.Pattern) bool {
	for _, q := range subs {
		if q == p {
			return true
		}
	}
	return false
}

// TestSimilarityGraphKeyedByMetricAndThreshold: a graph built for one
// metric or threshold lends nothing to a build for another, whatever the
// list, and each build still matches its own thresholded matrix.
func TestSimilarityGraphKeyedByMetricAndThreshold(t *testing.T) {
	d := dtd.Media()
	e := NewEstimator(Config{Representation: Hashes, Seed: 1})
	e.ObserveTrees(xmlgen.New(d, xmlgen.Options{Seed: 4}).GenerateN(60))
	subs := querygen.New(d, querygen.Defaults(9)).GenerateDistinct(6)
	v := e.View()
	for _, b := range []struct {
		m         metrics.Metric
		threshold float64
		reused    int
	}{{metrics.M3, 0.5, 0}, {metrics.M3, 0.5, 15}, {metrics.M1, 0.5, 0}, {metrics.M1, 0.3, 0}, {metrics.M1, 0.3, 15}} {
		at := fmt.Sprintf("%s at %v", b.m, b.threshold)
		g := v.SimilarityGraph(b.m, b.threshold, subs)
		if g.Reused != b.reused || g.Computed != 15-b.reused {
			t.Errorf("%s: computed %d, reused %d; want reused %d", at, g.Computed, g.Reused, b.reused)
		}
		checkGraph(t, at, v, b.m, b.threshold, subs, g)
	}
}
