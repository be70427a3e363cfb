package treesim

// The paper's evaluation workload (Section 5) at benchmark scale: a
// generated corpus, classified positive (SP) and negative (SN) query
// sets with exact match sets from the pattern.Matches oracle, and the
// error measures behind Figures 4–10 (Erel, Esqr, metric Erel). The
// figure benchmarks in bench_test.go report them, so
//
//	go test -run='^$' -bench='Figure|Ablation' -benchtime=1x .
//
// reproduces the paper's error figures.

import (
	"math"
	"math/rand"

	"treesim/internal/bitset"
	"treesim/internal/dtd"
	"treesim/internal/matchset"
	"treesim/internal/metrics"
	"treesim/internal/pattern"
	"treesim/internal/querygen"
	"treesim/internal/selectivity"
	"treesim/internal/xmlgen"
	"treesim/internal/xmltree"
)

// kinds lists the three matching-set representations in paper order.
var kinds = []matchset.Kind{matchset.KindCounters, matchset.KindSets, matchset.KindHashes}

// workloadConfig sizes a workload. The paper's full scale is
// Docs=10000, Positive=Negative=1000; documents are calibrated to ~100
// tag pairs and queries use the paper's generator parameters.
type workloadConfig struct {
	Docs, Positive, Negative int
	// Seed derives all workload randomness.
	Seed int64
}

// workload bundles a corpus, its classified query sets and exact ground
// truth for one DTD.
type workload struct {
	Docs []*xmltree.Tree
	// Positive patterns match ≥ 1 document; Negative patterns match none.
	Positive, Negative []*pattern.Pattern
	// MatchSets holds, for each positive pattern, the exact set of
	// matching document indices.
	MatchSets []*bitset.Set

	posIndex map[*pattern.Pattern]int
}

// buildWorkload generates documents and queries for the DTD and computes
// exact ground truth. Deterministic in (DTD, config).
func buildWorkload(d *dtd.DTD, cfg workloadConfig) *workload {
	docs := xmlgen.New(d, xmlgen.Calibrate(d, 100, cfg.Seed)).GenerateN(cfg.Docs)
	cls := querygen.New(d, querygen.Defaults(cfg.Seed+1)).ClassifyWorkload(docs, cfg.Positive, cfg.Negative)
	w := &workload{
		Docs:      docs,
		Positive:  cls.Positive,
		Negative:  cls.Negative,
		MatchSets: make([]*bitset.Set, len(cls.Positive)),
		posIndex:  make(map[*pattern.Pattern]int, len(cls.Positive)),
	}
	for i, p := range w.Positive {
		w.posIndex[p] = i
		w.MatchSets[i] = bitset.New(len(docs))
		for di, doc := range docs {
			if pattern.Matches(doc, p) {
				w.MatchSets[i].Add(di)
			}
		}
	}
	return w
}

func (w *workload) index(p *pattern.Pattern) int {
	i, ok := w.posIndex[p]
	if !ok {
		panic("treesim: pattern is not part of the positive workload")
	}
	return i
}

// exactSource adapts the workload's ground truth to metrics.Source.
type exactSource struct{ w *workload }

// P returns the exact selectivity of a positive pattern.
func (s exactSource) P(p *pattern.Pattern) float64 {
	return float64(s.w.MatchSets[s.w.index(p)].Count()) / float64(len(s.w.Docs))
}

// PAnd returns the exact conjunction probability of two positive
// patterns.
func (s exactSource) PAnd(p, q *pattern.Pattern) float64 {
	return float64(s.w.MatchSets[s.w.index(p)].AndCount(s.w.MatchSets[s.w.index(q)])) / float64(len(s.w.Docs))
}

// pair indexes a pattern pair within the positive workload.
type pair struct{ I, J int }

// randomPairs draws n random ordered pairs of distinct positive
// patterns (the paper evaluates metrics over 5000 random SP pairs).
func (w *workload) randomPairs(n int, seed int64) []pair {
	rng := rand.New(rand.NewSource(seed))
	out := make([]pair, 0, n)
	for len(out) < n {
		i := rng.Intn(len(w.Positive))
		j := rng.Intn(len(w.Positive))
		if i != j {
			out = append(out, pair{i, j})
		}
	}
	return out
}

// erelPositive is the paper's average absolute relative error over
// positive queries:
//
//	Erel = (1/|SP|) Σ |P'(p) − P(p)| / P(p)
func erelPositive(est *selectivity.Estimator, w *workload) float64 {
	if len(w.Positive) == 0 {
		return 0
	}
	exact := exactSource{w}
	sum := 0.0
	for _, p := range w.Positive {
		truth := exact.P(p)
		sum += math.Abs(est.P(p)-truth) / truth
	}
	return sum / float64(len(w.Positive))
}

// esqrNegative is the paper's root mean square error over negative
// queries (whose exact selectivity is 0):
//
//	Esqr = sqrt((1/|SN|) Σ (P'(p) − 0)²)
func esqrNegative(est *selectivity.Estimator, w *workload) float64 {
	if len(w.Negative) == 0 {
		return 0
	}
	sum := 0.0
	for _, p := range w.Negative {
		v := est.P(p)
		sum += v * v
	}
	return math.Sqrt(sum / float64(len(w.Negative)))
}

// metricErel is the paper's average absolute relative error of an
// estimated proximity metric over pattern pairs:
//
//	Erel(Mi) = (1/|pairs|) Σ |M'i(p,q) − Mi(p,q)| / Mi(p,q)
//
// Pairs whose exact metric value is 0 have an undefined relative error
// and are skipped.
func metricErel(m metrics.Metric, est metrics.Source, w *workload, pairs []pair) float64 {
	exact := exactSource{w}
	sum, n := 0.0, 0
	for _, pr := range pairs {
		p, q := w.Positive[pr.I], w.Positive[pr.J]
		truth := metrics.Similarity(exact, m, p, q)
		if truth == 0 {
			continue
		}
		sum += math.Abs(metrics.Similarity(est, m, p, q)-truth) / truth
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
