package core

import (
	"slices"
	"sync/atomic"

	"treesim/internal/metrics"
	"treesim/internal/pattern"
)

// Graph is the thresholded similarity graph of a subscription list on one
// View: Edge(i, j) holds iff m(subs[i], subs[j]) ≥ threshold, all that
// greedy clustering reads of the similarity matrix. It is n² bits and
// keeps both orientations, because M1 is asymmetric.
type Graph struct {
	m         metrics.Metric
	threshold float64
	subs      []*pattern.Pattern
	stride    int
	bits      []uint64
	// Computed and Reused count the pairs i < j the build evaluated and
	// the ones it copied from the view's previous graph; Pruned counts the
	// evaluated pairs the intersection bound decided without intersecting.
	Computed, Reused, Pruned int
}

// Len returns the number of subscriptions the graph covers.
func (g *Graph) Len() int { return len(g.subs) }

// Edge reports whether m(subs[i], subs[j]) ≥ threshold.
func (g *Graph) Edge(i, j int) bool { return g.bits[i*g.stride+j>>6]&(1<<(j&63)) != 0 }

// Row returns subs[i]'s edges as bits, Edge(i, j) at bit j%64 of word
// j/64. The slice is the graph's own; do not modify it.
func (g *Graph) Row(i int) []uint64 { return g.bits[i*g.stride : (i+1)*g.stride] }

// SimilarityGraph returns the thresholded similarity graph of subs under
// m: Edge(i, j) iff SimilarityMatrix(m, subs)[i][j] ≥ threshold, cell for
// cell. On one View two patterns always get the same similarity, so the
// view keeps the last graph it built, and a build for the same metric and
// threshold copies every pair whose two patterns that graph covered. It
// evaluates only the other pairs, with SimilarityMatrix's cell function,
// fanned out by row: O(new pairs) intersections and O(n²) bit copies,
// with n² bits kept per view. A new pair whose intersection bound keeps
// both orientations below threshold is decided without intersecting: it
// has no edge either way, as it would not on the exact matrix.
func (v *View) SimilarityGraph(m metrics.Metric, threshold float64, subs []*pattern.Pattern) *Graph {
	n := len(subs)
	g := &Graph{m: m, threshold: threshold, subs: slices.Clone(subs), stride: (n + 63) / 64}
	g.bits = make([]uint64, n*g.stride)
	prev := v.graph.Load()
	at := make(map[*pattern.Pattern]int) // position in prev's list + 1
	if prev != nil && prev.m == m && prev.threshold == threshold {
		for i, p := range prev.subs {
			at[p] = i + 1
		}
	}
	old := make([]int, n) // subs[i]'s position in prev's list, or -1
	for i, p := range subs {
		old[i] = at[p] - 1
	}
	// A pair is known when prev's list had both patterns, and a diagonal
	// cell there stays one here: a pattern listed twice is an off-diagonal
	// pair of itself, which prev may not hold.
	known := func(i, j int) bool {
		return old[i] >= 0 && old[j] >= 0 && (i == j) == (old[i] == old[j])
	}
	for i := range n {
		for j := range n {
			if known(i, j) && prev.Edge(old[i], old[j]) {
				g.bits[i*g.stride+j>>6] |= 1 << (j & 63)
			}
			if known(i, j) && i < j {
				g.Reused++
			}
		}
	}
	g.Computed = n*(n-1)/2 - g.Reused
	cell := v.cells(m, threshold, subs)
	// Row i's worker evaluates pairs (i, j ≥ i) and sets both
	// orientations, so two workers may share a word: the adds are atomic.
	set := func(i, j int) { atomic.OrUint64(&g.bits[i*g.stride+j>>6], 1<<(j&63)) }
	var pruned atomic.Int64
	forEach(n, func(i int) {
		rowPruned := 0
		for j := i; j < n; j++ {
			if known(i, j) {
				continue
			}
			ij, ji, skipped := cell(i, j)
			if skipped {
				rowPruned++
				continue
			}
			if ij >= threshold {
				set(i, j)
			}
			if ji >= threshold {
				set(j, i)
			}
		}
		pruned.Add(int64(rowPruned))
	})
	g.Pruned = int(pruned.Load())
	v.pruned.Add(pruned.Load())
	v.graph.Store(g)
	return g
}
