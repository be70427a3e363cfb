// Incremental placement: a new item joins the best existing community
// by Place, the one placement rule, and a greedy clustering
// (GreedySeeded) is the ground truth it approximates. Communities is the
// rule over index sets, for callers that cluster items 0..n-1 in arrival
// order. (The broker keys its communities on equal estimated samples
// instead, which at threshold 0.99 is GreedySeeded's partition.)
package cluster

import "math/bits"

// Place is the placement rule: of k communities, the one whose
// representative's similarity to the new item, sim(g), is highest,
// provided it reaches threshold — the membership criterion greedy
// absorption uses — breaking ties toward the earlier community. It
// returns -1 when none reaches it: the item founds a new community and
// becomes its representative.
func Place(k int, threshold float64, sim func(g int) float64) int {
	best, bestSim := -1, 0.0
	for g := range k {
		if s := sim(g); s >= threshold && (best == -1 || s > bestSim) {
			best, bestSim = g, s
		}
	}
	return best
}

// Communities is a clustering over items 0..n-1 grown by Assign. Groups
// are index sets (each sorted ascending); Reps holds the representative
// (seed) of each group — the member whose subscription stands for the
// group when a router tests a document against the community.
//
// The zero value with a Threshold is an empty clustering ready for
// Assign. Communities is not safe for concurrent use.
type Communities struct {
	// Threshold is the minimum similarity to a group's representative
	// for membership.
	Threshold float64
	// Groups are the member index sets, one per community.
	Groups [][]int
	// Reps[g] is the representative item of Groups[g], always a member.
	Reps []int

	n int // number of items clustered
}

// Len returns the number of items currently clustered.
func (c *Communities) Len() int { return c.n }

// Assign places a new item (index c.Len()) by Place, given its
// similarity column against the existing items: row[i] = sim(i, new),
// the direction greedy absorption tests (sim[seed][candidate]; the
// distinction matters for asymmetric metrics like M1). It returns the
// group index the item landed in, a new singleton group's when it
// founded one.
//
// Assign reads only row[rep] for each representative rep in c.Reps; the
// other entries may hold anything.
func (c *Communities) Assign(row []float64) int {
	idx := c.n
	c.n++
	g := Place(len(c.Reps), c.Threshold, func(g int) float64 { return row[c.Reps[g]] })
	if g == -1 {
		c.Groups = append(c.Groups, []int{idx})
		c.Reps = append(c.Reps, idx)
		return len(c.Groups) - 1
	}
	// idx is the largest index so far; appending keeps the group sorted.
	c.Groups[g] = append(c.Groups[g], idx)
	return g
}

// GreedySeeded is Greedy exposing each community's seed: the item that
// was picked as the absorption center, which incremental maintenance
// and community-based routing use as the group representative. Unlike
// Greedy it does not reorder communities by size: community g was
// seeded before community g+1, the invariant the incremental replay of
// Assign relies on. Groups are ascending.
//
// The greedy reads only whether a similarity reaches the threshold, so
// it runs on the matrix cut into bit rows: O(n²) word operations at
// worst and O(n) extra space besides the rows. Each item's degree (its
// unassigned neighbours i→j, j ≠ i) is a popcount of its row, a
// community is its seed's row masked by the unassigned items, and it
// shortens each unassigned item's degree by a popcount over the words
// it touched (at most its size), instead of recounting all degrees.
func GreedySeeded(sim [][]float64, threshold float64) (groups [][]int, seeds []int) {
	n := len(sim)
	words := (n + 63) / 64
	rows := make([]uint64, n*words)
	for i, r := range sim {
		for j, s := range r {
			if s >= threshold {
				rows[i*words+j>>6] |= 1 << (j & 63)
			}
		}
	}
	row := func(i int) []uint64 { return rows[i*words : (i+1)*words] }
	free, taken := make([]uint64, words), make([]uint64, words)
	deg := make([]int, n)
	for i := range n {
		free[i>>6] |= 1 << (i & 63)
		for _, w := range row(i) {
			deg[i] += bits.OnesCount64(w)
		}
		deg[i] -= int(row(i)[i>>6] >> (i & 63) & 1)
	}
	var touched []int
	for remaining := n; remaining > 0; {
		seed := -1
		for i := range n {
			if free[i>>6]>>(i&63)&1 != 0 && (seed == -1 || deg[i] > deg[seed]) {
				seed = i
			}
		}
		taken[seed>>6] |= 1 << (seed & 63)
		comm, r := []int{}, row(seed)
		touched = touched[:0]
		for w := range words {
			taken[w] |= r[w] & free[w]
			free[w] &^= taken[w]
			if taken[w] != 0 {
				touched = append(touched, w)
			}
			for t := taken[w]; t != 0; t &= t - 1 {
				comm = append(comm, w*64+bits.TrailingZeros64(t))
			}
		}
		for w := range words {
			for f := free[w]; f != 0; f &= f - 1 {
				i := w*64 + bits.TrailingZeros64(f)
				for _, x := range touched {
					deg[i] -= bits.OnesCount64(row(i)[x] & taken[x])
				}
			}
		}
		clear(taken)
		groups = append(groups, comm)
		seeds = append(seeds, seed)
		remaining -= len(comm)
	}
	return groups, seeds
}
