// Incremental community maintenance: a live broker cannot afford a
// global re-clustering on every subscription change, so communities are
// kept as an explicit structure that supports placing a new item into
// the best existing community (Assign) and deleting an item (Remove)
// in O(n) without touching the similarity matrix of the survivors. A
// full rebuild (BuildGreedy) remains the periodic ground truth; the
// broker's rebuild policy decides when staleness has accumulated enough
// to pay for one.
package cluster

import (
	"fmt"
	"math/bits"
	"sort"
)

// Communities is a maintained clustering over items 0..n-1. Groups are
// index sets (each sorted ascending); Reps holds the representative
// (seed) of each group — the member whose subscription stands for the
// group when a router tests a document against the community.
//
// The zero value with a Threshold is an empty clustering ready for
// Assign. Communities is not safe for concurrent use; callers
// serialize externally (the broker holds its registry lock).
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

// BuildGreedy clusters all n items with the seeded greedy algorithm and
// returns the result as a maintainable Communities value whose
// representatives are the greedy seeds. O(n²) time, the cost of
// GreedySeeded; computing sim is the caller's O(n²) cell evaluations.
func BuildGreedy(sim [][]float64, threshold float64) *Communities {
	groups, seeds := GreedySeeded(sim, threshold)
	return &Communities{Threshold: threshold, Groups: groups, Reps: seeds, n: len(sim)}
}

// BuildGreedyRows is BuildGreedy over the thresholded similarity graph
// as bit rows (see GreedyRows); threshold is the one the graph was cut at.
func BuildGreedyRows(n int, row func(i int) []uint64, threshold float64) *Communities {
	groups, seeds := GreedyRows(n, row)
	return &Communities{Threshold: threshold, Groups: groups, Reps: seeds, n: n}
}

// Len returns the number of items currently clustered.
func (c *Communities) Len() int { return c.n }

// Assign places a new item (index c.Len()) given its similarity column
// against the existing items: row[i] = sim(i, new), the direction
// greedy absorption tests (sim[seed][candidate]; the distinction
// matters for asymmetric metrics like M1). The item joins the group
// whose representative-to-item similarity is highest, provided it
// reaches the threshold — the same membership criterion greedy
// absorption uses — breaking ties toward the earlier group. Otherwise
// it founds a new singleton group (and becomes its representative).
// Returns the group index the item landed in.
//
// Assign reads only row[rep] for each representative rep in c.Reps; the
// other entries may hold anything. A caller may therefore compute the
// similarities to the representatives alone, provided they are the
// representatives Assign sees — a row computed against an earlier
// clustering's representatives is not a row for this one.
func (c *Communities) Assign(row []float64) int {
	idx := c.n
	c.n++
	best, bestSim := -1, 0.0
	for g, rep := range c.Reps {
		if s := row[rep]; s >= c.Threshold && (best == -1 || s > bestSim) {
			best, bestSim = g, s
		}
	}
	if best == -1 {
		c.Groups = append(c.Groups, []int{idx})
		c.Reps = append(c.Reps, idx)
		return len(c.Groups) - 1
	}
	// idx is the largest index so far; appending keeps the group sorted.
	c.Groups[best] = append(c.Groups[best], idx)
	return best
}

// PlaceAt inserts the next item (index c.Len()) into group g, or
// founds a new singleton group (with the item as representative) when
// g == len(c.Groups). It is the deterministic-replay counterpart of
// Assign: a broker journals the group Assign chose and recovery applies
// that recorded decision instead of re-deriving it from similarities,
// which may have drifted since the snapshot.
func (c *Communities) PlaceAt(g int) error {
	if g < 0 || g > len(c.Groups) {
		return fmt.Errorf("cluster: place at group %d with %d groups", g, len(c.Groups))
	}
	idx := c.n
	c.n++
	if g == len(c.Groups) {
		c.Groups = append(c.Groups, []int{idx})
		c.Reps = append(c.Reps, idx)
		return nil
	}
	// idx is the largest index so far; appending keeps the group sorted.
	c.Groups[g] = append(c.Groups[g], idx)
	return nil
}

// FromGroups reconstructs a maintained clustering from explicit member
// sets and representatives — the restore path for a persisted
// clustering. It validates the partition (every index 0..n-1 appears
// exactly once, each representative is a member of its group) and sorts
// each group's members.
func FromGroups(threshold float64, groups [][]int, reps []int) (*Communities, error) {
	if len(groups) != len(reps) {
		return nil, fmt.Errorf("cluster: %d groups but %d representatives", len(groups), len(reps))
	}
	n := 0
	for _, g := range groups {
		n += len(g)
	}
	seen := make([]bool, n)
	c := &Communities{Threshold: threshold, n: n}
	for gi, g := range groups {
		if len(g) == 0 {
			return nil, fmt.Errorf("cluster: group %d is empty", gi)
		}
		members := make([]int, len(g))
		copy(members, g)
		sort.Ints(members)
		repOK := false
		for _, m := range members {
			if m < 0 || m >= n {
				return nil, fmt.Errorf("cluster: group %d member %d outside [0,%d)", gi, m, n)
			}
			if seen[m] {
				return nil, fmt.Errorf("cluster: item %d in more than one group", m)
			}
			seen[m] = true
			if m == reps[gi] {
				repOK = true
			}
		}
		if !repOK {
			return nil, fmt.Errorf("cluster: representative %d not a member of group %d", reps[gi], gi)
		}
		c.Groups = append(c.Groups, members)
		c.Reps = append(c.Reps, reps[gi])
	}
	return c, nil
}

// Remove deletes item idx from the clustering. Remaining items with a
// larger index are renumbered down by one, mirroring deletion from the
// broker's dense subscription slice. If the removed item was a group's
// representative, the smallest surviving member is promoted; an emptied
// group disappears.
func (c *Communities) Remove(idx int) {
	g := c.Find(idx)
	if g < 0 {
		return
	}
	members := c.Groups[g]
	pos := sort.SearchInts(members, idx)
	members = append(members[:pos], members[pos+1:]...)
	if len(members) == 0 {
		c.Groups = append(c.Groups[:g], c.Groups[g+1:]...)
		c.Reps = append(c.Reps[:g], c.Reps[g+1:]...)
	} else {
		c.Groups[g] = members
		if c.Reps[g] == idx {
			c.Reps[g] = members[0]
		}
	}
	for _, grp := range c.Groups {
		for i, m := range grp {
			if m > idx {
				grp[i] = m - 1
			}
		}
	}
	for i, r := range c.Reps {
		if r > idx {
			c.Reps[i] = r - 1
		}
	}
	c.n--
}

// Find returns the index of the group containing item idx, or -1.
func (c *Communities) Find(idx int) int {
	for g, members := range c.Groups {
		pos := sort.SearchInts(members, idx)
		if pos < len(members) && members[pos] == idx {
			return g
		}
	}
	return -1
}

// Sorted returns the groups ordered largest-first (ties by first
// member), the ordering Greedy reports — handy for display and for
// comparing against a batch clustering.
func (c *Communities) Sorted() [][]int {
	out := make([][]int, len(c.Groups))
	copy(out, c.Groups)
	sort.SliceStable(out, func(i, j int) bool { return len(out[i]) > len(out[j]) })
	return out
}

// GreedySeeded is Greedy exposing each community's seed: the item that
// was picked as the absorption center, which incremental maintenance
// and community-based routing use as the group representative. Unlike
// Greedy it does not reorder communities by size: community g was
// seeded before community g+1, the invariant the incremental replay of
// Assign relies on. It is GreedyRows over sim cut at threshold.
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
	return GreedyRows(n, func(i int) []uint64 { return rows[i*words : (i+1)*words] })
}

// GreedyRows is the seeded greedy over the thresholded similarity graph
// of n items as bit rows: bit j%64 of row(i)[j/64] is set iff sim[i][j]
// reaches the threshold, which is all the greedy reads of a similarity.
// It returns GreedySeeded's groups (ascending) and seeds.
//
// O(n²) word operations at worst and O(n) extra space: each item's
// degree (its unassigned neighbours i→j, j ≠ i) is a popcount of its
// row, a community is its seed's row masked by the unassigned items, and
// it shortens each unassigned item's degree by a popcount over the words
// it touched (at most its size), instead of recounting all degrees.
func GreedyRows(n int, row func(i int) []uint64) (groups [][]int, seeds []int) {
	words := (n + 63) / 64
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
