// Package cluster groups subscriptions into semantic communities from a
// pairwise similarity matrix. This is the consumer of the paper's
// similarity metrics: content-based routing systems cluster consumers
// whose subscriptions are likely to match the same documents and
// disseminate within a community without per-member filtering (paper,
// Sections 1 and 7; Chand & Felber, Euro-Par'05).
package cluster

import (
	"fmt"
	"math/rand"
	"sort"
)

// Greedy builds communities by repeatedly seeding with the unassigned
// item that has the most unassigned neighbors at or above the threshold,
// then absorbing all such neighbors. Communities are returned as index
// sets, largest first; members are sorted. Every item lands in exactly
// one community (possibly a singleton). O(n²) time (GreedySeeded plus a
// sort of the communities).
func Greedy(sim [][]float64, threshold float64) [][]int {
	out, _ := GreedySeeded(sim, threshold)
	sort.SliceStable(out, func(i, j int) bool { return len(out[i]) > len(out[j]) })
	return out
}

// KMedoids partitions items into k communities by a seeded PAM-style
// iteration over the dissimilarity 1−sim. It returns the index sets,
// largest first. k is clamped to [1, n].
func KMedoids(sim [][]float64, k int, seed int64) [][]int {
	n := len(sim)
	if n == 0 {
		return nil
	}
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	rng := rand.New(rand.NewSource(seed))
	// Initialize medoids with distinct random items.
	perm := rng.Perm(n)
	medoids := append([]int{}, perm[:k]...)
	assign := make([]int, n)
	for iter := 0; iter < 50; iter++ {
		// Assign each item to the nearest medoid.
		for i := 0; i < n; i++ {
			best, bestD := 0, 2.0
			for mi, m := range medoids {
				if d := 1 - sim[i][m]; d < bestD {
					best, bestD = mi, d
				}
			}
			assign[i] = best
		}
		// Update each medoid to the member minimizing intra-cluster
		// dissimilarity.
		changed := false
		for mi := range medoids {
			var members []int
			for i := 0; i < n; i++ {
				if assign[i] == mi {
					members = append(members, i)
				}
			}
			if len(members) == 0 {
				continue
			}
			best, bestCost := medoids[mi], costOf(sim, medoids[mi], members)
			for _, cand := range members {
				if c := costOf(sim, cand, members); c < bestCost {
					best, bestCost = cand, c
				}
			}
			if best != medoids[mi] {
				medoids[mi] = best
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	groups := make([][]int, k)
	for i := 0; i < n; i++ {
		groups[assign[i]] = append(groups[assign[i]], i)
	}
	var out [][]int
	for _, g := range groups {
		if len(g) > 0 {
			sort.Ints(g)
			out = append(out, g)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return len(out[i]) > len(out[j]) })
	return out
}

func costOf(sim [][]float64, medoid int, members []int) float64 {
	c := 0.0
	for _, i := range members {
		c += 1 - sim[i][medoid]
	}
	return c
}

// Quality summarizes how semantically tight a clustering is.
type Quality struct {
	// IntraSim is the mean pairwise similarity within communities
	// (singletons excluded).
	IntraSim float64
	// InterSim is the mean pairwise similarity across communities.
	InterSim float64
	// Communities and Singletons count the groups.
	Communities int
	Singletons  int
}

// Evaluate computes clustering quality from the similarity matrix.
func Evaluate(sim [][]float64, communities [][]int) Quality {
	q := Quality{Communities: len(communities)}
	comm := make([]int, len(sim))
	for ci, c := range communities {
		if len(c) == 1 {
			q.Singletons++
		}
		for _, i := range c {
			comm[i] = ci
		}
	}
	var intra, inter float64
	var nIntra, nInter int
	for i := range sim {
		for j := i + 1; j < len(sim); j++ {
			if comm[i] == comm[j] {
				intra += sim[i][j]
				nIntra++
			} else {
				inter += sim[i][j]
				nInter++
			}
		}
	}
	if nIntra > 0 {
		q.IntraSim = intra / float64(nIntra)
	}
	if nInter > 0 {
		q.InterSim = inter / float64(nInter)
	}
	return q
}

func (q Quality) String() string {
	return fmt.Sprintf("communities=%d singletons=%d intra=%.3f inter=%.3f",
		q.Communities, q.Singletons, q.IntraSim, q.InterSim)
}
