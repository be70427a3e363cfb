// Package cluster groups subscriptions into semantic communities from a
// pairwise similarity matrix. This is the consumer of the paper's
// similarity metrics: content-based routing systems cluster consumers
// whose subscriptions are likely to match the same documents and
// disseminate within a community without per-member filtering (paper,
// Sections 1 and 7; Chand & Felber, Euro-Par'05).
package cluster

import "sort"

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
