// Subscription aggregation: the application of selectivity estimation
// pioneered by the paper's reference [4] (Chan et al., VLDB'02).
//
// Exact routing tables grow with the consumer population; aggregating a
// table into a few generalized patterns keeps it small at the cost of
// some spurious forwarding. The estimator's job is to pick the merges
// that add the least selectivity — bad merges flood, good merges are
// nearly free.
package main

import (
	"fmt"

	"treesim"
)

func main() {
	d := treesim.NITFLikeDTD()
	history := treesim.GenerateDocuments(d, 500, 81)

	// Consumers with moderately selective interests (2%–50% of the
	// stream): with near-universal subscriptions in the population,
	// aggregation trivially collapses everything into them — correct,
	// but uninstructive.
	var subs []*treesim.Pattern
	for _, p := range treesim.GeneratePatterns(d, 800, 83) {
		n := 0
		for _, doc := range history {
			if treesim.Matches(doc, p) {
				n++
			}
		}
		if f := float64(n) / float64(len(history)); f >= 0.02 && f <= 0.5 {
			subs = append(subs, p)
		}
		if len(subs) == 48 {
			break
		}
	}
	est := treesim.New(treesim.Config{Representation: treesim.Hashes, HashCapacity: 400, Seed: 8})
	for _, doc := range history {
		est.ObserveTree(doc)
	}
	res := treesim.AggregateSubscriptions(est, subs, 8)
	fmt.Printf("aggregating %d subscriptions into %d representatives (estimated selectivity added: %.3f):\n",
		len(subs), len(res.Patterns), res.EstimatedLoss)
	for i, p := range res.Patterns {
		if len(res.Groups[i]) > 1 {
			fmt.Printf("  %2d subscriptions -> %s\n", len(res.Groups[i]), p)
		}
	}
	fmt.Println("\nSmaller tables cut per-broker state and evaluations; the spurious")
	fmt.Println("messages are the price, kept low by selectivity-guided merging.")
}
