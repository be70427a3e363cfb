package main

// Steady (the default schedule): the federation (federation.go) on clean
// links publishes the whole stream once, round-robin from the nodes,
// and is measured three ways:
//
//   - deliveries against pattern.Matches ground truth — verified in
//     exact mode under -check, where a lost or extra delivery fails the
//     run, and reported below threshold 1, where each broker routes per
//     community and the recall/precision trade is the result;
//   - inter-broker forwards against the flooding baseline, which on a
//     connected topology is a closed form (floodForwards);
//   - every publication's forwarding tree, re-assembled from the
//     per-node span rings and checked for consistency (verifyTraces).

import (
	"fmt"

	"treesim/internal/fault"
)

// runResult is what one steady run measured.
type runResult struct {
	batch              // the whole stream against ground truth
	forwards, flooding uint64
	advertised         uint64 // advert messages sent
	advertPats         int    // patterns in the final local adverts, all nodes
	tracesOK           int
	traceProblems      []string
}

// floodForwards is the flooding baseline's inter-broker forwards per
// publication. A flood reaches every broker of a connected topology,
// and each forwards it once, on first receipt, on every link but the
// one it arrived on (the origin on all of its own): Σdeg − (N−1) =
// 2|E| − N + 1 from any origin. That holds while the hop budget lets
// the flood reach every broker along any path, -ttl ≥ -nodes, which run
// demands; buildEdges builds only connected topologies.
func floodForwards(nodes int, edges [][2]int) int { return 2*len(edges) - nodes + 1 }

func run(o options) (runResult, error) {
	var res runResult
	if o.ttl < o.nodes {
		return res, fmt.Errorf("-ttl %d is below -nodes %d: the flooding baseline assumes a publication can reach every broker", o.ttl, o.nodes)
	}
	f, err := newFederation(o, "treesim-net", fault.TransportOptions{})
	if err != nil {
		return res, err
	}
	defer f.close()
	if res.batch, err = f.publish(len(f.w.docs), func() bool { return true }, o.check && o.threshold >= 1); err != nil {
		return res, err
	}
	for _, n := range f.nodes {
		info := n.Info()
		res.forwards += info.ForwardsSent
		res.advertised += info.AdvertsSent
		for _, c := range info.LocalAdvert.Communities {
			res.advertPats += len(c.Patterns)
		}
	}
	res.flooding = uint64(res.docs * floodForwards(o.nodes, f.w.edges))
	var checked int
	checked, res.traceProblems = verifyTraces(f.nodes, res.trace)
	res.tracesOK = checked - len(res.traceProblems)

	name := fmt.Sprintf("topo=%s/nodes=%d/subs=%d/docs=%d", o.topology, o.nodes, o.subs, o.publish)
	if o.threshold != 2 {
		name += fmt.Sprintf("/threshold=%g", o.threshold)
	}
	if o.placement != "clustered" {
		name += "/placement=" + o.placement
	}
	perPub := int64(0)
	if res.docs > 0 {
		perPub = res.elapsed.Nanoseconds() / int64(res.docs)
	}
	savings := 0.0
	if res.flooding > 0 {
		savings = 1 - float64(res.forwards)/float64(res.flooding)
	}
	fmt.Printf("BenchmarkOverlayNet/%s \t%d\t%d ns/op\t%d forwards\t%d deliveries\t%d advert_msgs\t%d advert_patterns\t%.4f recall\t%d lost\t%d extra\t%.1f savings_pct\t%d traces_ok\n",
		name, res.docs, perPub, res.forwards, res.got, res.advertised, res.advertPats, res.recall(), res.lost, res.extra, savings*100, res.tracesOK)
	fmt.Printf("# overlay: %d forwards vs %d flooding (%.1f%% saved), recall %.4f (%d lost, %d extra of %d ground-truth deliveries), %d advert msgs carrying %d patterns for %d raw subs\n",
		res.forwards, res.flooding, savings*100, res.recall(), res.lost, res.extra, res.want, res.advertised, res.advertPats, len(f.subs))
	fmt.Printf("# traces: %d forwarding trees assembled from per-node spans, %d inconsistent\n",
		checked, len(res.traceProblems))
	for _, p := range res.traceProblems {
		fmt.Printf("# TRACE PROBLEM: %s\n", p)
	}

	if o.check {
		switch {
		case res.lost != 0:
			return res, fmt.Errorf("lost %d deliveries vs pattern.Matches ground truth (recall %.4f)", res.lost, res.recall())
		case res.extra != 0:
			return res, fmt.Errorf("%d extra deliveries vs pattern.Matches ground truth", res.extra)
		case savings < minSave:
			return res, fmt.Errorf("savings %.1f%% below required %.1f%%", savings*100, minSave*100)
		case len(res.traceProblems) > 0:
			return res, fmt.Errorf("%d of %d publication traces inconsistent: %s", len(res.traceProblems), checked, res.traceProblems[0])
		case res.tracesOK != res.docs:
			return res, fmt.Errorf("traced %d of %d publications", res.tracesOK, res.docs)
		}
	}
	return res, nil
}
