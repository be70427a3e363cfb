// Live broker walkthrough: the daemon's engine driven in-process.
//
// A broker is started as the daemon starts it (a Hashes estimator,
// threshold 0.99), a population of consumers subscribes at runtime
// (each subscribe evaluates its pattern once and joins the community
// whose members carry the same estimated sample — no O(n²) pass),
// documents are published and fan out community-by-community, some
// consumers churn away, and the
// stats snapshot shows the routing economics: filter evaluations scale
// with communities, not consumers, while the precision proxy tracks
// how semantically tight the communities are.
//
// The same engine serves HTTP traffic in cmd/treesimd; this example is
// the library view of that daemon.
package main

import (
	"fmt"
	"time"

	"treesim"
)

func main() {
	d := treesim.NITFLikeDTD()
	history := treesim.GenerateDocuments(d, 400, 21) // pre-broker history
	live := treesim.GenerateDocuments(d, 300, 22)    // published traffic

	b := treesim.NewBroker(treesim.BrokerConfig{
		Estimator: treesim.Config{Representation: treesim.Hashes, HashCapacity: 1000, Seed: 1},
		Threshold: 0.99,
	})
	defer b.Close()

	// Warm the estimator with history so early samples are meaningful
	// (on an empty stream no pattern carries a sample, and every
	// consumer starts in a singleton until the stream doubles and the
	// registry is re-bucketed).
	for _, doc := range history {
		if _, err := b.Publish(doc); err != nil {
			panic(err)
		}
	}
	b.Flush()

	// Consumers arrive at runtime. Like examples/routing, keep only
	// subscriptions that match something in the history — consumers of
	// a live feed subscribe to content that actually flows.
	var subs []*treesim.Pattern
	for _, p := range treesim.GeneratePatterns(d, 800, 23) {
		for _, doc := range history {
			if treesim.Matches(doc, p) {
				subs = append(subs, p)
				break
			}
		}
		if len(subs) == 80 {
			break
		}
	}
	ids := make([]uint64, 0, len(subs))
	for _, p := range subs {
		id, err := b.SubscribePattern(p, p.String())
		if err != nil {
			panic(err)
		}
		ids = append(ids, id)
	}
	st := b.Stats()
	fmt.Printf("after %d subscribes: %d communities (%d singletons), %d rebuilds\n",
		st.Subscribes, st.Communities, st.Singletons, st.Rebuilds)

	// Publish the live stream.
	for _, doc := range live {
		if _, err := b.Publish(doc); err != nil {
			panic(err)
		}
	}

	// A quarter of the population churns away mid-stream.
	for _, id := range ids[:len(ids)/4] {
		b.Unsubscribe(id)
	}
	for _, doc := range live[:50] {
		if _, err := b.Publish(doc); err != nil {
			panic(err)
		}
	}

	// One consumer drains its queue (long-poll, like GET /deliveries).
	got, err := b.Drain(ids[len(ids)-1], 100, 100*time.Millisecond)
	if err != nil {
		panic(err)
	}
	fmt.Printf("consumer %d drained %d deliveries\n", ids[len(ids)-1], len(got))

	b.Flush()
	st = b.Stats()
	fmt.Printf("\nfinal stats:\n")
	fmt.Printf("  live=%d communities=%d singletons=%d rebuilds=%d\n",
		st.Live, st.Communities, st.Singletons, st.Rebuilds)
	fmt.Printf("  published=%d observed=%d deliveries=%d dropped=%d\n",
		st.Published, st.DocsObserved, st.Deliveries, st.Dropped)
	fmt.Printf("  filter evals=%d (vs %d for per-consumer filtering)\n",
		st.FilterEvals, uint64(st.Live)*st.Published)
	fmt.Printf("  precision proxy=%.3f over %d samples\n",
		st.PrecisionProxy, st.PrecisionSamples)
	fmt.Printf("  publish latency p50=%v p99=%v\n", st.PublishP50, st.PublishP99)
}
