// Command treesim-net measures and checks the overlay federation on an
// in-process multi-broker topology: K broker nodes wired line/star/ring/
// random, a DTD-derived subscription workload, and a document stream
// published round-robin from the nodes. In-process links run the real
// wire codec (encode+decode per message), so the measured message counts
// are exactly what HTTP peers would exchange.
//
// One federation (federation.go) runs three schedules, and checks every
// published batch against pattern.Matches ground truth (recall, lost and
// extra are multiset comparisons over (subscription, document) pairs):
//
//   - steady (the default, steady.go) publishes the whole stream once
//     and compares the overlay's inter-broker forwards with flooding's,
//     a closed form on a connected topology;
//   - -chaos (chaos.go) is a fixed fault schedule: consumers killed
//     mid-window, a broker crashed and recovered, a link severed and
//     healed;
//   - -faults (faults.go) is a seeded random schedule of the same steps
//     over duplicating, reordering links, with injected disk faults.
//
// The default -threshold 2 runs every broker in exact mode (similarity
// never reaches 2, so each subscription is its own community): local
// delivery is exact matching, the overlay's covering aggregates are
// recall-preserving by construction, and the run must achieve recall
// 1.0 with zero lost deliveries — the harness exits nonzero otherwise
// (see -check). Below threshold 1 each broker clusters equal estimated
// samples and routes per community representative; steady then
// reports the recall/precision trade, and the fault schedules refuse
// to run.
//
// Output is `go test -bench` shaped: one benchmark line per schedule
// with its counts as named metrics, then `#` summary lines.
package main

import (
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"time"

	"treesim/internal/broker"
	"treesim/internal/cluster"
	"treesim/internal/core"
	"treesim/internal/dtd"
	"treesim/internal/metrics"
	"treesim/internal/overlay"
	"treesim/internal/pattern"
	"treesim/internal/querygen"
	"treesim/internal/telemetry"
	"treesim/internal/xmlgen"
	"treesim/internal/xmltree"
)

type options struct {
	nodes     int
	topology  string
	subs      int
	publish   int
	seed      int64
	dtdName   string
	threshold float64
	ttl       int
	check     bool
	placement string

	// The fault schedules, exclusive (federation.go): -chaos plays the
	// fixed one (chaos.go), -faults a seeded random one (faults.go).
	chaos  bool
	faults bool
}

// The workload's shape. The paper's querygen defaults produce very broad
// subscriptions (every document matches ~half of them), a regime where
// flooding is near-optimal and no router can save much; the harness is
// tuned toward selective interests, where content-based forwarding earns
// its keep: deeper chains, and leaf values from a vocabulary shared with
// the documents.
const (
	degree    = 3    // average degree of -topology random
	minSave   = 0.30 // required forward savings vs flooding (with -check)
	stopProb  = 0.05 // querygen chain stop probability (lower = deeper, more selective)
	branch    = 0.3  // querygen branching probability
	wildcard  = 0.05 // querygen wildcard probability
	desc      = 0.05 // querygen descendant probability
	values    = 40   // shared text-value vocabulary size
	valueProb = 0.6  // probability a text-bearing pattern element gains a value constraint
)

// parseArgs reads a command line into options, through the flag set it
// returns. -chaos and -faults pick exclusive schedules; asking for both
// is a usage error.
func parseArgs(args []string) (options, *flag.FlagSet, error) {
	var o options
	fs := flag.NewFlagSet("treesim-net", flag.ContinueOnError)
	fs.IntVar(&o.nodes, "nodes", 8, "number of brokers")
	fs.StringVar(&o.topology, "topology", "random", "line|star|ring|random")
	fs.IntVar(&o.subs, "subs", 256, "total subscriptions (spread round-robin)")
	fs.IntVar(&o.publish, "publish", 2000, "documents to publish (round-robin origin)")
	fs.Int64Var(&o.seed, "seed", 1, "workload and topology seed")
	fs.StringVar(&o.dtdName, "dtd", "media", "workload DTD: media|news|business")
	fs.Float64Var(&o.threshold, "threshold", 2, "community similarity threshold (2 = exact mode)")
	fs.IntVar(&o.ttl, "ttl", 16, "forwarding hop budget")
	fs.BoolVar(&o.check, "check", true, "exit nonzero unless recall is 1.0 and forwards save 30% vs flooding")
	fs.StringVar(&o.placement, "placement", "clustered", "subscriber placement: clustered|roundrobin")
	fs.BoolVar(&o.chaos, "chaos", false, "run the fixed fault schedule (kill consumers, crash+recover a broker, sever+heal a link) instead of the steady-state benchmark")
	fs.BoolVar(&o.faults, "faults", false, "run the seeded fault schedule (randomized churn/publish/disk-fault/crash/recover interleavings over duplicating+reordering links); a failure's crash plan and publish stream rerun with the same -seed")
	if err := fs.Parse(args); err != nil {
		return o, fs, err
	}
	if o.chaos && o.faults {
		err := errors.New("-chaos and -faults are exclusive schedules; pick one")
		fmt.Fprintln(fs.Output(), err)
		fs.Usage()
		return o, fs, err
	}
	return o, fs, nil
}

func main() {
	o, _, err := parseArgs(os.Args[1:])
	if errors.Is(err, flag.ErrHelp) {
		os.Exit(0)
	}
	if err != nil {
		os.Exit(2) // the flag set has printed the error and the usage
	}
	switch {
	case o.chaos:
		_, err = runChaos(o)
	case o.faults:
		_, err = runFaults(o)
	default:
		_, err = run(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "treesim-net:", err)
		os.Exit(1)
	}
}

// pairKey identifies one (subscription, document) delivery for multiset
// comparison; documents are keyed by canonical structure so duplicates
// generated by the workload collapse consistently on both sides.
type pairKey struct {
	sub int
	doc string
}

// workload is everything one execution needs: the generated
// subscription patterns, the document stream, the topology edges, and
// the subscriber placement. The generator is kept so chaos runs can
// draw extra mid-run subscriptions from the same distribution.
type workload struct {
	d      *dtd.DTD
	qg     *querygen.Generator
	subs   []*pattern.Pattern
	exprs  []string
	docs   []*xmltree.Tree
	edges  [][2]int
	nodeOf []int
}

func buildWorkload(o options) (*workload, error) {
	var d *dtd.DTD
	switch o.dtdName {
	case "media":
		d = dtd.Media()
	case "news":
		d = dtd.NITFLike()
	case "business":
		d = dtd.XCBLLike()
	default:
		return nil, fmt.Errorf("unknown dtd %q", o.dtdName)
	}

	qopts := querygen.Defaults(o.seed)
	qopts.StopProb = stopProb
	qopts.BranchProb = branch
	qopts.WildcardProb = wildcard
	qopts.DescendantProb = desc
	// A shared text vocabulary: subscriptions constrain leaf values (the
	// paper's Figure 1 "Mozart"), documents draw from the same pool — the
	// workload's main selectivity lever.
	vocab := make([]string, values)
	for i := range vocab {
		vocab[i] = fmt.Sprintf("v%03d", i)
	}
	qopts.ValueProb = valueProb
	qopts.Values = vocab
	xopts := xmlgen.Options{Seed: o.seed + 1, EmitText: true, Values: vocab}
	w := &workload{d: d, qg: querygen.New(d, qopts)}
	w.subs = make([]*pattern.Pattern, o.subs)
	w.exprs = make([]string, o.subs)
	for i := range w.subs {
		w.subs[i] = w.qg.Generate()
		w.exprs[i] = w.subs[i].String()
	}
	w.docs = xmlgen.New(d, xopts).GenerateN(o.publish)
	var err error
	if w.edges, err = buildEdges(o); err != nil {
		return nil, err
	}
	if w.nodeOf, err = placeSubscribers(o, d, w.subs, xopts); err != nil {
		return nil, err
	}
	return w, nil
}

// buildEdges returns the undirected topology as index pairs.
func buildEdges(o options) ([][2]int, error) {
	k := o.nodes
	if k < 2 {
		return nil, fmt.Errorf("need at least 2 nodes, have %d", k)
	}
	var edges [][2]int
	switch o.topology {
	case "line":
		for i := 0; i+1 < k; i++ {
			edges = append(edges, [2]int{i, i + 1})
		}
	case "ring":
		for i := 0; i+1 < k; i++ {
			edges = append(edges, [2]int{i, i + 1})
		}
		edges = append(edges, [2]int{k - 1, 0})
	case "star":
		for i := 1; i < k; i++ {
			edges = append(edges, [2]int{0, i})
		}
	case "random":
		rng := rand.New(rand.NewSource(o.seed + 2))
		have := make(map[[2]int]bool)
		add := func(a, b int) {
			if a > b {
				a, b = b, a
			}
			if a != b && !have[[2]int{a, b}] {
				have[[2]int{a, b}] = true
				edges = append(edges, [2]int{a, b})
			}
		}
		for i := 1; i < k; i++ {
			add(i, rng.Intn(i)) // random spanning tree: always connected
		}
		want := k * degree / 2
		if max := k * (k - 1) / 2; want > max {
			want = max
		}
		for len(edges) < want {
			add(rng.Intn(k), rng.Intn(k))
		}
	default:
		return nil, fmt.Errorf("unknown topology %q", o.topology)
	}
	return edges, nil
}

// brokerConfig is every node's engine config: the daemon's estimator, so
// a -threshold below 1 clusters as treesimd does.
func brokerConfig(o options) broker.Config {
	return broker.Config{
		Estimator:     core.Config{Representation: core.Hashes, HashCapacity: 1000, Seed: 1},
		Threshold:     o.threshold,
		QueueCapacity: o.publish + 16,
		DocCache:      o.publish + 16,
		// Remote injection is non-blocking (overload sheds with 503);
		// the harness publishes synchronously and must never shed, so
		// size the ingest queue past the whole stream.
		IngestQueue: o.publish + 64,
	}
}

// nodeConfig is node i's overlay config in every schedule: aggressive
// liveness timings so a fault schedule converges in seconds (a
// production daemon runs the same machinery with 60s TTLs), a trace
// ring sized past the whole stream, and minEpoch, the floor a recovered
// node's epoch boots above.
func nodeConfig(o options, i int, minEpoch uint64) overlay.Config {
	cfg := overlay.Config{
		ID:            fmt.Sprintf("n%02d", i),
		TTL:           o.ttl,
		SeenCapacity:  2 * (o.publish + 16),
		AdvertPolicy:  broker.Never{}, // explicit rounds; refresh keepalives still run
		AdvertTTL:     time.Second,
		Maintenance:   50 * time.Millisecond,
		RetryBase:     50 * time.Millisecond,
		RetryMax:      500 * time.Millisecond,
		TraceCapacity: o.publish + 16,
		MinEpoch:      minEpoch,
	}
	if !o.chaos && !o.faults {
		// Steady heals nothing, and a keepalive refresh landing mid-run can
		// move a route onto a shorter path: liveness off keeps the
		// set-up's routes, and the counts a function of the seed.
		cfg.AdvertTTL = -1
	}
	return cfg
}

// placeSubscribers decides which broker hosts each subscription.
// "roundrobin" scatters them (the locality worst case: every broker
// holds a slice of every interest, so almost every document interests
// almost every broker). "clustered" shards by the paper's own
// machinery: an estimator trained on a held-out document sample scores
// pairwise subscription similarity, greedy clustering forms interest
// communities, and whole communities land on the least-loaded broker —
// the similarity-driven subscriber sharding a scaled federation would
// run.
func placeSubscribers(o options, d *dtd.DTD, subs []*pattern.Pattern, xopts xmlgen.Options) ([]int, error) {
	nodeOf := make([]int, len(subs))
	switch o.placement {
	case "roundrobin":
		for i := range nodeOf {
			nodeOf[i] = i % o.nodes
		}
		return nodeOf, nil
	case "clustered":
		xopts.Seed = o.seed + 3 // held-out sample, not the published stream
		sample := xmlgen.New(d, xopts).GenerateN(200)
		est := core.NewEstimator(core.Config{Seed: o.seed})
		est.ObserveTrees(sample)
		sim := est.SimilarityMatrix(metrics.M3, subs)
		groups, _ := cluster.GreedySeeded(sim, 0.5)
		load := make([]int, o.nodes)
		for _, g := range groups {
			least := 0
			for n := 1; n < o.nodes; n++ {
				if load[n] < load[least] {
					least = n
				}
			}
			for _, s := range g {
				nodeOf[s] = least
			}
			load[least] += len(g)
		}
		return nodeOf, nil
	default:
		return nil, fmt.Errorf("unknown placement %q", o.placement)
	}
}

// verifyTraces re-assembles each publication's forwarding tree from
// the per-node span rings and checks it is a consistent tree: exactly
// one origin span (no arrival link), at most one span per node, and
// every non-origin span's arrival edge matching a parent span that
// lists the node among its forwards. Returns how many traces were
// checked and a bounded list of inconsistencies.
func verifyTraces(nodes []*overlay.Node, ids []string) (int, []string) {
	checked := 0
	var problems []string
	complain := func(format string, args ...any) {
		if len(problems) < 5 {
			problems = append(problems, fmt.Sprintf(format, args...))
		}
	}
	for _, id := range ids {
		var spans []telemetry.Span
		for _, n := range nodes {
			spans = append(spans, n.TraceSpans(id)...)
		}
		checked++
		byNode := make(map[string]telemetry.Span, len(spans))
		origins := 0
		dup := false
		for _, sp := range spans {
			if _, seen := byNode[sp.Node]; seen {
				complain("trace %s: node %s holds two spans", id, sp.Node)
				dup = true
				break
			}
			byNode[sp.Node] = sp
			if sp.From == "" {
				origins++
			}
		}
		if dup {
			continue
		}
		if origins != 1 {
			complain("trace %s: %d origin spans across %d spans, want 1", id, origins, len(spans))
			continue
		}
		for _, sp := range spans {
			if sp.From == "" {
				continue
			}
			parent, ok := byNode[sp.From]
			if !ok {
				complain("trace %s: span at %s arrived from %s, which holds no span", id, sp.Node, sp.From)
				continue
			}
			listed := false
			for _, to := range parent.ForwardedTo {
				if to == sp.Node {
					listed = true
					break
				}
			}
			if !listed {
				complain("trace %s: %s's span omits %s from its forwards %v", id, sp.From, sp.Node, parent.ForwardedTo)
			}
		}
	}
	return checked, problems
}

// newNode starts one broker under the harness's broker config and its
// overlay node under cfg. Communities are equal estimated samples, so
// below threshold 1 the broker first observes a history (the stream's
// head), as a daemon does before its consumers arrive, or every sample
// is empty and every community a singleton.
func newNode(o options, w *workload, cfg overlay.Config) (*broker.Engine, *overlay.Node) {
	eng := broker.New(brokerConfig(o))
	if o.threshold < 1 {
		eng.Estimator().ObserveTrees(w.docs[:min(200, len(w.docs))])
	}
	return eng, overlay.New(eng, cfg)
}

// docKey keys a document by canonical structure, so duplicates the
// workload generates collapse consistently on both sides of a
// comparison. Canonicalize sorts in place, and a published tree is
// shared with the brokers — key a clone.
func docKey(t *xmltree.Tree) string { return t.Clone().Canonicalize().String() }

// drainKeys empties subscription id's queue at eng and keys every
// delivered document; the batch envelope carries the cursor to ack and
// the Redelivered count.
func drainKeys(eng *broker.Engine, id uint64) ([]string, broker.DrainResult, error) {
	r, err := eng.DrainBatch(id, 0, 0)
	if err != nil {
		return nil, r, fmt.Errorf("drain sub %d: %w", id, err)
	}
	keys := make([]string, len(r.Deliveries))
	for i, dv := range r.Deliveries {
		t := eng.Document(dv.Doc)
		if t == nil {
			return nil, r, fmt.Errorf("sub %d: delivered doc %d not retained", id, dv.Doc)
		}
		keys[i] = docKey(t)
	}
	return keys, r, nil
}

// compare returns the multiset intersection size, deliveries present in
// want but missing from got (lost), and deliveries in got beyond want
// (extra).
func compare(want, got map[pairKey]int) (matched, lost, extra int) {
	for k, w := range want {
		g := got[k]
		if g < w {
			matched += g
			lost += w - g
		} else {
			matched += w
		}
	}
	for k, g := range got {
		if w := want[k]; g > w {
			extra += g - w
		}
	}
	return matched, lost, extra
}
