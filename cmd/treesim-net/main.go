// Command treesim-net measures the overlay federation on an in-process
// multi-broker topology: it spins K broker nodes wired line/star/ring/
// random, loads a DTD-derived subscription workload, publishes a
// document stream round-robin from every node, and compares the
// content-based overlay against two references:
//
//   - a flooding baseline (same topology, aggregates ignored) for the
//     inter-broker forward count, and
//   - a single broker holding every subscription for delivery ground
//     truth (recall/lost/extra are multiset comparisons over
//     (subscription, document) pairs).
//
// In-process links run the real wire codec (encode+decode per message),
// so the measured message counts are exactly what HTTP peers would
// exchange.
//
// The default -threshold 2 runs every broker in exact mode (similarity
// never reaches 2, so each subscription is its own community): local
// delivery is exact matching, the overlay's covering aggregates are
// recall-preserving by construction, and the run must achieve recall
// 1.0 with zero lost deliveries — the harness exits nonzero otherwise
// (see -check). Lower thresholds turn on similarity clustering; each
// broker then routes per community representative and the harness
// simply reports the recall/precision trade honestly.
//
// Output is `go test -bench` shaped: one line each for the overlay, the
// flooding baseline and the ground truth, with forwards, deliveries and
// recall as named metrics, then a one-line `# overlay:` summary.
package main

import (
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
	degree    int
	subs      int
	publish   int
	seed      int64
	dtdName   string
	threshold float64
	ttl       int
	maxPat    int
	check     bool
	minSave   float64

	// Workload shape. The paper's querygen defaults produce very broad
	// subscriptions (every document matches ~half of them), a regime
	// where flooding is near-optimal and no router can save much; the
	// harness defaults are tuned toward selective interests, where
	// content-based forwarding earns its keep.
	stopProb  float64
	branch    float64
	wildcard  float64
	desc      float64
	values    int
	valueProb float64
	placement string

	// Chaos mode (see chaos.go): kill/restart a broker and sever/heal a
	// link mid-workload, then assert the overlay self-heals to exact
	// delivery.
	chaos bool

	// Faults mode (see faults.go): a seeded randomized crash schedule
	// over lossy-link transports and injected disk faults; any failing
	// seed replays exactly.
	faults bool
}

func main() {
	var o options
	flag.IntVar(&o.nodes, "nodes", 8, "number of brokers")
	flag.StringVar(&o.topology, "topology", "random", "line|star|ring|random")
	flag.IntVar(&o.degree, "degree", 3, "average degree for -topology random")
	flag.IntVar(&o.subs, "subs", 256, "total subscriptions (spread round-robin)")
	flag.IntVar(&o.publish, "publish", 2000, "documents to publish (round-robin origin)")
	flag.Int64Var(&o.seed, "seed", 1, "workload and topology seed")
	flag.StringVar(&o.dtdName, "dtd", "media", "workload DTD: media|news|business")
	flag.Float64Var(&o.threshold, "threshold", 2, "community similarity threshold (2 = exact mode)")
	flag.IntVar(&o.ttl, "ttl", 16, "forwarding hop budget")
	flag.IntVar(&o.maxPat, "advert-max-nodes", 0, "coarsen advertised patterns to N nodes (0: exact covers)")
	flag.BoolVar(&o.check, "check", true, "exit nonzero unless recall is 1.0 and savings beat -min-savings")
	flag.Float64Var(&o.minSave, "min-savings", 0.30, "required forward savings vs flooding (with -check)")
	flag.Float64Var(&o.stopProb, "stop-prob", 0.05, "querygen chain stop probability (lower = deeper, more selective)")
	flag.Float64Var(&o.branch, "branch-prob", 0.3, "querygen branching probability")
	flag.Float64Var(&o.wildcard, "wildcard-prob", 0.05, "querygen wildcard probability")
	flag.Float64Var(&o.desc, "descendant-prob", 0.05, "querygen descendant probability")
	flag.IntVar(&o.values, "values", 40, "shared text-value vocabulary size (0 disables value constraints)")
	flag.Float64Var(&o.valueProb, "value-prob", 0.6, "probability a text-bearing pattern element gains a value constraint")
	flag.StringVar(&o.placement, "placement", "clustered", "subscriber placement: clustered|roundrobin")
	flag.BoolVar(&o.chaos, "chaos", false, "run the fault-injection scenario (crash+recover a broker, sever+heal a link) instead of the steady-state benchmark")
	flag.BoolVar(&o.faults, "faults", false, "run the seeded crash-schedule checker (randomized churn/publish/disk-fault/crash/recover interleavings over duplicating+reordering links); failures reproduce with the same -seed")
	flag.Parse()

	exec := run
	if o.chaos {
		exec = runChaos
	}
	if o.faults {
		exec = runFaults
	}
	if err := exec(o); err != nil {
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

// runResult is one topology execution.
type runResult struct {
	forwards   uint64
	duplicates uint64
	deliveries map[pairKey]int
	delivered  int
	advertised uint64 // advert messages sent
	advertPats int    // patterns in the final local adverts, all nodes
	elapsed    time.Duration

	// Publication tracing: every traced publish's forwarding tree is
	// re-assembled from the per-node span rings after the run (what an
	// operator does across daemons with GET /trace/{id}) and checked
	// for structural consistency.
	tracesChecked int
	traceProblems []string
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
	qopts.StopProb = o.stopProb
	qopts.BranchProb = o.branch
	qopts.WildcardProb = o.wildcard
	qopts.DescendantProb = o.desc
	xopts := xmlgen.Options{Seed: o.seed + 1}
	if o.values > 0 {
		// A shared text vocabulary: subscriptions constrain leaf values
		// (the paper's Figure 1 "Mozart"), documents draw from the same
		// pool — the workload's main selectivity lever.
		vocab := make([]string, o.values)
		for i := range vocab {
			vocab[i] = fmt.Sprintf("v%03d", i)
		}
		qopts.ValueProb = o.valueProb
		qopts.Values = vocab
		xopts.EmitText = true
		xopts.Values = vocab
	}
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

func run(o options) error {
	w, err := buildWorkload(o)
	if err != nil {
		return err
	}
	exprs, docs, edges, nodeOf := w.exprs, w.docs, w.edges, w.nodeOf

	truth, err := singleBroker(o, exprs, docs)
	if err != nil {
		return fmt.Errorf("single-broker reference: %w", err)
	}
	ovl, err := runTopology(o, edges, exprs, nodeOf, docs, false)
	if err != nil {
		return fmt.Errorf("overlay run: %w", err)
	}
	fld, err := runTopology(o, edges, exprs, nodeOf, docs, true)
	if err != nil {
		return fmt.Errorf("flooding run: %w", err)
	}

	matched, lost, extra := compare(truth.deliveries, ovl.deliveries)
	recall := 1.0
	if truth.delivered > 0 {
		recall = float64(matched) / float64(truth.delivered)
	}
	savings := 0.0
	if fld.forwards > 0 {
		savings = 1 - float64(ovl.forwards)/float64(fld.forwards)
	}
	_, floodLost, floodExtra := compare(fld.deliveries, ovl.deliveries)

	name := fmt.Sprintf("topo=%s/nodes=%d/subs=%d/docs=%d", o.topology, o.nodes, o.subs, o.publish)
	if o.threshold != 2 {
		name += fmt.Sprintf("/threshold=%g", o.threshold)
	}
	if o.maxPat > 0 {
		name += fmt.Sprintf("/coarse=%d", o.maxPat)
	}
	if o.placement != "clustered" {
		name += "/placement=" + o.placement
	}
	perPub := func(r runResult) int64 {
		if o.publish == 0 {
			return 0
		}
		return r.elapsed.Nanoseconds() / int64(o.publish)
	}
	fmt.Printf("BenchmarkOverlayNet/%s \t%d\t%d ns/op\t%d forwards\t%d deliveries\t%d advert_msgs\t%d advert_patterns\t%.4f recall\t%d lost\t%d extra\t%.1f savings_pct\t%d traces_ok\n",
		name, o.publish, perPub(ovl), ovl.forwards, ovl.delivered, ovl.advertised, ovl.advertPats, recall, lost, extra, savings*100, ovl.tracesChecked-len(ovl.traceProblems))
	fmt.Printf("BenchmarkOverlayNetFlood/%s \t%d\t%d ns/op\t%d forwards\t%d deliveries\t%d duplicates\n",
		name, o.publish, perPub(fld), fld.forwards, fld.delivered, fld.duplicates)
	fmt.Printf("BenchmarkOverlayNetTruth/%s \t%d\t%d ns/op\t%d deliveries\n",
		name, o.publish, perPub(truth), truth.delivered)

	fmt.Printf("# overlay: %d forwards vs %d flooding (%.1f%% saved), recall %.4f (%d lost, %d extra of %d ground-truth deliveries), %d advert msgs carrying %d patterns for %d raw subs\n",
		ovl.forwards, fld.forwards, savings*100, recall, lost, extra, truth.delivered, ovl.advertised, ovl.advertPats, o.subs)
	fmt.Printf("# traces: %d forwarding trees assembled from per-node spans, %d inconsistent\n",
		ovl.tracesChecked, len(ovl.traceProblems))
	for _, p := range ovl.traceProblems {
		fmt.Printf("# TRACE PROBLEM: %s\n", p)
	}
	if floodLost != 0 || floodExtra != 0 {
		fmt.Printf("# WARNING: overlay and flooding delivery sets differ (lost %d, extra %d vs flood)\n", floodLost, floodExtra)
	}

	if o.check {
		if lost != 0 {
			return fmt.Errorf("lost %d deliveries vs single-broker ground truth (recall %.4f)", lost, recall)
		}
		if extra != 0 {
			return fmt.Errorf("%d extra deliveries vs single-broker ground truth (duplicate routing)", extra)
		}
		if floodLost != 0 || floodExtra != 0 {
			return fmt.Errorf("overlay and flooding delivery sets differ (lost %d, extra %d)", floodLost, floodExtra)
		}
		if savings < o.minSave {
			return fmt.Errorf("savings %.1f%% below required %.1f%%", savings*100, o.minSave*100)
		}
		if len(ovl.traceProblems) > 0 {
			return fmt.Errorf("%d of %d publication traces inconsistent: %s",
				len(ovl.traceProblems), ovl.tracesChecked, ovl.traceProblems[0])
		}
		if ovl.tracesChecked != o.publish {
			return fmt.Errorf("traced %d of %d publications", ovl.tracesChecked, o.publish)
		}
	}
	return nil
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
		want := k * o.degree / 2
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

func brokerConfig(o options) broker.Config {
	return broker.Config{
		Threshold:     o.threshold,
		QueueCapacity: o.publish + 16,
		DocCache:      o.publish + 16,
		// Remote injection is non-blocking (overload sheds with 503);
		// the harness publishes synchronously and must never shed, so
		// size the ingest queue past the whole stream.
		IngestQueue: o.publish + 64,
		Rebuild:     broker.Never{},
	}
}

// nodeConfig is node i's overlay config in the -chaos and -faults
// scenarios: aggressive liveness timings so a scenario converges in
// seconds (a production daemon runs the same machinery with 60s TTLs),
// and minEpoch, the floor a recovered node's epoch boots above.
func nodeConfig(o options, i int, minEpoch uint64) overlay.Config {
	return overlay.Config{
		ID:              fmt.Sprintf("n%02d", i),
		TTL:             o.ttl,
		SeenCapacity:    2 * (o.publish + 16),
		AdvertPolicy:    broker.Never{}, // explicit rounds; refresh keepalives still run
		MaxPatternNodes: o.maxPat,
		AdvertTTL:       time.Second,
		Maintenance:     50 * time.Millisecond,
		RetryBase:       50 * time.Millisecond,
		RetryMax:        500 * time.Millisecond,
		MinEpoch:        minEpoch,
	}
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

// runTopology executes one federation run and collects its delivery
// multiset.
func runTopology(o options, edges [][2]int, exprs []string, nodeOf []int, docs []*xmltree.Tree, flood bool) (runResult, error) {
	res := runResult{deliveries: make(map[pairKey]int)}
	nodes := make([]*overlay.Node, o.nodes)
	for i := range nodes {
		eng := broker.New(brokerConfig(o))
		defer eng.Close()
		// The flooding baseline runs untraced so its forward counts and
		// timings stay a pure reference; the overlay run retains every
		// publication's spans (the ring is sized past the stream).
		traceCap := o.publish + 16
		if flood {
			traceCap = -1
		}
		nodes[i] = overlay.New(eng, overlay.Config{
			ID:              fmt.Sprintf("n%02d", i),
			TTL:             o.ttl,
			SeenCapacity:    2 * (o.publish + 16),
			AdvertPolicy:    broker.Never{}, // harness advertises explicitly once loaded
			MaxPatternNodes: o.maxPat,
			Flood:           flood,
			TraceCapacity:   traceCap,
		})
		defer nodes[i].Close()
	}
	for _, e := range edges {
		if err := overlay.Connect(nodes[e[0]], nodes[e[1]]); err != nil {
			return res, err
		}
	}

	// Load subscriptions onto their placed brokers (nodeOf, from
	// placeSubscribers: similarity-clustered by default) and remember
	// each one's home.
	type home struct {
		node int
		id   uint64
	}
	homes := make([]home, len(exprs))
	for i, expr := range exprs {
		n := nodeOf[i]
		id, err := nodes[n].Engine().Subscribe(expr)
		if err != nil {
			return res, fmt.Errorf("subscribe %q: %w", expr, err)
		}
		homes[i] = home{node: n, id: id}
	}
	// One advertisement round; synchronous gossip converges before the
	// call returns, so routing state is complete when publishing starts.
	for _, n := range nodes {
		if err := n.Advertise(); err != nil {
			return res, err
		}
	}

	start := time.Now()
	traceIDs := make([]string, 0, len(docs))
	for i, doc := range docs {
		_, _, id, err := nodes[i%o.nodes].PublishTraced(doc)
		if err != nil {
			return res, fmt.Errorf("publish %d: %w", i, err)
		}
		if id != "" {
			traceIDs = append(traceIDs, id)
		}
	}
	res.elapsed = time.Since(start)

	// Account: forwards and advert traffic from node counters, the
	// delivery multiset from draining every subscription and resolving
	// each delivery's document out of the home engine's retention ring.
	for _, n := range nodes {
		info := n.Info()
		res.forwards += info.ForwardsSent
		res.duplicates += info.Duplicates
		res.advertised += info.AdvertsSent
		for _, c := range info.LocalAdvert.Communities {
			res.advertPats += len(c.Patterns)
		}
	}
	for gi, h := range homes {
		eng := nodes[h.node].Engine()
		ds, err := eng.Drain(h.id, 0, 0)
		if err != nil {
			return res, err
		}
		for _, dv := range ds {
			t := eng.Document(dv.Doc)
			if t == nil {
				return res, fmt.Errorf("delivered doc %d not retained at node %d", dv.Doc, h.node)
			}
			// Canonicalize mutates in place and the retained tree is
			// shared with the engine's still-running ingest pipeline —
			// key a clone.
			res.deliveries[pairKey{sub: gi, doc: t.Clone().Canonicalize().String()}]++
			res.delivered++
		}
	}
	res.tracesChecked, res.traceProblems = verifyTraces(nodes, traceIDs)
	return res, nil
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

// singleBroker runs the all-subscriptions-on-one-broker reference.
func singleBroker(o options, exprs []string, docs []*xmltree.Tree) (runResult, error) {
	res := runResult{deliveries: make(map[pairKey]int)}
	eng := broker.New(brokerConfig(o))
	defer eng.Close()
	ids := make([]uint64, len(exprs))
	for i, expr := range exprs {
		id, err := eng.Subscribe(expr)
		if err != nil {
			return res, err
		}
		ids[i] = id
	}
	start := time.Now()
	for i, doc := range docs {
		if _, err := eng.Publish(doc); err != nil {
			return res, fmt.Errorf("publish %d: %w", i, err)
		}
	}
	res.elapsed = time.Since(start)
	for gi, id := range ids {
		ds, err := eng.Drain(id, 0, 0)
		if err != nil {
			return res, err
		}
		for _, dv := range ds {
			t := eng.Document(dv.Doc)
			if t == nil {
				return res, fmt.Errorf("reference doc %d not retained", dv.Doc)
			}
			res.deliveries[pairKey{sub: gi, doc: t.Clone().Canonicalize().String()}]++
			res.delivered++
		}
	}
	return res, nil
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
