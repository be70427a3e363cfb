package treesim

// Integration tests: end-to-end scenarios crossing module boundaries —
// stream ingestion → synopsis → (compression | persistence) → queries →
// clustering → routing on the broker — at small but non-trivial scale.

import (
	"bytes"
	"fmt"
	"maps"
	"math"
	"slices"
	"testing"

	"treesim/internal/broker"
	"treesim/internal/cluster"
	"treesim/internal/core"
	"treesim/internal/dtd"
	"treesim/internal/matchset"
	"treesim/internal/metrics"
	"treesim/internal/pattern"
	"treesim/internal/persist"
	"treesim/internal/selectivity"
	"treesim/internal/synopsis"
	"treesim/internal/xmlgen"
)

// TestEndToEndAccuracyPipeline drives the full estimation pipeline on a
// generated corpus and checks estimated selectivities and similarities
// against exact ground truth within sane bands.
func TestEndToEndAccuracyPipeline(t *testing.T) {
	d := dtd.NITFLike()
	w := buildWorkload(d, workloadConfig{Docs: 400, Positive: 80, Negative: 80, Seed: 21})
	est := New(Config{Representation: Hashes, HashCapacity: 600, Seed: 5})
	for _, doc := range w.Docs {
		est.ObserveTree(doc)
	}
	// Selectivity accuracy on mid/high-selectivity patterns.
	checked := 0
	for i, p := range w.Positive {
		exact := float64(w.MatchSets[i].Count()) / float64(len(w.Docs))
		if exact < 0.05 {
			continue
		}
		got := est.Selectivity(p)
		if rel := math.Abs(got-exact) / exact; rel > 0.5 {
			t.Errorf("P(%s) = %v, exact %v (rel %v)", p, got, exact, rel)
		}
		checked++
	}
	if checked < 10 {
		t.Fatalf("too few mid-selectivity patterns: %d", checked)
	}
	// Negative patterns must be near zero.
	for _, p := range w.Negative[:20] {
		if got := est.Selectivity(p); got > 0.05 {
			t.Errorf("negative pattern P = %v: %s", got, p)
		}
	}
	// Similarity: estimated M3 close to exact M3 on random pairs.
	exactSrc := exactSource{w}
	pairs := w.randomPairs(80, 3)
	var errSum float64
	n := 0
	for _, pr := range pairs {
		p, q := w.Positive[pr.I], w.Positive[pr.J]
		truth := metrics.Similarity(exactSrc, metrics.M3, p, q)
		if truth < 0.05 {
			continue
		}
		got := est.Similarity(M3, p, q)
		errSum += math.Abs(got-truth) / truth
		n++
	}
	if n > 0 && errSum/float64(n) > 0.4 {
		t.Errorf("average M3 relative error %v over %d pairs", errSum/float64(n), n)
	}
}

// TestPersistenceMidStream saves an estimator mid-stream, restores it,
// feeds both the original and the restored copy the same remaining
// stream, and verifies they answer identically (Hashes mode is fully
// deterministic given the seed).
func TestPersistenceMidStream(t *testing.T) {
	d := dtd.XCBLLike()
	docs := GenerateDocuments(d, 200, 31)
	queries := GeneratePatterns(d, 30, 32)

	orig := New(Config{Representation: Hashes, HashCapacity: 200, Seed: 9})
	for _, doc := range docs[:100] {
		orig.ObserveTree(doc)
	}
	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range docs[100:] {
		orig.ObserveTree(doc)
		restored.ObserveTree(doc)
	}
	if orig.DocsObserved() != restored.DocsObserved() {
		t.Fatalf("docs: %d vs %d", orig.DocsObserved(), restored.DocsObserved())
	}
	for _, q := range queries {
		a, b := orig.Selectivity(q), restored.Selectivity(q)
		if a != b {
			t.Errorf("P(%s): original %v, restored %v", q, a, b)
		}
	}
}

// TestCompressionPreservesHighSelectivityAnswers compresses moderately
// and checks that frequent patterns keep sane estimates.
func TestCompressionPreservesHighSelectivityAnswers(t *testing.T) {
	d := dtd.XCBLLike()
	docs := GenerateDocuments(d, 300, 41)
	est := New(Config{Representation: Hashes, HashCapacity: 300, Seed: 11})
	for _, doc := range docs {
		est.ObserveTree(doc)
	}
	// Pick frequent patterns from the generated set.
	type pe struct {
		p     *Pattern
		exact float64
	}
	var frequent []pe
	for _, p := range GeneratePatterns(d, 200, 42) {
		n := 0
		for _, doc := range docs {
			if Matches(doc, p) {
				n++
			}
		}
		if f := float64(n) / float64(len(docs)); f > 0.3 {
			frequent = append(frequent, pe{p, f})
		}
		if len(frequent) == 15 {
			break
		}
	}
	if len(frequent) < 5 {
		t.Skip("workload produced too few frequent patterns")
	}
	est.Compress(0.7)
	var absErrSum float64
	for _, f := range frequent {
		got := est.Selectivity(f.p)
		absErrSum += math.Abs(got - f.exact)
		// No frequent pattern may be wiped out entirely.
		if got == 0 {
			t.Errorf("after compression: frequent pattern erased: %s (exact %v)", f.p, f.exact)
		}
	}
	if avg := absErrSum / float64(len(frequent)); avg > 0.35 {
		t.Errorf("after compression: mean |ΔP| over frequent patterns = %v", avg)
	}
}

// TestClusteringRoutingPipeline checks the end-to-end claim of the
// paper on the shipping broker: communities built from *estimated*
// similarities route almost as well as communities built from *exact*
// ones. The broker (Hashes of 1000, threshold 0.99, as the daemon ships)
// subscribes a few hundred generated NITF patterns after one pass over
// the history. Its communities — equal estimated samples — must be the
// partition cluster.GreedySeeded makes of the estimated M3 matrix at
// 0.99, group for group; and on fresh documents, scored against
// pattern.Matches, that partition and greedy partitions of the estimated
// matrix must route within a small margin of greedy partitions of the
// exact matrix at the same threshold, installed into the same engine.
func TestClusteringRoutingPipeline(t *testing.T) {
	d := dtd.NITFLike()
	history := GenerateDocuments(d, 300, 51)
	live := GenerateDocuments(d, 200, 52)
	subs := GeneratePatterns(d, 300, 53)
	eng := broker.New(broker.Config{
		Estimator: core.Config{Representation: Hashes, HashCapacity: 1000, Seed: 13},
		Threshold: 0.99,
	})
	defer eng.Close()
	for _, doc := range history {
		if _, err := eng.Publish(doc); err != nil {
			t.Fatal(err)
		}
	}
	eng.Flush()
	ids := make([]uint64, len(subs))
	index := make(map[uint64]int, len(subs))
	for i, p := range subs {
		id, err := eng.SubscribePattern(p, p.String())
		if err != nil {
			t.Fatal(err)
		}
		ids[i], index[id] = id, i
	}
	estSim := eng.Estimator().SimilarityMatrix(metrics.M3, subs)

	// asSets is a partition of subs as a set of its groups.
	asSets := func(groups [][]int) map[string]bool {
		out := map[string]bool{}
		for _, g := range groups {
			out[fmt.Sprint(slices.Sorted(slices.Values(g)))] = true
		}
		return out
	}
	var samples [][]int
	for _, g := range eng.CommunityIDs() {
		var members []int
		for _, id := range g {
			members = append(members, index[id])
		}
		samples = append(samples, members)
	}
	greedy, _ := cluster.GreedySeeded(estSim, 0.99)
	if !maps.Equal(asSets(samples), asSets(greedy)) {
		t.Fatalf("%d communities of equal samples, %d greedy groups at M3 0.99 (or other members)", len(samples), len(greedy))
	}
	if len(samples) >= len(subs) || len(samples) < len(subs)/4 {
		t.Fatalf("%d communities for %d subscriptions", len(samples), len(subs))
	}

	// Exact similarity matrix over the same history.
	match := make([][]bool, len(subs))
	for i, p := range subs {
		match[i] = make([]bool, len(history))
		for k, doc := range history {
			match[i][k] = Matches(doc, p)
		}
	}
	exactSim := make([][]float64, len(subs))
	for i := range subs {
		exactSim[i] = make([]float64, len(subs))
		for j := range subs {
			and, or := 0, 0
			for k := range history {
				if match[i][k] && match[j][k] {
					and++
				}
				if match[i][k] || match[j][k] {
					or++
				}
			}
			if or > 0 {
				exactSim[i][j] = float64(and) / float64(or)
			}
		}
	}

	want := make([]map[uint64]bool, len(live))
	for k, doc := range live {
		want[k] = map[uint64]bool{}
		for i, p := range subs {
			if Matches(doc, p) {
				want[k][ids[i]] = true
			}
		}
	}
	// ratio follows the broker's conventions: nothing owed is recall 1,
	// nothing delivered is precision 1.
	ratio := func(n, of int) float64 {
		if of == 0 {
			return 1
		}
		return float64(n) / float64(of)
	}
	// score routes the live documents on the engine's current partition.
	score := func() (recall, precision float64) {
		tp, fp, fn := 0, 0, 0
		for k, doc := range live {
			ex, err := eng.Explain(doc)
			if err != nil {
				t.Fatal(err)
			}
			got := map[uint64]bool{}
			for _, id := range ex.Deliveries {
				got[id] = true
				if want[k][id] {
					tp++
				} else {
					fp++
				}
			}
			for id := range want[k] {
				if !got[id] {
					fn++
				}
			}
		}
		return ratio(tp, tp+fn), ratio(tp, tp+fp)
	}
	// install replaces the engine's partition with the greedy one of sim
	// at threshold, seeds as representatives, as a journaled rebuild
	// would.
	install := func(sim [][]float64, threshold float64) {
		idx, seeds := cluster.GreedySeeded(sim, threshold)
		groups := make([][]uint64, len(idx))
		reps := make([]uint64, len(seeds))
		for g, members := range idx {
			for _, i := range members {
				groups[g] = append(groups[g], ids[i])
			}
			reps[g] = ids[seeds[g]]
		}
		if err := eng.Apply(persist.Record{Op: persist.OpRebuild, Groups: groups, Reps: reps}); err != nil {
			t.Fatal(err)
		}
	}
	sampleRecall, samplePrecision := score()
	for _, c := range []struct {
		threshold float64
		margin    float64
	}{{0.6, 0.15}, {0.99, 0.01}} {
		install(estSim, c.threshold)
		estRecall, estPrecision := score()
		install(exactSim, c.threshold)
		exactRecall, exactPrecision := score()
		t.Logf("threshold %v: estimated similarity recall %.4f precision %.4f; exact similarity recall %.4f precision %.4f",
			c.threshold, estRecall, estPrecision, exactRecall, exactPrecision)
		if estRecall < exactRecall-c.margin || estPrecision < exactPrecision-c.margin {
			t.Errorf("threshold %v: estimated-similarity routing %.4f / %.4f far below exact %.4f / %.4f",
				c.threshold, estRecall, estPrecision, exactRecall, exactPrecision)
		}
		if c.threshold == 0.99 {
			t.Logf("equal samples: recall %.4f precision %.4f", sampleRecall, samplePrecision)
			if sampleRecall < exactRecall-c.margin || samplePrecision < exactPrecision-c.margin {
				t.Errorf("equal-sample routing %.4f / %.4f far below exact similarity at 0.99 %.4f / %.4f",
					sampleRecall, samplePrecision, exactRecall, exactPrecision)
			}
		}
	}
}

// TestCountersVsSamplesOnBranchingQueries verifies at integration scale
// that the paper's motivating failure of counters (independence at
// branches) shows up while sample-based schemes stay accurate.
func TestCountersVsSamplesOnBranchingQueries(t *testing.T) {
	// Corpus with strong anti-correlation: u-docs have x, v-docs have y,
	// never both.
	var docs []*Tree
	for i := 0; i < 100; i++ {
		spec := "r(u(x))"
		if i%2 == 1 {
			spec = "r(v(y))"
		}
		doc, err := ParseXMLString(compactToXML(spec))
		if err != nil {
			t.Fatal(err)
		}
		docs = append(docs, doc)
	}
	q := MustParsePattern("/r[u][v]") // never matches

	counters := New(Config{Representation: Counters, Seed: 1})
	hashes := New(Config{Representation: Hashes, HashCapacity: 500, Seed: 1})
	for _, doc := range docs {
		counters.ObserveTree(doc)
		hashes.ObserveTree(doc)
	}
	if got := counters.Selectivity(q); math.Abs(got-0.25) > 1e-9 {
		t.Errorf("counters P = %v, want 0.25 (independence estimate)", got)
	}
	if got := hashes.Selectivity(q); got != 0 {
		t.Errorf("hashes P = %v, want 0", got)
	}
}

// compactToXML converts "a(b,c)" into "<a><b/><c/></a>" for the public
// ParseXMLString API.
func compactToXML(spec string) string {
	var out bytes.Buffer
	var name bytes.Buffer
	var stack []string
	flushOpen := func(selfClose bool) {
		if name.Len() == 0 {
			return
		}
		tag := name.String()
		name.Reset()
		if selfClose {
			out.WriteString("<" + tag + "/>")
		} else {
			out.WriteString("<" + tag + ">")
			stack = append(stack, tag)
		}
	}
	for _, r := range spec {
		switch r {
		case '(':
			flushOpen(false)
		case ',':
			flushOpen(true)
		case ')':
			flushOpen(true)
			out.WriteString("</" + stack[len(stack)-1] + ">")
			stack = stack[:len(stack)-1]
		default:
			name.WriteRune(r)
		}
	}
	flushOpen(true)
	return out.String()
}

// TestWindowedVsUnboundedEstimator cross-checks the sliding-window
// estimator against an unbounded exact estimator over the same suffix.
func TestWindowedVsUnboundedEstimator(t *testing.T) {
	d := dtd.Media()
	gen := xmlgen.New(d, xmlgen.Options{Seed: 61})
	const window = 50
	we := NewWindow(window)
	var suffix []*Tree
	for i := 0; i < 200; i++ {
		doc := gen.Generate()
		we.ObserveTree(doc)
		suffix = append(suffix, doc)
		if len(suffix) > window {
			suffix = suffix[1:]
		}
	}
	// Reference: unbounded Sets estimator fed only the suffix.
	ref := synopsis.New(synopsis.Options{Kind: matchset.KindSets, NoReservoir: true})
	for _, doc := range suffix {
		ref.Insert(doc)
	}
	refEst := selectivity.New(ref)
	for _, q := range []string{"/media/CD", "//composer/last", "/media[book][CD]", "//soloist"} {
		p := pattern.MustParse(q)
		a, b := we.Selectivity(p), refEst.P(p)
		if math.Abs(a-b) > 1e-12 {
			t.Errorf("window P(%s) = %v, reference %v", q, a, b)
		}
	}
}

// TestMinimizeBeforeClustering checks the containment/minimization
// extension composes with the estimator: a redundant subscription and
// its minimized form get identical selectivities.
func TestMinimizeBeforeClustering(t *testing.T) {
	est := New(Config{Representation: Sets, SetCapacity: 1 << 16, Seed: 1})
	for _, doc := range GenerateDocuments(dtd.Media(), 120, 71) {
		est.ObserveTree(doc)
	}
	p := MustParsePattern("/media[CD][CD/title]") // CD/title implies CD
	q := MinimizePattern(p)
	if q.Size() >= p.Size() {
		t.Fatalf("minimization did not shrink %s -> %s", p, q)
	}
	if !ContainsPattern(p, q) || !ContainsPattern(q, p) {
		t.Fatal("minimized pattern not equivalent")
	}
	a, b := est.Selectivity(p), est.Selectivity(q)
	if a != b {
		t.Errorf("P(original) = %v, P(minimized) = %v", a, b)
	}
}
